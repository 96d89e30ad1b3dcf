// Additional MDC operator coverage: parameterized nt sweep, the TLR
// backend against the dense one inside the operator, and linearity
// properties.
#include <gtest/gtest.h>

#include <tuple>

#include "test_helpers.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/tlr/tlr_matrix.hpp"

namespace tlrwse::mdc {
namespace {

/// TLR operator over oscillatory kernels, or the dense one over the same
/// kernels.
std::unique_ptr<MdcOperator> build_op(index_t nt, index_t ns, index_t nr,
                                      const std::vector<index_t>& bins,
                                      bool dense = false) {
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  for (std::size_t q = 0; q < bins.size(); ++q) {
    const auto K = tlrwse::testing::oscillatory_matrix<cf32>(
        ns, nr, 6.0 + 2.0 * static_cast<double>(q));
    if (dense) {
      kernels.push_back(std::make_unique<DenseMvm>(K));
      continue;
    }
    tlr::CompressionConfig cc;
    cc.nb = 8;
    cc.acc = 1e-5;
    kernels.push_back(std::make_unique<TlrMvm>(
        tlr::StackedTlr<cf32>(tlr::compress_tlr(K, cc))));
  }
  return std::make_unique<MdcOperator>(nt, bins, std::move(kernels));
}

class NtSweep : public ::testing::TestWithParam<int> {};

TEST_P(NtSweep, AdjointDotTestAcrossWindowLengths) {
  const index_t nt = GetParam();
  const std::vector<index_t> bins{2, nt / 4, nt / 2 - 1};
  const auto op = build_op(nt, 9, 6, bins);
  Rng rng(nt);
  std::vector<float> x(static_cast<std::size_t>(op->cols()));
  std::vector<float> y(static_cast<std::size_t>(op->rows()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  std::vector<float> ax(y.size()), aty(x.size());
  op->apply(x, std::span<float>(ax));
  op->apply_adjoint(y, std::span<float>(aty));
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += double(ax[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-4 * (std::abs(lhs) + std::abs(rhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(WindowLengths, NtSweep,
                         ::testing::Values(16, 64, 100, 256));

TEST(MdcBackends, AllKernelsProduceSameAction) {
  const std::vector<index_t> bins{3, 9};
  const auto tlr_op = build_op(64, 10, 8, bins);
  const auto dense_op = build_op(64, 10, 8, bins, /*dense=*/true);
  Rng rng(17);
  std::vector<float> x(static_cast<std::size_t>(tlr_op->cols()));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> y1(static_cast<std::size_t>(tlr_op->rows()));
  std::vector<float> y2(y1.size());
  tlr_op->apply(x, std::span<float>(y1));
  dense_op->apply(x, std::span<float>(y2));
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-4);
}

TEST(MdcOperator, LinearityOverSuperposition) {
  const std::vector<index_t> bins{4, 11};
  const auto op = build_op(64, 8, 6, bins);
  Rng rng(23);
  std::vector<float> x1(static_cast<std::size_t>(op->cols()));
  std::vector<float> x2(x1.size());
  for (auto& v : x1) v = static_cast<float>(rng.normal());
  for (auto& v : x2) v = static_cast<float>(rng.normal());
  std::vector<float> xs(x1.size());
  for (std::size_t i = 0; i < x1.size(); ++i) xs[i] = 2.0f * x1[i] - x2[i];
  std::vector<float> y1(static_cast<std::size_t>(op->rows()));
  std::vector<float> y2(y1.size()), ys(y1.size());
  op->apply(x1, std::span<float>(y1));
  op->apply(x2, std::span<float>(y2));
  op->apply(xs, std::span<float>(ys));
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(ys[i], 2.0f * y1[i] - y2[i], 2e-4);
  }
}

TEST(MdcOperator, ZeroInputZeroOutput) {
  const std::vector<index_t> bins{5};
  const auto op = build_op(32, 4, 3, bins);
  std::vector<float> x(static_cast<std::size_t>(op->cols()), 0.0f);
  std::vector<float> y(static_cast<std::size_t>(op->rows()), 1.0f);
  op->apply(x, std::span<float>(y));
  for (float v : y) EXPECT_EQ(v, 0.0f);
}

TEST(MdcOperator, SizeValidation) {
  const std::vector<index_t> bins{5};
  const auto op = build_op(32, 4, 3, bins);
  std::vector<float> bad(10), y(static_cast<std::size_t>(op->rows()));
  EXPECT_THROW(op->apply(std::span<const float>(bad), std::span<float>(y)),
               std::invalid_argument);
  EXPECT_THROW(
      op->apply_adjoint(std::span<const float>(bad), std::span<float>(y)),
      std::invalid_argument);
}

}  // namespace
}  // namespace tlrwse::mdc
