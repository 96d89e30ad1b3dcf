// Tests for the FFT substrate: radix-2 and Bluestein paths against a naive
// DFT, real-transform round trips, Parseval, batched transforms, and the
// band-limited DFT of the MDC operator against the cf64 FftPlan.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "tlrwse/common/rng.hpp"
#include "tlrwse/fft/band_dft.hpp"
#include "tlrwse/fft/fft.hpp"

namespace tlrwse::fft {
namespace {

std::vector<cf64> naive_dft(const std::vector<cf64>& x) {
  const auto n = static_cast<index_t>(x.size());
  std::vector<cf64> out(x.size());
  for (index_t k = 0; k < n; ++k) {
    cf64 acc{};
    for (index_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi_v<double> *
                         static_cast<double>(k * t) / static_cast<double>(n);
      acc += x[static_cast<std::size_t>(t)] * cf64{std::cos(ang), std::sin(ang)};
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
  return out;
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const index_t n = GetParam();
  Rng rng(n);
  std::vector<cf64> x(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  auto y = x;
  FftPlan plan(n);
  plan.forward(std::span<cf64>(y));
  const auto ref = naive_dft(x);
  for (index_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(k)] -
                         ref[static_cast<std::size_t>(k)]),
                0.0, 1e-9 * n)
        << "n=" << n << " k=" << k;
  }
}

TEST_P(FftSizes, RoundTripIdentity) {
  const index_t n = GetParam();
  Rng rng(n + 999);
  std::vector<cf64> x(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  auto y = x;
  FftPlan plan(n);
  plan.forward(std::span<cf64>(y));
  plan.inverse(std::span<cf64>(y));
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(y[k] - x[k]), 0.0, 1e-10 * n);
  }
}

TEST_P(FftSizes, Parseval) {
  const index_t n = GetParam();
  Rng rng(n + 5);
  std::vector<cf64> x(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  FftPlan plan(n);
  plan.forward(std::span<cf64>(x));
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * n);
}

// Powers of two exercise radix-2; the rest exercise Bluestein, including
// primes and the paper-like 1125 (4.5 s at 4 ms).
INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 3, 5, 7, 12,
                                           100, 230, 97, 1125));

TEST(Fft, SinglePrecisionWrapper) {
  Rng rng(77);
  std::vector<cf32> x(64);
  fill_normal(rng, x.data(), x.size());
  auto y = x;
  FftPlan plan(64);
  plan.forward(std::span<cf32>(y));
  plan.inverse(std::span<cf32>(y));
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(y[k] - x[k]), 0.0, 1e-4);
  }
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<cf64> x(16, cf64{});
  x[0] = {1.0, 0.0};
  FftPlan plan(16);
  plan.forward(std::span<cf64>(x));
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cf64{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Fft, InvalidSizeThrows) { EXPECT_THROW(FftPlan(0), std::invalid_argument); }

TEST(Rfft, FrequencyGrid) {
  const auto f = rfft_frequencies(256, 0.004);
  ASSERT_EQ(f.size(), 129u);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_NEAR(f[1], 1.0 / (256 * 0.004), 1e-12);  // ~0.977 Hz
  EXPECT_NEAR(f.back(), 125.0, 1e-9);             // Nyquist at dt = 4 ms
}

TEST(Rfft, RoundTripRealSignal) {
  Rng rng(88);
  std::vector<double> x(200);
  for (auto& v : x) v = rng.normal();
  const auto spec = rfft(std::span<const double>(x));
  ASSERT_EQ(spec.size(), 101u);
  const auto back = irfft(std::span<const cf64>(spec), 200);
  for (std::size_t t = 0; t < x.size(); ++t) {
    EXPECT_NEAR(back[t], x[t], 1e-9);
  }
}

TEST(Rfft, CosineHitsSingleBin) {
  const index_t nt = 128;
  std::vector<double> x(static_cast<std::size_t>(nt));
  for (index_t t = 0; t < nt; ++t) {
    x[static_cast<std::size_t>(t)] =
        std::cos(2.0 * std::numbers::pi_v<double> * 5.0 *
                 static_cast<double>(t) / static_cast<double>(nt));
  }
  const auto spec = rfft(std::span<const double>(x));
  for (std::size_t k = 0; k < spec.size(); ++k) {
    if (k == 5) {
      EXPECT_NEAR(std::abs(spec[k]), nt / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9);
    }
  }
}

TEST(RfftBatch, MatchesPerTrace) {
  Rng rng(99);
  const index_t nt = 64, ntr = 5;
  std::vector<float> page(static_cast<std::size_t>(nt * ntr));
  for (auto& v : page) v = static_cast<float>(rng.normal());
  const index_t nf = nt / 2 + 1;
  std::vector<cf32> freq(static_cast<std::size_t>(nf * ntr));
  rfft_batch(std::span<const float>(page), nt, ntr, std::span<cf32>(freq));
  for (index_t tr = 0; tr < ntr; ++tr) {
    std::vector<double> trace(static_cast<std::size_t>(nt));
    for (index_t t = 0; t < nt; ++t) {
      trace[static_cast<std::size_t>(t)] =
          page[static_cast<std::size_t>(tr * nt + t)];
    }
    const auto ref = rfft(std::span<const double>(trace));
    for (index_t k = 0; k < nf; ++k) {
      EXPECT_NEAR(std::abs(static_cast<cf64>(
                      freq[static_cast<std::size_t>(tr * nf + k)]) -
                           ref[static_cast<std::size_t>(k)]),
                  0.0, 1e-3);
    }
  }
}

TEST(RfftBatch, RoundTrip) {
  Rng rng(111);
  const index_t nt = 128, ntr = 7;
  std::vector<float> page(static_cast<std::size_t>(nt * ntr));
  for (auto& v : page) v = static_cast<float>(rng.normal());
  const index_t nf = nt / 2 + 1;
  std::vector<cf32> freq(static_cast<std::size_t>(nf * ntr));
  rfft_batch(std::span<const float>(page), nt, ntr, std::span<cf32>(freq));
  std::vector<float> back(page.size());
  irfft_batch(std::span<const cf32>(freq), nt, ntr, std::span<float>(back));
  for (std::size_t i = 0; i < page.size(); ++i) {
    EXPECT_NEAR(back[i], page[i], 1e-3);
  }
}

TEST(RfftBatch, SizeValidation) {
  std::vector<float> page(64);
  std::vector<cf32> freq(10);
  EXPECT_THROW(
      rfft_batch(std::span<const float>(page), 64, 1, std::span<cf32>(freq)),
      std::invalid_argument);
}

// --- BandDft -------------------------------------------------------------

std::vector<float> random_page(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Unsorted band with both edge bins (1 and nt/2 - 1).
std::vector<index_t> edge_band(index_t nt) {
  return {nt / 2 - 1, 1, 7, 3, nt / 4, 5, nt / 3};
}

class BandDftSizes : public ::testing::TestWithParam<int> {};

TEST_P(BandDftSizes, ForwardMatchesFftPlanAtTheBand) {
  const index_t nt = GetParam();
  const index_t ntr = 11;
  const auto bins = edge_band(nt);
  const BandDft dft(nt, bins);
  const auto page = random_page(nt * ntr, 500 + static_cast<std::uint64_t>(nt));
  std::vector<cf32> band(static_cast<std::size_t>(dft.ldq() * ntr));
  dft.forward(page, ntr, band, 1);
  const index_t nf = nt / 2 + 1;
  std::vector<cf32> full(static_cast<std::size_t>(nf * ntr));
  rfft_batch(std::span<const float>(page), nt, ntr, std::span<cf32>(full));
  for (index_t tr = 0; tr < ntr; ++tr) {
    double norm = 0.0;
    for (index_t t = 0; t < nt; ++t) {
      norm += std::pow(page[static_cast<std::size_t>(tr * nt + t)], 2);
    }
    const double tol = 2e-6 * std::sqrt(norm * static_cast<double>(nt));
    for (std::size_t q = 0; q < bins.size(); ++q) {
      const cf32 got = band[static_cast<std::size_t>(tr * dft.ldq()) + q];
      const cf32 ref = full[static_cast<std::size_t>(tr * nf + bins[q])];
      EXPECT_NEAR(std::abs(static_cast<cf64>(got) - static_cast<cf64>(ref)),
                  0.0, tol)
          << "nt=" << nt << " trace=" << tr << " bin=" << bins[q];
    }
    for (index_t q = dft.num_bins(); q < dft.ldq(); ++q) {
      EXPECT_EQ(band[static_cast<std::size_t>(tr * dft.ldq() + q)], cf32{});
    }
  }
}

TEST_P(BandDftSizes, InverseMatchesIrfftOfTheBandLimitedSpectrum) {
  const index_t nt = GetParam();
  const index_t ntr = 9;
  const auto bins = edge_band(nt);
  const BandDft dft(nt, bins);
  const auto vals =
      random_page(2 * dft.ldq() * ntr, 700 + static_cast<std::uint64_t>(nt));
  std::vector<cf32> band(static_cast<std::size_t>(dft.ldq() * ntr));
  const index_t nf = nt / 2 + 1;
  std::vector<cf32> full(static_cast<std::size_t>(nf * ntr), cf32{});
  for (index_t tr = 0; tr < ntr; ++tr) {
    for (index_t q = 0; q < dft.ldq(); ++q) {
      const auto i = static_cast<std::size_t>(tr * dft.ldq() + q);
      // Padding entries hold garbage: the inverse must never read them.
      band[i] = {vals[2 * i], vals[2 * i + 1]};
      if (q < dft.num_bins()) {
        full[static_cast<std::size_t>(tr * nf) + bins[static_cast<std::size_t>(q)]] =
            band[i];
      }
    }
  }
  std::vector<float> got(static_cast<std::size_t>(nt * ntr));
  std::vector<float> ref(got.size());
  dft.inverse(band, ntr, got, 1);
  irfft_batch(std::span<const cf32>(full), nt, ntr, std::span<float>(ref));
  double scale = 0.0;
  for (const float v : ref) scale = std::max(scale, std::abs(double{v}));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 2e-6 * scale) << "nt=" << nt << " i=" << i;
  }
}

TEST_P(BandDftSizes, InverseIsTheScaledAdjointOfForward) {
  // inverse = (2/nt) forward^T over the real (re, im) band coordinates, so
  // <F x, b> = (nt/2) <x, F^H b> to round-off.
  const index_t nt = GetParam();
  const index_t ntr = 5;
  const BandDft dft(nt, edge_band(nt));
  const auto x = random_page(nt * ntr, 900 + static_cast<std::uint64_t>(nt));
  const auto bvals = random_page(2 * dft.ldq() * ntr, 901);
  std::vector<cf32> b(static_cast<std::size_t>(dft.ldq() * ntr));
  for (std::size_t i = 0; i < b.size(); ++i) {
    const bool live = static_cast<index_t>(i) % dft.ldq() < dft.num_bins();
    b[i] = live ? cf32{bvals[2 * i], bvals[2 * i + 1]} : cf32{};
  }
  std::vector<cf32> fx(b.size());
  std::vector<float> fhb(x.size());
  dft.forward(x, ntr, fx, 1);
  dft.inverse(b, ntr, fhb, 1);
  double lhs = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    lhs += double{fx[i].real()} * b[i].real() + double{fx[i].imag()} * b[i].imag();
  }
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += double{x[i]} * fhb[i];
  rhs *= 0.5 * static_cast<double>(nt);
  EXPECT_NEAR(lhs, rhs, 1e-5 * (std::abs(lhs) + std::abs(rhs)));
}

TEST_P(BandDftSizes, TeamSizeNeverChangesTheBits) {
  const index_t nt = GetParam();
  const index_t ntr = 37;  // 5 ranges of 8 at seven threads, ragged last
  const BandDft dft(nt, edge_band(nt));
  const auto x = random_page(nt * ntr, 1100 + static_cast<std::uint64_t>(nt));
  std::vector<cf32> band1(static_cast<std::size_t>(dft.ldq() * ntr));
  std::vector<float> back1(x.size());
  dft.forward(x, ntr, band1, 1);
  dft.inverse(band1, ntr, back1, 1);
  for (const int team : {2, 4, 7}) {
    std::vector<cf32> band(band1.size());
    std::vector<float> back(back1.size());
    dft.forward(x, ntr, band, team);
    dft.inverse(band1, ntr, back, team);
    EXPECT_EQ(band, band1) << "forward, team " << team;
    EXPECT_EQ(back, back1) << "inverse, team " << team;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BandDftSizes,
                         ::testing::Values(64, 250, 256, 1125));

TEST(BandDft, RejectsDcNyquistAndBadSizes) {
  EXPECT_THROW(BandDft(64, std::vector<index_t>{0}), std::invalid_argument);
  EXPECT_THROW(BandDft(64, std::vector<index_t>{32}), std::invalid_argument);
  EXPECT_THROW(BandDft(64, std::vector<index_t>{}), std::invalid_argument);
  const BandDft dft(64, std::vector<index_t>{3, 5});
  std::vector<float> page(64 * 2);
  std::vector<cf32> band(static_cast<std::size_t>(dft.ldq()));
  EXPECT_THROW(dft.forward(page, 2, band, 1), std::invalid_argument);
  EXPECT_THROW(dft.inverse(band, 2, page, 1), std::invalid_argument);
}

}  // namespace
}  // namespace tlrwse::fft
