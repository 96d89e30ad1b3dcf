#include "tlrwse/fft/band_dft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tlrwse/common/error.hpp"
#include "tlrwse/common/tsan.hpp"

namespace tlrwse::fft {

namespace {

/// sgemv_multi's widest register block: trace ranges are cut on multiples
/// of it so every team member runs full panels.
constexpr index_t kPanel = 8;

[[nodiscard]] index_t round_up(index_t n, index_t m) {
  return (n + m - 1) / m * m;
}

/// Runs body(first, count) over contiguous trace ranges, at most one per
/// member of an OpenMP team of `team` threads (<= 0 = runtime default). The
/// team is forked at its full size even when there are fewer ranges than
/// threads: libgomp reuses a cached team only at an unchanged size, so a
/// size that alternated with the caller's other regions would allocate.
template <class Body>
void split_traces(index_t ntraces, int team, [[maybe_unused]] const void* token,
                  Body body) {
  if (ntraces <= 0) return;
  int threads = team;
#ifdef _OPENMP
  if (threads <= 0) threads = omp_get_max_threads();
#endif
  threads = std::max(threads, 1);
  const index_t chunk =
      round_up((ntraces + threads - 1) / threads, kPanel);
  const index_t nchunks = (ntraces + chunk - 1) / chunk;
  if (nchunks <= 1) {
    body(index_t{0}, ntraces);
    return;
  }
  TLRWSE_TSAN_RELEASE(token);
#pragma omp parallel for num_threads(threads) schedule(static)
  for (index_t c = 0; c < nchunks; ++c) {
    TLRWSE_TSAN_ACQUIRE(token);
    const index_t first = c * chunk;
    body(first, std::min(chunk, ntraces - first));
    TLRWSE_TSAN_RELEASE(token);
  }
  TLRWSE_TSAN_ACQUIRE(token);
}

}  // namespace

BandDft::BandDft(index_t nt, std::span<const index_t> bins,
                 const la::simd::KernelTable* kernels)
    : nt_(nt),
      nq_(static_cast<index_t>(bins.size())),
      kt_(kernels != nullptr ? kernels : &la::simd::dispatch()) {
  TLRWSE_REQUIRE(nt_ >= 3, "BandDft: nt must be at least 3, got ", nt_);
  TLRWSE_REQUIRE(nq_ >= 1, "BandDft: need at least one bin");
  for (const index_t k : bins) {
    TLRWSE_REQUIRE(k > 0 && 2 * k < nt_,
                   "BandDft: bin must exclude DC and Nyquist, got ", k);
  }
  ldq_ = round_up(nq_, 8);
  ldt_ = round_up(nt_, 16);
  const index_t ldb = 2 * ldq_;
  fwd_.assign(static_cast<std::size_t>(ldb * nt_), 0.0f);
  inv_.assign(static_cast<std::size_t>(ldt_ * 2 * nq_), 0.0f);

  // exp(-2 pi i k t / nt) depends only on (k t) mod nt: one double-precision
  // cos/sin per residue, each table entry rounded to fp32 once.
  std::vector<double> cs(static_cast<std::size_t>(nt_));
  std::vector<double> sn(static_cast<std::size_t>(nt_));
  for (index_t m = 0; m < nt_; ++m) {
    const double ang = 2.0 * std::numbers::pi_v<double> *
                       static_cast<double>(m) / static_cast<double>(nt_);
    cs[static_cast<std::size_t>(m)] = std::cos(ang);
    sn[static_cast<std::size_t>(m)] = std::sin(ang);
  }
  const double scale = 2.0 / static_cast<double>(nt_);
  for (index_t q = 0; q < nq_; ++q) {
    const index_t k = bins[static_cast<std::size_t>(q)];
    float* inv_re = inv_.data() + 2 * q * ldt_;
    float* inv_im = inv_re + ldt_;
    for (index_t t = 0; t < nt_; ++t) {
      const auto m = static_cast<std::size_t>((k * t) % nt_);
      fwd_[static_cast<std::size_t>(t * ldb + 2 * q)] =
          static_cast<float>(cs[m]);
      fwd_[static_cast<std::size_t>(t * ldb + 2 * q + 1)] =
          static_cast<float>(-sn[m]);
      inv_re[t] = static_cast<float>(scale * cs[m]);
      inv_im[t] = static_cast<float>(-scale * sn[m]);
    }
  }
}

void BandDft::forward(std::span<const float> time_page, index_t ntraces,
                      std::span<cf32> band_page, int team) const {
  TLRWSE_REQUIRE(ntraces >= 0 &&
                     static_cast<index_t>(time_page.size()) == nt_ * ntraces,
                 "BandDft::forward: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(band_page.size()) == ldq_ * ntraces,
                 "BandDft::forward: output size");
  const index_t ldb = 2 * ldq_;
  const float* x = time_page.data();
  // std::complex<float> arrays are float arrays of (re, im) pairs by the
  // standard's array-oriented access guarantee.
  auto* y = reinterpret_cast<float*>(band_page.data());
  split_traces(ntraces, team, this, [&](index_t first, index_t count) {
    kt_->sgemv_multi(ldb, nt_, fwd_.data(), ldb, x + first * nt_, nt_,
                     y + first * ldb, ldb, count, /*accumulate=*/false);
  });
}

void BandDft::inverse(std::span<const cf32> band_page, index_t ntraces,
                      std::span<float> time_page, int team) const {
  TLRWSE_REQUIRE(ntraces >= 0 &&
                     static_cast<index_t>(band_page.size()) == ldq_ * ntraces,
                 "BandDft::inverse: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(time_page.size()) == nt_ * ntraces,
                 "BandDft::inverse: output size");
  const index_t ldb = 2 * ldq_;
  const auto* x = reinterpret_cast<const float*>(band_page.data());
  float* y = time_page.data();
  split_traces(ntraces, team, this, [&](index_t first, index_t count) {
    kt_->sgemv_multi(nt_, 2 * nq_, inv_.data(), ldt_, x + first * ldb, ldb,
                     y + first * nt_, nt_, count, /*accumulate=*/false);
  });
}

}  // namespace tlrwse::fft
