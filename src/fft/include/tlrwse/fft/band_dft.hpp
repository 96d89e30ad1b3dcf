// Band-limited real DFT: the F / F^H pair of the MDC equation
// y = F^H K F x (Eqn. 2), evaluated only at the retained frequency bins.
//
// K exists only at the nq retained bins, so F only has to produce those
// bins and F^H only has to read them. Both directions are one fp32
// multi-RHS GEMM through the la::simd kernels, with every trace a
// right-hand side:
//
//   forward  band[q] = sum_t x[t] exp(-2 pi i k_q t / nt)      (T x)
//   inverse  x[t]    = (2/nt) sum_q Re(band[q] exp(+2 pi i k_q t / nt))
//
// T holds (cos, -sin) row pairs, one per bin, padded with zero rows to a
// multiple of 16 floats; the inverse table is (2/nt) T^T over the 2 nq live
// columns only. The scaling matches rfft_batch / irfft_batch restricted to
// a band that excludes DC and Nyquist, so irfft . K^H . rfft stays the
// exact real adjoint of irfft . K . rfft up to round-off.
//
// Cost: 2 nq nt fused multiply-adds per trace and direction, against
// O(nt log nt) for a full-length FFT; the GEMM wins while nq is a small
// share of nt/2 (see DESIGN.md, "MDC transform").
//
// Every trace is one column of sgemv_multi, which is bitwise equal to its
// single-RHS form on every SIMD tier, so splitting the traces across any
// team size leaves the results bitwise unchanged. forward/inverse never
// allocate.
#pragma once

#include <span>
#include <vector>

#include "tlrwse/common/aligned.hpp"
#include "tlrwse/common/types.hpp"
#include "tlrwse/la/simd.hpp"

namespace tlrwse::fft {

class BandDft {
 public:
  /// `bins[q]` is the rFFT bin of band entry q (any order); every bin must
  /// lie strictly between DC and Nyquist (0 < bin, 2 bin < nt). `kernels`
  /// selects the SIMD tier (nullptr = la::simd::dispatch()).
  BandDft(index_t nt, std::span<const index_t> bins,
          const la::simd::KernelTable* kernels = nullptr);

  [[nodiscard]] index_t num_bins() const noexcept { return nq_; }
  /// cf32 stride of one trace's row in a band page (nq rounded up to 8);
  /// entries q >= num_bins() are padding.
  [[nodiscard]] index_t ldq() const noexcept { return ldq_; }

  /// F: `time_page` holds ntraces traces of nt floats back to back;
  /// `band_page` receives ntraces rows of ldq() cf32 (padding entries are
  /// written as zero). `team` is the OpenMP team size the traces are split
  /// across (<= 0 = the runtime default).
  void forward(std::span<const float> time_page, index_t ntraces,
               std::span<cf32> band_page, int team) const;
  /// F^H: reads the num_bins() live entries of each band row and writes
  /// ntraces traces of nt floats; padding entries are never read.
  void inverse(std::span<const cf32> band_page, index_t ntraces,
               std::span<float> time_page, int team) const;

 private:
  using Table = std::vector<float, AlignedAllocator<float>>;

  index_t nt_ = 0;
  index_t nq_ = 0;
  index_t ldq_ = 0;   // band row stride in cf32; 2 ldq_ rows in fwd_
  index_t ldt_ = 0;   // column stride of inv_ (nt rounded up to 16)
  Table fwd_;         // (2 ldq_) x nt, column-major: (cos, -sin) per bin
  Table inv_;         // ldt_ x (2 nq_), column-major: (2/nt) fwd_^T
  const la::simd::KernelTable* kt_;
};

}  // namespace tlrwse::fft
