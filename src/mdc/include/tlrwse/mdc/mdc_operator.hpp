// The Multi-Dimensional Convolution operator y = F^H K F x (Eqn. 2).
//
// x is a time-domain wavefield over receivers (nt x nR, column-major per
// trace), y over sources (nt x nS). Forward: a band-limited DFT
// (fft::BandDft) of every trace at the retained frequency bins only, one
// kernel MVM per retained frequency, and the band-limited inverse back to
// time. F and F^H are each one fp32 multi-RHS GEMM through the la::simd
// kernels over all traces of all RHS; no nt/2+1 spectrum is ever formed.
// The adjoint runs the same pipeline with K^H: with the scaling
// conventions of rfft/irfft (forward unnormalised, inverse (2/nt) Re over a
// band excluding DC and Nyquist) the composition F^H . K^H . F is the
// EXACT real adjoint of F^H . K . F — the (2/nt) factors of the two
// directions cancel identically, so the dot test holds to round-off.
//
// The per-frequency kernel MVMs are independent (each frequency owns its
// own band entry), so the kernel loop runs OpenMP-parallel with one
// FrequencyWorkspace + gather/scatter scratch per thread; the transforms
// split the traces over a team of the same size. All page buffers are
// pooled: after a warm-up apply, repeated applies — the steady state of an
// LSQR/CGLS solve — perform no heap allocation, at any nt.
#pragma once

#include <memory>
#include <vector>

#include "tlrwse/common/workspace_pool.hpp"
#include "tlrwse/fft/band_dft.hpp"
#include "tlrwse/mdc/frequency_mvm.hpp"
#include "tlrwse/mdc/kernel_stream.hpp"
#include "tlrwse/mdc/linear_operator.hpp"

namespace tlrwse::mdc {

class MdcOperator final : public LinearOperator {
 public:
  /// `freq_bins[q]` is the rFFT bin index of kernel q; bins must be
  /// distinct (each kernel owns its bin) and lie strictly between DC and
  /// Nyquist. All kernels must share dimensions. Wraps the kernels in a
  /// one-shard resident stream, so the frequency loop runs as a single
  /// OpenMP region exactly as before streams existed.
  MdcOperator(index_t nt, std::vector<index_t> freq_bins,
              std::vector<std::unique_ptr<FrequencyMvm>> kernels);

  /// Streamed form: kernels arrive shard by shard from `stream` (e.g. an
  /// out-of-core prefetcher). Given the same kernels, results are bitwise
  /// identical to the resident constructor's — each frequency's arithmetic
  /// and rFFT bin never depend on the sharding; only residency timing
  /// differs. The cancel hook of the calling scope is additionally checked
  /// between shards, before each (possibly blocking) acquire.
  MdcOperator(index_t nt, std::vector<index_t> freq_bins,
              std::shared_ptr<KernelStream> stream);

  [[nodiscard]] index_t rows() const override { return nt_ * ns_; }
  [[nodiscard]] index_t cols() const override { return nt_ * nr_; }
  [[nodiscard]] index_t nt() const noexcept { return nt_; }
  [[nodiscard]] index_t num_sources() const noexcept { return ns_; }
  [[nodiscard]] index_t num_receivers() const noexcept { return nr_; }
  [[nodiscard]] index_t num_freqs() const noexcept { return nq_; }

  void apply(std::span<const float> x, std::span<float> y) const override;
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override;

  /// Batched forms: X holds nrhs wavefields back to back (cols() floats
  /// each for apply, rows() for the adjoint), Y the matching outputs.
  /// The transforms cover all RHS in one call, and each frequency kernel
  /// sees all RHS as one multi-RHS panel — one sweep over the operator
  /// data instead of nrhs — which is where coalesced serve requests gain
  /// their throughput. Every RHS column is bitwise identical to the
  /// corresponding single apply.
  void apply_batch(std::span<const float> X, std::span<float> Y,
                   index_t nrhs) const;
  void apply_adjoint_batch(std::span<const float> Y, std::span<float> X,
                           index_t nrhs) const;

  /// Caps the OpenMP team size of the frequency loop and of both
  /// transforms (0 = runtime default). Concurrent top-level applies from
  /// distinct OS threads each spawn their own team; a multi-tenant caller
  /// (the solve service) divides the machine between request workers with
  /// this instead of oversubscribing workers x omp_get_max_threads() ways.
  /// Thread count never changes the results (each frequency owns its band
  /// entry, each trace is one GEMM column), only the schedule.
  void set_inner_threads(int n) noexcept { inner_threads_ = n < 0 ? 0 : n; }
  [[nodiscard]] int inner_threads() const noexcept { return inner_threads_; }

 private:
  /// Per-thread scratch of the frequency loop: the gathered per-frequency
  /// input/output panels plus the kernel backend's workspace.
  struct FreqScratch {
    std::vector<cf32> in;   // nin x nrhs panel at one frequency
    std::vector<cf32> out;  // nout x nrhs panel at one frequency
    FrequencyWorkspace kernel;
  };
  /// Per-call scratch of one sweep: the input and output band pages, one
  /// row of dft_.ldq() cf32 per trace (trace r * n + i of RHS r). Pooled
  /// per calling thread so concurrent top-level applies of one operator
  /// stay independent.
  struct PageScratch {
    std::vector<cf32> in_band;   // nin * nrhs rows
    std::vector<cf32> out_band;  // nout * nrhs rows
  };

  /// The one body behind all four public apply forms: the band DFT of all
  /// RHS, the kernel sweep, the inverse band DFT. Records the `span` trace
  /// span and the mdc.* timers and counters.
  void sweep(const char* span, bool adjoint, std::span<const float> in,
             std::span<float> out, index_t nrhs) const;
  /// One ascending pass over the stream's shards, each shard an OpenMP
  /// region over its frequencies doing gather / apply_panel / scatter from
  /// ps.in_band into ps.out_band. Polls the calling scope's cancel hook
  /// between MVMs and between shards; throws CancelledError on
  /// cancellation and rethrows the stream's typed error on a failed
  /// acquire.
  void kernel_sweep(PageScratch& ps, bool adjoint, index_t nrhs) const;

  index_t nt_ = 0;
  index_t ns_ = 0;  // kernel rows (sources)
  index_t nr_ = 0;  // kernel cols (receivers)
  index_t nq_ = 0;  // retained frequencies
  int inner_threads_ = 0;  // 0 = OpenMP runtime default team size
  std::shared_ptr<KernelStream> stream_;
  fft::BandDft dft_;  // F / F^H over the kernels' bins, shared by applies
  WorkspacePool<FreqScratch> freq_scratch_;
  WorkspacePool<PageScratch> page_scratch_;
};

}  // namespace tlrwse::mdc
