#include "tlrwse/mdc/mdc_operator.hpp"

#include <algorithm>
#include <atomic>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tlrwse/common/error.hpp"
#include "tlrwse/common/timer.hpp"
#include "tlrwse/common/tsan.hpp"
#include "tlrwse/mdc/cancellation.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/tracer.hpp"

namespace tlrwse::mdc {

namespace {
/// Team size for the frequency loop: the caller's cap, or the runtime
/// default when uncapped.
inline int freq_team_size(int cap) {
#ifdef _OPENMP
  return cap > 0 ? cap : omp_get_max_threads();
#else
  (void)cap;
  return 1;
#endif
}

/// Registry handles for the always-on apply metrics; the per-frequency
/// histogram is recorded only while a trace is being captured, so the
/// steady-state cost per apply is three timer pairs and a few sharded adds.
struct ApplyMetrics {
  obs::Counter& applies;
  obs::Counter& adjoints;
  obs::Histogram& apply_s;
  obs::Histogram& fft_s;
  obs::Histogram& kernel_loop_s;
  obs::Histogram& freq_mvm_s;

  static ApplyMetrics& instance() {
    static ApplyMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      return ApplyMetrics{reg.counter("mdc.applies"),
                          reg.counter("mdc.adjoints"),
                          reg.histogram("mdc.apply_s"),
                          reg.histogram("mdc.fft_s"),
                          reg.histogram("mdc.kernel_loop_s"),
                          reg.histogram("mdc.freq_mvm_s")};
    }();
    return m;
  }
};

/// Validates and wraps resident kernels into the degenerate one-shard
/// stream behind the classic constructor.
std::shared_ptr<KernelStream> make_resident_stream(
    std::vector<std::unique_ptr<FrequencyMvm>> kernels) {
  TLRWSE_REQUIRE(!kernels.empty(), "need at least one frequency kernel");
  auto stream = std::make_shared<ResidentKernelStream>(std::move(kernels));
  const auto& ks = stream->kernels();
  const index_t ns = ks.front()->rows();
  const index_t nr = ks.front()->cols();
  for (std::size_t q = 0; q < ks.size(); ++q) {
    TLRWSE_REQUIRE(ks[q] != nullptr, "null kernel at frequency ", q);
    TLRWSE_REQUIRE(ks[q]->rows() == ns && ks[q]->cols() == nr,
                   "kernel dimension mismatch at frequency ", q);
  }
  return stream;
}
}  // namespace

MdcOperator::MdcOperator(index_t nt, std::vector<index_t> freq_bins,
                         std::vector<std::unique_ptr<FrequencyMvm>> kernels)
    : MdcOperator(nt, std::move(freq_bins),
                  make_resident_stream(std::move(kernels))) {}

MdcOperator::MdcOperator(index_t nt, std::vector<index_t> freq_bins,
                         std::shared_ptr<KernelStream> stream)
    : nt_(nt), stream_(std::move(stream)), dft_(nt, freq_bins) {
  TLRWSE_REQUIRE(nt_ >= 4, "nt too small");
  TLRWSE_REQUIRE(stream_ != nullptr, "null kernel stream");
  nq_ = stream_->num_freqs();
  TLRWSE_REQUIRE(nq_ >= 1, "need at least one frequency kernel");
  TLRWSE_REQUIRE(static_cast<index_t>(freq_bins.size()) == nq_,
                 "bins/kernels count mismatch");
  ns_ = stream_->rows();
  nr_ = stream_->cols();
  TLRWSE_REQUIRE(ns_ > 0 && nr_ > 0, "kernel stream with empty dimensions");
  const index_t nshards = stream_->num_shards();
  TLRWSE_REQUIRE(nshards >= 1, "kernel stream with no shards");
  index_t expect = 0;
  for (index_t s = 0; s < nshards; ++s) {
    const auto [b, e] = stream_->shard_range(s);
    TLRWSE_REQUIRE(b == expect && e > b,
                   "kernel stream shards must partition the frequency "
                   "range in ascending order (shard ",
                   s, " covers [", b, ", ", e, "))");
    expect = e;
  }
  TLRWSE_REQUIRE(expect == nq_, "kernel stream shards do not cover all ", nq_,
                 " frequencies");
  // dft_ holds its own tables, so the by-value bins may be sorted here.
  std::sort(freq_bins.begin(), freq_bins.end());
  TLRWSE_REQUIRE(std::adjacent_find(freq_bins.begin(), freq_bins.end()) ==
                     freq_bins.end(),
                 "frequency bins must be distinct");
}

void MdcOperator::kernel_sweep(PageScratch& ps, bool adjoint,
                               index_t nrhs) const {
  [[maybe_unused]] const int team = freq_team_size(inner_threads_);
  const index_t ldq = dft_.ldq();
  const index_t nin = adjoint ? ns_ : nr_;
  const index_t nout = adjoint ? nr_ : ns_;
  const std::span<const cf32> in_band(ps.in_band);
  const std::span<cf32> out_band(ps.out_band);
  const bool trace_freqs = obs::Tracer::detail_enabled();
  ApplyMetrics& met = ApplyMetrics::instance();
  // Captured once: the hook lives on the calling thread, but every team
  // member polls it between MVMs so a deadline hit stops the whole batch.
  const CancelScope::Hook* const cancel = CancelScope::current();
  std::atomic<bool> cancelled{false};
  KernelStream& stream = *stream_;
  const index_t nshards = stream.num_shards();
  stream.begin_sweep();
  // end_sweep must run exactly once even when an acquire throws (stream
  // failure or deadline during a stall).
  struct SweepGuard {
    KernelStream& s;
    ~SweepGuard() { s.end_sweep(); }
  } guard{stream};
  for (index_t sh = 0; sh < nshards; ++sh) {
    // should_stop between shards: a deadline that fired during the last
    // shard is honoured before the next (possibly blocking) acquire.
    if (cancel != nullptr && (*cancel)()) throw CancelledError();
    const auto [q_begin, q_end] = stream.shard_range(sh);
    const std::span<FrequencyMvm* const> kernels = stream.acquire_shard(sh);
    TLRWSE_TSAN_RELEASE(&ps);
#pragma omp parallel num_threads(team)
    {
      TLRWSE_TSAN_ACQUIRE(&ps);
#pragma omp for schedule(static)
      for (index_t q = q_begin; q < q_end; ++q) {
        if (cancel != nullptr) {
          if (cancelled.load(std::memory_order_relaxed)) continue;
          if ((*cancel)()) {
            cancelled.store(true, std::memory_order_relaxed);
            continue;
          }
        }
        // Gather an nin x nrhs panel at band entry q, one multi-RHS
        // kernel call, scatter back. Each frequency reads and writes only
        // its own band entry, so the loop needs no shared state beyond
        // per-thread scratch.
        const std::uint64_t t0 = trace_freqs ? obs::Tracer::now_ns() : 0;
        FreqScratch& fs = freq_scratch_.local();
        fs.in.resize(static_cast<std::size_t>(nin * nrhs));
        fs.out.resize(static_cast<std::size_t>(nout * nrhs));
        for (index_t i = 0; i < nin * nrhs; ++i) {
          fs.in[static_cast<std::size_t>(i)] =
              in_band[static_cast<std::size_t>(i * ldq + q)];
        }
        kernels[static_cast<std::size_t>(q - q_begin)]->apply_panel(
            adjoint, fs.in, fs.out, nrhs, fs.kernel);
        for (index_t o = 0; o < nout * nrhs; ++o) {
          out_band[static_cast<std::size_t>(o * ldq + q)] =
              fs.out[static_cast<std::size_t>(o)];
        }
        if (trace_freqs) {
          const std::uint64_t dur = obs::Tracer::now_ns() - t0;
          obs::Tracer::instance().complete("mdc.freq_mvm", "mdc", t0, dur);
          met.freq_mvm_s.record(static_cast<double>(dur) * 1e-9);
        }
      }
      TLRWSE_TSAN_RELEASE(&ps);
    }
    TLRWSE_TSAN_ACQUIRE(&ps);
    stream.release_shard(sh);
    if (cancelled.load(std::memory_order_relaxed)) break;
  }
  if (cancelled.load(std::memory_order_relaxed)) throw CancelledError();
}

void MdcOperator::sweep(const char* span, bool adjoint,
                        std::span<const float> in, std::span<float> out,
                        index_t nrhs) const {
  TLRWSE_TRACE_SPAN(span, "mdc");
  ApplyMetrics& met = ApplyMetrics::instance();
  (adjoint ? met.adjoints : met.applies).add(static_cast<std::uint64_t>(nrhs));
  WallTimer apply_timer;
  TLRWSE_REQUIRE(nrhs >= 1, "nrhs");
  // Per RHS: nin input traces (receivers forward, sources adjoint) in,
  // nout traces out.
  const index_t nin = adjoint ? ns_ : nr_;
  const index_t nout = adjoint ? nr_ : ns_;
  TLRWSE_REQUIRE(static_cast<index_t>(in.size()) == nt_ * nin * nrhs,
                 "input size");
  TLRWSE_REQUIRE(static_cast<index_t>(out.size()) == nt_ * nout * nrhs,
                 "output size");
  const int team = freq_team_size(inner_threads_);
  PageScratch& ps = page_scratch_.local();
  ps.in_band.resize(static_cast<std::size_t>(dft_.ldq() * nin * nrhs));
  ps.out_band.resize(static_cast<std::size_t>(dft_.ldq() * nout * nrhs));

  // F: the retained bins of every input trace of every RHS, one GEMM.
  {
    TLRWSE_TRACE_SPAN("mdc.fft_forward", "mdc");
    WallTimer fft_timer;
    dft_.forward(in, nin * nrhs, ps.in_band, team);
    met.fft_s.record(fft_timer.seconds());
  }

  // K or K^H: per-frequency kernel MVMs from one band page into the other.
  {
    TLRWSE_TRACE_SPAN("mdc.kernel_loop", "mdc");
    WallTimer kernel_timer;
    kernel_sweep(ps, adjoint, nrhs);
    met.kernel_loop_s.record(kernel_timer.seconds());
  }

  // F^H: the band back to time, reading only the retained bins.
  {
    TLRWSE_TRACE_SPAN("mdc.fft_inverse", "mdc");
    WallTimer fft_timer;
    dft_.inverse(ps.out_band, nout * nrhs, out, team);
    met.fft_s.record(fft_timer.seconds());
  }
  met.apply_s.record(apply_timer.seconds());
}

void MdcOperator::apply(std::span<const float> x, std::span<float> y) const {
  sweep("mdc.apply", false, x, y, 1);
}

void MdcOperator::apply_adjoint(std::span<const float> y,
                                std::span<float> x) const {
  sweep("mdc.apply_adjoint", true, y, x, 1);
}

void MdcOperator::apply_batch(std::span<const float> X, std::span<float> Y,
                              index_t nrhs) const {
  sweep("mdc.apply_batch", false, X, Y, nrhs);
}

void MdcOperator::apply_adjoint_batch(std::span<const float> Y,
                                      std::span<float> X,
                                      index_t nrhs) const {
  sweep("mdc.apply_adjoint_batch", true, Y, X, nrhs);
}

}  // namespace tlrwse::mdc
