#include "ladder.hpp"

#include <algorithm>
#include <cmath>

#include "tlrwse/common/aligned.hpp"
#include "tlrwse/fft/fft.hpp"
#include "tlrwse/la/half.hpp"
#include "tlrwse/la/simd.hpp"
#include "tlrwse/mdc/frequency_mvm.hpp"
#include "tlrwse/obs/metrics_registry.hpp"

namespace pb {

namespace ti = tlrwse;
namespace simd = tlrwse::la::simd;

void TimedOperator::apply(std::span<const float> x,
                          std::span<float> y) const {
  Scope span("mdc.apply", request);
  const double t0 = now_s();
  inner_.apply(x, y);
  apply_s += now_s() - t0;
  ++applies;
}

void TimedOperator::apply_adjoint(std::span<const float> y,
                                  std::span<float> x) const {
  Scope span("mdc.adjoint", request);
  const double t0 = now_s();
  inner_.apply_adjoint(y, x);
  adjoint_s += now_s() - t0;
  ++adjoints;
}

ti::mdd::LsqrConfig fixed_lsqr(int iters) {
  ti::mdd::LsqrConfig cfg;
  cfg.max_iters = iters;
  cfg.atol = 0.0;
  cfg.btol = 0.0;
  return cfg;
}

HistTotals hist_totals(const std::string& name) {
  const auto snap =
      ti::obs::MetricsRegistry::instance().histogram(name).snapshot();
  return {snap.sum, snap.count};
}

namespace {

using AlignedF = std::vector<float, ti::AlignedAllocator<float>>;
using Aligned16 = std::vector<std::uint16_t, ti::AlignedAllocator<std::uint16_t>>;

index_t pad16(index_t m) { return (m + 15) / 16 * 16; }

/// The archive's tile factors restacked the way the plan stacks them: per
/// tile column the concatenated Vh blocks (rank_sum x tile_cols), per tile
/// row the concatenated U blocks (tile_rows x rank_sum), split into real
/// and imaginary planes, plus bf16-packed copies of the same planes.
struct Panels {
  struct Panel {
    std::size_t off;
    index_t m, n, lda;
  };
  std::vector<Panel> list;
  AlignedF re, im;
  Aligned16 re16, im16;
  index_t max_m = 0, max_n = 0;
  double bytes = 0.0;  // logical fp32 plane bytes (re + im)
};

Panels build_panels(const ti::io::KernelArchive& ar) {
  Panels p;
  std::size_t total = 0;
  const auto add = [&](index_t m, index_t n) {
    if (m == 0 || n == 0) return;
    const index_t lda = pad16(m);
    p.list.push_back({total, m, n, lda});
    total += static_cast<std::size_t>(lda * n);
    p.max_m = std::max(p.max_m, m);
    p.max_n = std::max(p.max_n, n);
    p.bytes += 8.0 * static_cast<double>(m * n);
  };
  for (const auto& K : ar.kernels) {
    const auto& g = K.grid();
    for (index_t j = 0; j < g.nt(); ++j) {
      index_t rs = 0;
      for (index_t i = 0; i < g.mt(); ++i) rs += K.rank(i, j);
      add(rs, g.tile_cols(j));
    }
    for (index_t i = 0; i < g.mt(); ++i) {
      index_t rs = 0;
      for (index_t j = 0; j < g.nt(); ++j) rs += K.rank(i, j);
      add(g.tile_rows(i), rs);
    }
  }
  p.re.assign(total, 0.0f);
  p.im.assign(total, 0.0f);
  std::size_t next = 0;
  const auto put = [&](std::size_t at, index_t r, index_t c, index_t lda,
                       ti::cf32 v) {
    const std::size_t idx = at + static_cast<std::size_t>(c * lda + r);
    p.re[idx] = v.real();
    p.im[idx] = v.imag();
  };
  for (const auto& K : ar.kernels) {
    const auto& g = K.grid();
    for (index_t j = 0; j < g.nt(); ++j) {
      index_t rs = 0;
      for (index_t i = 0; i < g.mt(); ++i) rs += K.rank(i, j);
      if (rs == 0 || g.tile_cols(j) == 0) continue;
      const Panels::Panel& pan = p.list[next++];
      index_t r0 = 0;
      for (index_t i = 0; i < g.mt(); ++i) {
        const auto& Vh = K.tile(i, j).Vh;
        for (index_t c = 0; c < Vh.cols(); ++c) {
          for (index_t r = 0; r < Vh.rows(); ++r) {
            put(pan.off, r0 + r, c, pan.lda, Vh(r, c));
          }
        }
        r0 += Vh.rows();
      }
    }
    for (index_t i = 0; i < g.mt(); ++i) {
      index_t rs = 0;
      for (index_t j = 0; j < g.nt(); ++j) rs += K.rank(i, j);
      if (rs == 0 || g.tile_rows(i) == 0) continue;
      const Panels::Panel& pan = p.list[next++];
      index_t c0 = 0;
      for (index_t j = 0; j < g.nt(); ++j) {
        const auto& U = K.tile(i, j).U;
        for (index_t c = 0; c < U.cols(); ++c) {
          for (index_t r = 0; r < U.rows(); ++r) {
            put(pan.off, r, c0 + c, pan.lda, U(r, c));
          }
        }
        c0 += U.cols();
      }
    }
  }
  p.re16.resize(total);
  p.im16.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    p.re16[i] = ti::la::f32_to_bf16_bits(p.re[i]);
    p.im16[i] = ti::la::f32_to_bf16_bits(p.im[i]);
  }
  return p;
}

/// One timed pass over every panel, OpenMP-parallel across panels.
double gemv_pass(const Panels& p, bool half) {
  const simd::KernelTable& k = simd::dispatch();
  const double t0 = now_s();
#pragma omp parallel
  {
    AlignedF xr(static_cast<std::size_t>(pad16(p.max_n)), 0.5f);
    AlignedF xi(xr.size(), -0.25f);
    AlignedF yr(static_cast<std::size_t>(pad16(p.max_m)));
    AlignedF yi(yr.size());
#pragma omp for schedule(dynamic, 4)
    for (std::size_t t = 0; t < p.list.size(); ++t) {
      const Panels::Panel& pan = p.list[t];
      if (half) {
        k.hgemv_split_multi(ti::la::HalfFormat::kBf16, pan.m, pan.n,
                            p.re16.data() + pan.off, p.im16.data() + pan.off,
                            pan.lda, xr.data(), xi.data(), pan.n, yr.data(),
                            yi.data(), pan.m, 1, false);
      } else {
        k.sgemv_split(pan.m, pan.n, p.re.data() + pan.off,
                      p.im.data() + pan.off, pan.lda, xr.data(), xi.data(),
                      yr.data(), yi.data(), false);
      }
    }
  }
  return now_s() - t0;
}

/// Median time of `reps` passes of `pass`; working sets under twice the
/// LLC are flushed before each pass so the bytes come from DRAM.
template <typename F>
double timed_passes(double bytes, int reps, F&& pass) {
  const bool cold = bytes < 2.0 * static_cast<double>(llc_bytes());
  std::vector<double> t;
  pass();  // warm-up: first touch, page faults, workspace growth
  for (int r = 0; r < reps; ++r) {
    if (cold) flush_llc();
    t.push_back(pass());
  }
  return median(t);
}

/// Same shape as the wrapped operator. While recording it applies the
/// wrapped operator and keeps every output; after replay() it hands the
/// outputs back in order at the cost of one copy each. LSQR over the replay
/// follows the recorded trajectory without doing any operator work, so its
/// time is LSQR's own vector work, measured apart from the span arithmetic.
class ReplayOperator final : public ti::mdc::LinearOperator {
 public:
  explicit ReplayOperator(const ti::mdc::LinearOperator& inner)
      : inner_(inner) {}
  [[nodiscard]] index_t rows() const override { return inner_.rows(); }
  [[nodiscard]] index_t cols() const override { return inner_.cols(); }
  void apply(std::span<const float> x, std::span<float> y) const override {
    if (recording_) inner_.apply(x, y);
    step(y);
  }
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override {
    if (recording_) inner_.apply_adjoint(y, x);
    step(x);
  }
  void replay() {
    recording_ = false;
    next_ = 0;
  }

 private:
  void step(std::span<float> out) const {
    if (recording_) {
      outputs_.emplace_back(out.begin(), out.end());
      return;
    }
    const std::vector<float>& v = outputs_.at(next_++);
    std::copy(v.begin(), v.end(), out.begin());
  }
  const ti::mdc::LinearOperator& inner_;
  bool recording_ = true;
  mutable std::size_t next_ = 0;
  mutable std::vector<std::vector<float>> outputs_;
};

double pct(double gbps, double triad) {
  return triad > 0.0 ? 100.0 * gbps / triad : 0.0;
}

}  // namespace

void ladder_la(const ti::io::KernelArchive& tiles, double triad_gbps,
               bool smoke, Outcome& out) {
  const Panels p = build_panels(tiles);
  const int reps = smoke ? 3 : 7;
  const double t32 =
      timed_passes(p.bytes, reps, [&] { return gemv_pass(p, false); });
  const double t16 =
      timed_passes(p.bytes / 2.0, reps, [&] { return gemv_pass(p, true); });
  const double g32 = p.bytes / t32 * 1e-9;
  const double g16 = 0.5 * p.bytes / t16 * 1e-9;
  out.metrics.add("la.split_gemv_gbps", g32, "GB/s");
  out.metrics.add("la.pct_of_triad", pct(g32, triad_gbps), "%");
  out.metrics.add("la.half_gemv_gbps", g16, "GB/s");
  out.metrics.add("la.half_pct_of_triad", pct(g16, triad_gbps), "%");
}

void ladder_operator(const LadderInput& in, Outcome& out) {
  if (in.tiles != nullptr) ladder_la(*in.tiles, in.triad_gbps, in.smoke, out);
  const CompiledOperator& c = *in.op;
  const ti::mdc::MdcOperator& op = *c.op;
  const index_t nt = op.nt();
  const index_t ns = op.num_sources();
  const index_t nr = op.num_receivers();
  const int reps = in.smoke ? 3 : 7;

  // tlr: one sweep over every frequency's plan, parallel across
  // frequencies like the MDC kernel loop.
  const auto plan_sweep = [&](bool adjoint) {
    const double t0 = now_s();
#pragma omp parallel
    {
      ti::mdc::FrequencyWorkspace ws;
      std::vector<ti::cf32> x(static_cast<std::size_t>(std::max(ns, nr)),
                              ti::cf32{0.5f, -0.25f});
      std::vector<ti::cf32> y(x.size());
#pragma omp for schedule(dynamic, 1)
      for (std::size_t q = 0; q < c.kernels.size(); ++q) {
        const ti::mdc::FrequencyMvm& k = *c.kernels[q];
        if (adjoint) {
          k.apply_adjoint(std::span<const ti::cf32>(x.data(), ns),
                          std::span<ti::cf32>(y.data(), nr), ws);
        } else {
          k.apply(std::span<const ti::cf32>(x.data(), nr),
                  std::span<ti::cf32>(y.data(), ns), ws);
        }
      }
    }
    return now_s() - t0;
  };
  const double tp =
      timed_passes(c.plan_bytes, reps, [&] { return plan_sweep(false); });
  const double ta =
      timed_passes(c.plan_bytes, reps, [&] { return plan_sweep(true); });
  const double plan_gbps = c.plan_bytes / (0.5 * (tp + ta)) * 1e-9;
  out.metrics.add("tlr.plan_apply_s", tp, "s");
  out.metrics.add("tlr.plan_adjoint_s", ta, "s");
  out.metrics.add("tlr.plan_bytes", c.plan_bytes, "bytes");
  out.metrics.add("tlr.plan_gbps", plan_gbps, "GB/s");
  out.metrics.add("tlr.plan_pct_of_triad", pct(plan_gbps, in.triad_gbps), "%");

  // fft: the forward transform of a receiver page and the inverse onto a
  // source page, as one apply does them.
  {
    const ti::fft::FftPlan plan(nt);
    ti::fft::BatchWorkspace ws;
    const index_t nf = nt / 2 + 1;
    std::vector<float> xin(static_cast<std::size_t>(nt * nr));
    for (std::size_t i = 0; i < xin.size(); ++i) {
      xin[i] = std::sin(0.37f * static_cast<float>(i));
    }
    std::vector<ti::cf32> spec(static_cast<std::size_t>(nf * std::max(ns, nr)));
    std::vector<float> yout(static_cast<std::size_t>(nt * ns));
    const auto batch = [&] {
      const double t0 = now_s();
      ti::fft::rfft_batch(plan, xin, nr,
                          std::span<ti::cf32>(spec.data(), nf * nr), ws);
      ti::fft::irfft_batch(plan, std::span<const ti::cf32>(spec.data(), nf * ns),
                           ns, yout, ws);
      return now_s() - t0;
    };
    batch();
    std::vector<double> t;
    for (int r = 0; r < 3 * reps; ++r) t.push_back(batch());
    const double bs = median(t);
    out.metrics.add("fft.batch_s", bs, "s");
    out.metrics.add("fft.mpoints_per_s",
                    static_cast<double>(nt * (nr + ns)) / bs * 1e-6, "Mpt/s");
  }

  // mdc + mdd: fixed-iteration LSQR over the decorated operator, with the
  // program's own mdc.* histograms read around it. The first replay warms
  // pools and pages and is not counted.
  const ti::mdd::LsqrConfig cfg = fixed_lsqr(in.lsqr_iters);
  (void)ti::mdd::lsqr_solve(op, in.rhs, cfg);
  Tracer::get().clear();
  const HistTotals fft0 = hist_totals("mdc.fft_s");
  const HistTotals ker0 = hist_totals("mdc.kernel_loop_s");
  TimedOperator timed(op, 0);
  double lsqr_s = 0.0;
  int iterations = 0;
  const int replays = std::max(1, in.lsqr_reps);
  for (int r = 0; r < replays; ++r) {
    timed.request = static_cast<std::uint64_t>(r + 1);
    const double t0 = now_s();
    {
      Scope span("mdd.lsqr", timed.request);
      iterations += ti::mdd::lsqr_solve(timed, in.rhs, cfg).iterations;
    }
    lsqr_s += now_s() - t0;
  }
  const HistTotals fft1 = hist_totals("mdc.fft_s");
  const HistTotals ker1 = hist_totals("mdc.kernel_loop_s");
  const auto per = [](double total, double n) {
    return n > 0 ? total / n : 0.0;
  };
  const double n_ops = static_cast<double>(timed.applies + timed.adjoints);
  const double op_per = per(timed.apply_s + timed.adjoint_s, n_ops);
  const double fft_per = per(fft1.sum - fft0.sum, n_ops);
  const double ker_per = per(ker1.sum - ker0.sum, n_ops);
  const index_t nf = nt / 2 + 1;
  const double page_bytes = 4.0 * static_cast<double>(nt * (ns + nr)) +
                            16.0 * static_cast<double>(nf * (ns + nr));
  const double apply_gbps = per((c.plan_bytes + page_bytes) * 1e-9, op_per);
  out.metrics.add("mdc.apply_s",
                  per(timed.apply_s, static_cast<double>(timed.applies)), "s");
  out.metrics.add("mdc.adjoint_s",
                  per(timed.adjoint_s, static_cast<double>(timed.adjoints)),
                  "s");
  out.metrics.add("mdc.fft_s", fft_per, "s");
  out.metrics.add("mdc.kernel_loop_s", ker_per, "s");
  out.metrics.add("mdc.apply_gbps", apply_gbps, "GB/s");
  out.metrics.add("mdc.apply_pct_of_triad", pct(apply_gbps, in.triad_gbps),
                  "%");
  out.metrics.add("mdc.closure_err", per(op_per - fft_per - ker_per, op_per),
                  "ratio");
  out.metrics.add("fft.share_of_apply", per(fft_per, op_per), "ratio");

  // LSQR's own work, measured on its own: the same solve replayed over
  // recorded operator outputs.
  ReplayOperator replay(op);
  (void)ti::mdd::lsqr_solve(replay, in.rhs, cfg);
  std::vector<double> replay_s;
  for (int r = 0; r < replays; ++r) {
    replay.replay();
    const double t0 = now_s();
    (void)ti::mdd::lsqr_solve(replay, in.rhs, cfg);
    replay_s.push_back(now_s() - t0);
  }

  std::size_t nspans = 0;
  const double self_s = Tracer::get().self_time("mdd.lsqr", &nspans);
  const double n = static_cast<double>(replays);
  const double lsqr_per = lsqr_s / n;
  const double self_per = per(self_s, static_cast<double>(nspans));
  const double replay_per = median(replay_s);
  const double applies_per = (timed.apply_s + timed.adjoint_s) / n;
  out.metrics.add("mdd.iter_s", per(lsqr_s, static_cast<double>(iterations)),
                  "s");
  out.metrics.add("mdd.self_s", self_per, "s");
  out.metrics.add("mdd.self_replay_s", replay_per, "s");
  out.metrics.add("mdd.iterations", static_cast<double>(iterations) / n,
                  "count");
  out.metrics.add("mdd.closure_err",
                  per(lsqr_per - applies_per - replay_per, lsqr_per), "ratio");
}

void report_bypassed(Report& r, std::initializer_list<Layer> layers) {
  using Metric = std::pair<const char*, const char*>;
  static const std::vector<Metric> kOocache = {
      {"oocache.stall_s", "s"}, {"oocache.stall_share", "ratio"}};
  static const std::vector<Metric> kServe = {
      {"serve.queue_wait_p50_s", "s"}, {"serve.queue_wait_tail_s", "s"},
      {"serve.batch_size_mean", "count"}, {"serve.coalesce_ratio", "ratio"},
      {"serve.multi_rhs_ratio", "ratio"}, {"serve.cache_hit_rate", "ratio"},
      {"serve.rejected", "count"}, {"serve.gen_late_s", "s"}};
  static const std::vector<Metric> kCluster = {
      {"cluster.rpc_s", "s"}, {"cluster.worker_compute_s", "s"},
      {"cluster.transport_s", "s"}, {"cluster.wire_bytes_per_req", "bytes"},
      {"cluster.rpcs_per_req", "count"}, {"cluster.gather_scatter_s", "s"},
      {"cluster.shard_imbalance", "ratio"}, {"cluster.wire_s", "s"},
      {"cluster.dispatch_s", "s"}, {"cluster.worker_queue_s", "s"},
      {"cluster.closure_err", "ratio"}};
  for (const Layer l : layers) {
    const std::vector<Metric>& list = l == Layer::kOocache ? kOocache
                                      : l == Layer::kServe ? kServe
                                                           : kCluster;
    for (const auto& [name, unit] : list) r.add(name, 0.0, unit);
  }
}

void report_host(const HostCeilings& h, Report& r) {
  r.add("host.triad_gbps", h.triad_gbps, "GB/s");
  r.add("host.fma_gflops", h.fma_gflops, "GFLOP/s");
  r.add("host.triad_array_mb", h.triad_array_mb, "MB");
  r.add("host.llc_mb", h.llc_mb, "MB");
}

void check_ratios(Outcome& out) {
  for (const char* name : {"la.pct_of_triad", "la.half_pct_of_triad",
                           "tlr.plan_pct_of_triad", "mdc.apply_pct_of_triad"}) {
    const double v = out.metrics.get(name);
    out.check(v <= 100.0, std::string(name) + " = " + std::to_string(v) +
                              " exceeds 100% of the same-run triad");
  }
  for (const char* name :
       {"mdc.closure_err", "mdd.closure_err", "cluster.closure_err"}) {
    const double v = out.metrics.get(name);
    out.check(std::abs(v) <= kClosureBound,
              std::string(name) + " = " + std::to_string(v) +
                  " exceeds the closure bound");
  }
}

}  // namespace pb
