// mdd_dram: the paper's memory-wall regime on the host. One caller sends
// back-to-back fixed-iteration LSQR solves straight into mdd::lsqr_solve
// over a resident MdcOperator whose plan arena is at least four times the
// LLC, so the la/tlr/kernel-loop layers set the time, the FFT is a
// minority, and serve/oocache/cluster are bypassed. The TLR factors are
// synthesised from the seed with per-tile ranks from seismic::RankModel
// (compressing a real survey of this size costs about a minute per run)
// and saved as a TLRA archive. Ground truth is a planted model in the
// range of the operator's adjoint.
#include <cmath>
#include <random>

#include "ladder.hpp"
#include "surveys.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "workloads.hpp"

namespace pb {

namespace ti = tlrwse;

namespace {

constexpr int kIters = 4;              // LSQR iterations per request
constexpr int kSetupReps = 9;          // set-ups per run, 0.5-0.9 s each
constexpr double kLatencyLimitS = 2.0; // tail-latency objective
constexpr double kRefNmse = 0.049;  // solution_nmse of the baseline runs
constexpr double kNmseTol = 0.25;  // allowed relative departure from it

std::vector<float> seeded_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 g(seed);
  std::normal_distribution<float> d(0.0f, 1.0f);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = d(g);
  return v;
}

double dot(std::span<const float> a, std::span<const float> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return s;
}

}  // namespace

Outcome run_mdd_dram(const Options& o) {
  Outcome out;
  HostCeilings host;
  if (o.trace) host = probe_host(o.smoke);

  const double llc = static_cast<double>(llc_bytes());
  const index_t tiles = o.smoke ? 6 : 29;
  const double target = o.smoke ? 2e6 : 4.0 * llc;
  const std::string path =
      o.workdir + "/mdd_dram_" + std::to_string(o.seed) + ".tlra";
  RemoveOnExit cleanup;
  cleanup.paths.push_back(path);

  // Ingest: synthesise the factors and write the archive.
  std::vector<double> ingest_s, synth_s;
  for (int rep = 0; rep < kIngestReps; ++rep) {
    const AllCores offline;
    const double t0 = now_s();
    const ti::io::KernelArchive ar = rank_model_archive(tiles, target, o.seed);
    synth_s.push_back(now_s() - t0);
    ti::io::save_archive(path, ar);
    ingest_s.push_back(now_s() - t0);
  }
  const double archive_bytes = file_bytes(path);

  if (o.trace) {
    const ti::io::KernelArchive ar = ti::io::load_archive(path);
    ladder_la(ar, host.triad_gbps, o.smoke, out);
  }

  // Set-up, several times: archive load, plan compile, warm-up request.
  CompiledOperator c;
  std::vector<double> setup_s, load_s, compile_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    c = CompiledOperator{};
    const double t0 = now_s();
    const ti::io::KernelArchive ar = ti::io::load_archive(path);
    const double t1 = now_s();
    c = compile_operator(ar);
    const double t2 = now_s();
    const std::vector<float> warm = seeded_vector(c.op->rows(), o.seed);
    (void)ti::mdd::lsqr_solve(*c.op, warm, fixed_lsqr(1));
    setup_s.push_back(now_s() - t0);
    load_s.push_back(t1 - t0);
    compile_s.push_back(t2 - t1);
  }
  const ti::mdc::MdcOperator& op = *c.op;

  // Seeded right-hand sides b = A x_true with x_true = A^T z.
  const int nrhs = 3;
  std::vector<std::vector<float>> truth, rhs;
  for (int i = 0; i < nrhs; ++i) {
    const std::vector<float> z = seeded_vector(op.rows(), o.seed * 31 + i + 1);
    std::vector<float> x(static_cast<std::size_t>(op.cols()));
    std::vector<float> b(static_cast<std::size_t>(op.rows()));
    op.apply_adjoint(z, x);
    op.apply(x, b);
    truth.push_back(std::move(x));
    rhs.push_back(std::move(b));
  }

  // Adjoint dot test to fp32 tolerance.
  {
    const std::vector<float> u = seeded_vector(op.cols(), o.seed + 101);
    const std::vector<float> v = seeded_vector(op.rows(), o.seed + 202);
    std::vector<float> au(static_cast<std::size_t>(op.rows()));
    std::vector<float> atv(static_cast<std::size_t>(op.cols()));
    op.apply(u, au);
    op.apply_adjoint(v, atv);
    const double lhs = dot(au, v);
    const double rhs_dot = dot(u, atv);
    // The tolerance of the repository's own fp32 dot tests.
    const double rel =
        std::abs(lhs - rhs_dot) / (std::abs(lhs) + std::abs(rhs_dot));
    out.check(rel < 1e-3, "mdd_dram adjoint dot test: relative error " +
                              std::to_string(rel));
  }

  // Requests: back-to-back solves, cycling through the right-hand sides.
  std::vector<double> nmse(nrhs, -1.0);
  const auto serve_window = [&](double seconds, bool traced,
                                std::vector<double>& lat) {
    const double start = now_s();
    std::uint64_t k = 0;
    while (now_s() - start < seconds || lat.size() < 3) {
      const int i = static_cast<int>(k % nrhs);
      ++out.attempted;
      const double t0 = now_s();
      ti::mdd::LsqrResult res;
      if (traced) {
        TimedOperator timed(op, out.attempted);
        Scope span("mdd.lsqr", out.attempted);
        res = ti::mdd::lsqr_solve(timed, rhs[i], fixed_lsqr(kIters));
      } else {
        res = ti::mdd::lsqr_solve(op, rhs[i], fixed_lsqr(kIters));
      }
      lat.push_back(now_s() - t0);
      const double e = ti::mdd::nmse(res.x, truth[i]);
      if (!std::isfinite(e) || res.iterations != kIters) ++out.failed;
      if (nmse[i] < 0.0) nmse[i] = e;
      ++k;
    }
    return now_s() - start;
  };

  std::vector<double> lat;
  if (!o.trace) {
    const double wall = serve_window(o.seconds, false, lat);
    const Tail t = windowed_tail(lat);
    const double rps = static_cast<double>(lat.size()) / wall;
    const double sol = mean(nmse);
    out.check(o.smoke || std::abs(sol - kRefNmse) <= kNmseTol * kRefNmse,
              "mdd_dram solution_nmse " + std::to_string(sol) +
                  " outside the reference bound");
    report_end_to_end(out.metrics, median(setup_s), min_of(ingest_s), t, rps,
                      rps * std::min(1.0, kLatencyLimitS / t.value),
                      1.0 - static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted),
                      sol, c.plan_bytes / 1e6);
    print_info("\"workload\": \"mdd_dram\", \"ingest_reps_s\": " +
               json_list(ingest_s) + ", \"synth_reps_s\": " +
               json_list(synth_s) + ", \"setup_reps_s\": " +
               json_list(setup_s) + ", \"plan_arena_bytes\": " +
               std::to_string(c.plan_bytes) + ", \"llc_bytes\": " +
               std::to_string(llc) + ", \"frequencies\": " +
               std::to_string(op.num_freqs()) + ", \"matrix\": " +
               std::to_string(op.num_sources()) + ", \"lsqr_iters\": " +
               std::to_string(kIters) + ", \"tail_percentile\": " +
               std::to_string(t.percentile) + ", \"samples\": " +
               std::to_string(t.samples) + ", \"tail_windows\": " +
               std::to_string(t.windows));
    return out;
  }

  // Traced run: the ladder on this operator, then an untraced and a traced
  // request window for the tracing overhead.
  LadderInput in;
  in.op = &c;
  in.rhs = rhs[0];
  in.lsqr_iters = kIters;
  in.lsqr_reps = o.smoke ? 2 : 3;
  in.triad_gbps = host.triad_gbps;
  in.smoke = o.smoke;
  ladder_operator(in, out);
  std::vector<double> plain, traced;
  serve_window(0.5 * o.seconds, false, plain);
  Tracer::get().clear();
  serve_window(0.5 * o.seconds, true, traced);
  report_bypassed(out.metrics, {Layer::kOocache, Layer::kServe, Layer::kCluster});
  report_host(host, out.metrics);
  out.metrics.add("io.load_s", median(load_s), "s");
  out.metrics.add("io.plan_compile_s", median(compile_s), "s");
  out.metrics.add("io.compress_s", min_of(synth_s), "s");
  out.metrics.add("io.archive_bytes", archive_bytes, "bytes");
  out.metrics.add("trace.overhead_pct",
                  100.0 * (median(traced) / median(plain) - 1.0), "%");
  return out;
}

}  // namespace pb
