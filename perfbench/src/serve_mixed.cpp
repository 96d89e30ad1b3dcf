// serve_mixed: one open-loop generator sends requests to a SolveService on
// a seeded schedule at a few fixed offered rates, then holds a fixed number
// of requests in flight to measure capacity. Half the requests are kLsqr
// and half kAdjoint, over two surveys compressed at start-up: survey A is a
// per-frequency fp32 TLRA archive held resident; survey B is a bf16
// shared-basis TLRS archive larger than max_resident_bytes, so the oocache
// streamer serves it. The operators are small, so FFT, LSQR vector work,
// queueing and batching dominate; adjoint requests coalesce into multi-RHS
// sweeps and LSQR requests do not, so a batching or transform change that
// helps one kind at the other's cost shows up here.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <random>
#include <thread>

#include "ladder.hpp"
#include "surveys.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "tlrwse/serve/solve_service.hpp"
#include "workloads.hpp"

namespace pb {

namespace ti = tlrwse;
using ti::serve::RequestKind;
using ti::serve::SolveStatus;

namespace {

constexpr int kIters = 4;                // LSQR iterations per kLsqr request
constexpr double kLatencyLimitS = 0.25;  // objective on lat_tail_s
// Offered rates of the open-loop rungs (1/s) and each phase's share of the
// run: the rungs, then the capacity phase with kInFlight requests
// outstanding. The latencies are reported from the first rung, which gets
// the largest share. The top rung stays under half of the lowest capacity
// seen on the 4-core reference host (about 220/s when other tenants load
// it), so rps_at_slo is a floor: it reads the top rung's rate while the
// objective holds there and drops when it does not. Capacity gains show in
// throughput_rps.
constexpr double kRates[] = {50.0, 100.0};
constexpr double kPhaseWeight[] = {6.0, 1.0, 3.0};
constexpr int kSetupReps = 11;  // set-ups per run, about 0.1 s each
constexpr std::size_t kInFlight = 16;
constexpr double kRefNmse = 0.075;  // solution_nmse of the baseline runs
constexpr double kNmseTol = 0.25;  // allowed relative departure from it
constexpr int kVsrc = 4;            // virtual sources per survey
constexpr int kBandWidth = 4;       // survey B frequencies per band
// Requests per mix block: half kLsqr on survey A, a quarter kAdjoint on A,
// a quarter kAdjoint on the streamed B. Survey B receives no LSQR: it
// would re-stream the archive on every apply, costing ten times any other
// request, and such a tail would make every latency percentile of the mix
// a matter of luck.
constexpr int kBlock = 20;
// Responses per (survey, kind) whose solution is kept for the bitwise
// check; the others drop theirs so memory does not grow with the run.
constexpr int kKeepPerClass = 2;

struct Survey {
  ti::seismic::SeismicDataset data;
  std::string path;
  std::vector<std::vector<float>> rhs;  // per virtual source
};

struct Sent {
  double due = 0.0;
  double submitted = 0.0;
  int survey = 0;
  int vsrc = 0;
  RequestKind kind = RequestKind::kLsqr;
  std::future<ti::serve::SolveResponse> fut;
  ti::serve::SolveResponse resp;
};

/// Request classes in shuffled blocks with exact proportions, so two seeds
/// offer the same work.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : g_(seed) {}
  void next(Sent& s) {
    if (block_.empty()) {
      for (int b = 0; b < kBlock; ++b) block_.push_back(b);
      std::shuffle(block_.begin(), block_.end(), g_);
    }
    const int slot = block_.back();
    block_.pop_back();
    s.kind = slot % 2 == 0 ? RequestKind::kLsqr : RequestKind::kAdjoint;
    s.survey = s.kind == RequestKind::kAdjoint && slot % 4 == 1 ? 1 : 0;
    s.vsrc = static_cast<int>(g_() % kVsrc);
  }
  std::mt19937_64& rng() { return g_; }

 private:
  std::mt19937_64 g_;
  std::vector<int> block_;
};

struct Phase {
  double rate = 0.0;  // offered; 0 for the capacity phase
  std::vector<Sent> sent;
  std::size_t taken = 0;  // responses already taken out of their futures
  int kept[2][2] = {{0, 0}, {0, 0}};  // solutions kept per (survey, kind)
  double start = 0.0;
  double end = 0.0;  // last completion (or the schedule end if later)
  std::uint64_t ok = 0;
  Tail latency;
  Tail late;
  [[nodiscard]] double completion_rps() const {
    return static_cast<double>(ok) / (end - start);
  }
  [[nodiscard]] bool meets_slo() const {
    return ok == sent.size() && latency.value <= kLatencyLimitS &&
           late.value <= kLatencyLimitS;
  }
  /// Takes responses out of their futures in order, up to `upto` or the
  /// first one still running when `block` is false. Only the first
  /// kKeepPerClass solutions of each class are kept.
  void take(std::size_t upto, bool block) {
    for (; taken < upto; ++taken) {
      Sent& s = sent[taken];
      if (!block && s.fut.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        return;
      }
      s.resp = s.fut.get();
      int& k = kept[s.survey][s.kind == RequestKind::kLsqr ? 0 : 1];
      if (k < kKeepPerClass && s.resp.status == SolveStatus::kOk) {
        ++k;
      } else {
        std::vector<float>().swap(s.resp.x);
      }
    }
  }
  /// Waits for the rest and fills the statistics. Latency runs from each
  /// request's due time; a failed or rejected request misses any limit.
  void finish() {
    take(sent.size(), true);
    std::vector<double> lat, lag;
    for (const Sent& s : sent) {
      const double done = s.submitted + s.resp.total_s;
      end = std::max(end, done);
      lag.push_back(s.submitted - s.due);
      if (s.resp.status == SolveStatus::kOk) {
        ++ok;
        lat.push_back(done - s.due);
      } else {
        lat.push_back(1e9);
      }
    }
    latency = windowed_tail(lat);
    late = tail_of(lag);
  }
};

struct Context {
  ti::serve::SolveService* svc;
  const std::vector<Survey>* surveys;
  const std::vector<ti::serve::OperatorKey>* keys;
};

void submit(const Context& c, Sent& s, std::uint64_t request) {
  Scope span("serve.submit", request);
  ti::serve::SolveRequest req;
  req.op = (*c.keys)[static_cast<std::size_t>(s.survey)];
  req.kind = s.kind;
  req.vsrc = s.vsrc;
  req.rhs = (*c.surveys)[static_cast<std::size_t>(s.survey)]
                .rhs[static_cast<std::size_t>(s.vsrc)];
  req.lsqr = fixed_lsqr(kIters);
  s.submitted = now_s();
  s.fut = c.svc->submit(std::move(req));
}

/// Open-loop rung: exactly rate*seconds arrivals at seeded uniform times (a
/// Poisson process conditioned on its count). Between arrivals the
/// generator takes finished responses, so memory does not grow with the
/// rung.
Phase run_rung(const Context& c, double rate, double seconds,
               std::uint64_t seed) {
  Phase ph;
  ph.rate = rate;
  Mix mix(seed);
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  std::uniform_real_distribution<double> when(0.0, seconds);
  std::vector<double> offsets(n);
  for (auto& t : offsets) t = when(mix.rng());
  std::sort(offsets.begin(), offsets.end());
  ph.sent.resize(n);
  for (Sent& s : ph.sent) mix.next(s);
  ph.start = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    Sent& s = ph.sent[i];
    s.due = ph.start + offsets[i];
    ph.take(i, false);
    const double wait = s.due - now_s();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    submit(c, s, i + 1);
  }
  ph.end = ph.start + seconds;
  ph.finish();
  return ph;
}

/// Capacity phase: the same generator thread keeps kInFlight requests
/// outstanding for `seconds`, submitting the next one as the oldest
/// returns. Memory stays bounded, unlike an overloaded open loop.
Phase run_capacity(const Context& c, double seconds, std::uint64_t seed) {
  Phase ph;
  Mix mix(seed);
  ph.start = now_s();
  ph.end = ph.start;
  while (true) {
    const bool open = now_s() - ph.start < seconds;
    while (open && ph.sent.size() - ph.taken < kInFlight) {
      ph.sent.emplace_back();
      Sent& s = ph.sent.back();
      mix.next(s);
      s.due = now_s();
      submit(c, s, ph.sent.size());
    }
    if (ph.taken == ph.sent.size()) break;
    ph.take(ph.taken + 1, true);
  }
  ph.finish();
  return ph;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string phase_json(const Phase& ph) {
  return "{\"offered\": " + std::to_string(ph.rate) + ", \"completed_rps\": " +
         std::to_string(ph.completion_rps()) + ", \"p50_s\": " +
         std::to_string(ph.latency.p50) + ", \"tail_s\": " +
         std::to_string(ph.latency.value) + ", \"tail_percentile\": " +
         std::to_string(ph.latency.percentile) + ", \"samples\": " +
         std::to_string(ph.latency.samples) + ", \"tail_windows\": " +
         std::to_string(ph.latency.windows) + ", \"meets_slo\": " +
         (ph.meets_slo() ? "true" : "false") + "}";
}

}  // namespace

Outcome run_serve_mixed(const Options& o) {
  Outcome out;
  HostCeilings host;
  if (o.trace) host = probe_host(o.smoke);

  // Inputs: two seeded surveys; B is the larger one.
  RemoveOnExit cleanup;
  std::vector<Survey> surveys(2);
  surveys[0].data = o.smoke ? seeded_survey(4, 4, 3, 3, o.seed)
                            : seeded_survey(10, 8, 8, 5, o.seed);
  surveys[1].data = o.smoke ? seeded_survey(10, 8, 8, 5, o.seed + 1000)
                            : seeded_survey(20, 15, 15, 10, o.seed + 1000);
  for (int s = 0; s < 2; ++s) {
    Survey& sv = surveys[static_cast<std::size_t>(s)];
    sv.path = o.workdir + "/serve_mixed_" + std::to_string(o.seed) +
              (s == 0 ? "_A.tlra" : "_B.tlrs");
    cleanup.paths.push_back(sv.path);
    for (int v = 0; v < kVsrc; ++v) {
      sv.rhs.push_back(ti::mdd::virtual_source_rhs(sv.data, v));
    }
  }

  // Ingest: compress both surveys (B as bf16 shared-basis bands) and save.
  ti::tlr::CompressionConfig cc;
  cc.nb = 12;
  cc.acc = 1e-4;
  ti::tlr::SharedBasisConfig sc;
  sc.nb = 12;
  sc.acc = 1e-4;
  std::vector<double> ingest_s, compress_s;
  double payload_a = 0.0, payload_b = 0.0;
  for (int rep = 0; rep < kIngestReps; ++rep) {
    const AllCores offline;
    const double t0 = now_s();
    const ti::io::KernelArchive a = ti::io::build_archive(surveys[0].data, cc);
    const double t1 = now_s();
    ti::io::save_archive(surveys[0].path, a);
    payload_a = a.compressed_bytes();
    const double t2 = now_s();
    ti::io::SharedKernelArchive b =
        ti::io::build_shared_archive(surveys[1].data, sc, kBandWidth);
    const double t3 = now_s();
    ti::io::quantize_shared_archive(b, ti::tlr::StoragePrecision::kBf16);
    ti::io::save_shared_archive(surveys[1].path, b);
    payload_b = b.shared_bytes();
    ingest_s.push_back(now_s() - t0);
    compress_s.push_back((t1 - t0) + (t3 - t2));
  }
  // A stays resident; B streams through a window of 60% of its payload.
  const double cap = 0.6 * payload_b;
  if (payload_a >= cap) {
    throw std::runtime_error("serve_mixed: survey A (" +
                             std::to_string(payload_a) +
                             " B) does not fit under the residency cap (" +
                             std::to_string(cap) + " B)");
  }
  const std::vector<ti::serve::OperatorKey> keys = {
      {surveys[0].path, cc.nb, cc.acc}, {surveys[1].path, sc.nb, sc.acc}};

  ti::serve::ServiceConfig scfg;
  // One thread per request: four single-threaded workers, no OpenMP teams
  // to wake for every transform and kernel loop.
  scfg.workers = 4;
  scfg.inner_threads = 1;
  scfg.queue_capacity = 4096;
  scfg.max_batch = 8;
  scfg.max_resident_bytes = cap;

  // Set-up, several times: service start plus one warm-up request per
  // survey (archive load or stream-plan compile, plan compile).
  std::unique_ptr<ti::serve::SolveService> svc;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const double t0 = now_s();
    svc = std::make_unique<ti::serve::SolveService>(scfg);
    for (int s = 0; s < 2; ++s) {
      ti::serve::SolveRequest req;
      req.op = keys[static_cast<std::size_t>(s)];
      req.kind = RequestKind::kLsqr;
      req.rhs = surveys[static_cast<std::size_t>(s)].rhs[0];
      req.lsqr = fixed_lsqr(1);
      const auto r = svc->submit(std::move(req)).get();
      if (r.status != SolveStatus::kOk) {
        throw std::runtime_error("serve_mixed warm-up failed: " + r.error);
      }
    }
    setup_s.push_back(now_s() - t0);
  }
  const Context ctx{svc.get(), &surveys, &keys};

  // Reference operators for the bitwise checks: both archives loaded
  // resident into this process and solved sequentially.
  const CompiledOperator ref_a =
      compile_operator(ti::io::load_archive(surveys[0].path));
  const CompiledOperator ref_b =
      compile_operator(ti::io::load_shared_archive(surveys[1].path));
  const auto check_sample = [&](const Phase& ph) {
    for (const Sent& s : ph.sent) {
      if (s.resp.x.empty()) continue;  // not kept for checking
      const ti::mdc::MdcOperator& op = *(s.survey == 0 ? ref_a : ref_b).op;
      const std::vector<float>& rhs = surveys[static_cast<std::size_t>(s.survey)]
                                          .rhs[static_cast<std::size_t>(s.vsrc)];
      const bool lsqr = s.kind == RequestKind::kLsqr;
      const std::vector<float> want =
          lsqr ? ti::mdd::lsqr_solve(op, rhs, fixed_lsqr(kIters)).x
               : ti::mdd::adjoint_reflectivity(op, rhs);
      out.check(bitwise_equal(s.resp.x, want),
                "serve_mixed: survey " + std::to_string(s.survey) +
                    (lsqr ? " lsqr" : " adjoint") +
                    " response differs from the sequential solve");
    }
  };
  const auto count = [&](const Phase& ph) {
    out.attempted += ph.sent.size();
    for (const Sent& s : ph.sent) {
      if (s.resp.status != SolveStatus::kOk) ++out.failed;
    }
  };
  const double nmse = ti::mdd::nmse(
      ti::mdd::lsqr_solve(*ref_a.op, surveys[0].rhs[0], fixed_lsqr(kIters)).x,
      ti::mdd::true_reflectivity_traces(surveys[0].data, 0));

  const double scale = o.smoke ? 0.25 : 1.0;  // smoke: fewer arrivals
  double total = 0.0;
  for (const double w : kPhaseWeight) total += w;
  if (!o.trace) {
    std::vector<Phase> rungs;
    for (std::size_t r = 0; r < std::size(kRates); ++r) {
      rungs.push_back(run_rung(ctx, kRates[r] * scale,
                               o.seconds * kPhaseWeight[r] / total,
                               o.seed * 101 + r));
      count(rungs.back());
      check_sample(rungs.back());
    }
    const Phase capacity = run_capacity(
        ctx, o.seconds * kPhaseWeight[std::size(kRates)] / total,
        o.seed * 101 + std::size(kRates));
    count(capacity);
    check_sample(capacity);
    out.check(o.smoke || std::abs(nmse - kRefNmse) <= kNmseTol * kRefNmse,
              "serve_mixed solution_nmse " + std::to_string(nmse) +
                  " outside the reference bound");
    // The highest rung meeting the objective; when none does, the first
    // rung's completion rate scaled down by how far its tail overran, as
    // the closed-loop workloads report it.
    const Phase& ref = rungs[0];
    double rps_at_slo =
        ref.completion_rps() * std::min(1.0, kLatencyLimitS / ref.latency.value);
    for (const Phase& ph : rungs) {
      if (ph.meets_slo()) rps_at_slo = ph.completion_rps();
    }
    std::uint64_t ok = capacity.ok;
    for (const Phase& ph : rungs) ok += ph.ok;
    report_end_to_end(out.metrics, median(setup_s), min_of(ingest_s),
                      ref.latency, capacity.completion_rps(), rps_at_slo,
                      static_cast<double>(ok) / static_cast<double>(out.attempted),
                      nmse, (ref_a.plan_bytes + ref_b.plan_bytes) / 1e6);
    std::string phases;
    for (const Phase& ph : rungs) phases += phase_json(ph) + ", ";
    std::string kinds;
    for (int sv = 0; sv < 2; ++sv) {
      for (const RequestKind k : {RequestKind::kLsqr, RequestKind::kAdjoint}) {
        std::vector<double> solve;
        for (const Sent& s : ref.sent) {
          if (s.survey == sv && s.kind == k) solve.push_back(s.resp.solve_s);
        }
        if (solve.empty()) continue;
        kinds += std::string("\"") + (sv == 0 ? "A_" : "B_") +
                 (k == RequestKind::kLsqr ? "lsqr" : "adjoint") +
                 "_solve_p50_s\": " + std::to_string(median(solve)) + ", ";
      }
    }
    print_info("\"workload\": \"serve_mixed\", \"ingest_reps_s\": " +
               json_list(ingest_s) + ", \"setup_reps_s\": " +
               json_list(setup_s) + ", " + kinds + "\"payload_a_bytes\": " +
               std::to_string(payload_a) + ", \"payload_b_bytes\": " +
               std::to_string(payload_b) + ", \"max_resident_bytes\": " +
               std::to_string(cap) + ", \"latency_limit_s\": " +
               std::to_string(kLatencyLimitS) + ", \"phases\": [" + phases +
               phase_json(capacity) + "]");
    return out;
  }

  // Traced run: the ladder on survey A's operator, then the first rung
  // untraced and traced, with the service's own telemetry read around the
  // traced window. Tracing there records a live span around every submit
  // call; the request, queue-wait and solve spans are rebuilt afterwards
  // from the responses.
  {
    const double t0 = now_s();
    const ti::io::KernelArchive a = ti::io::load_archive(surveys[0].path);
    const double t1 = now_s();
    const CompiledOperator c = compile_operator(a);
    out.metrics.add("io.load_s", t1 - t0, "s");
    out.metrics.add("io.plan_compile_s", now_s() - t1, "s");
    LadderInput in;
    in.op = &c;
    in.tiles = &a;
    in.rhs = surveys[0].rhs[0];
    in.lsqr_iters = kIters;
    in.lsqr_reps = o.smoke ? 2 : 20;
    in.triad_gbps = host.triad_gbps;
    in.smoke = o.smoke;
    ladder_operator(in, out);
  }
  const double window = 0.5 * o.seconds;
  const double ref_rate = kRates[0] * scale;
  Tracer::get().enable(false);
  const Phase plain = run_rung(ctx, ref_rate, window, o.seed * 7 + 1);
  const auto before = svc->metrics();
  const auto multi0 = svc->registry().snapshot().counters["serve.multi_rhs"];
  Tracer::get().clear();
  Tracer::get().enable(true);
  const Phase traced = run_rung(ctx, ref_rate, window, o.seed * 7 + 2);
  const auto after = svc->metrics();
  const auto multi1 = svc->registry().snapshot().counters["serve.multi_rhs"];
  count(plain);
  count(traced);
  check_sample(traced);

  std::vector<double> qwait, batch;
  double stall = 0.0, solve_b = 0.0;
  std::size_t n_b = 0, n_adj = 0;
  for (const Sent& s : traced.sent) {
    if (s.resp.status != SolveStatus::kOk) continue;
    qwait.push_back(s.resp.queue_wait_s);
    batch.push_back(static_cast<double>(s.resp.batch_size));
    if (s.kind == RequestKind::kAdjoint) ++n_adj;
    if (s.survey == 1) {
      ++n_b;
      stall += s.resp.stages.stream_stall_s;
      solve_b += s.resp.solve_s;
    }
    // Spans rebuilt from the response: due -> queue wait -> solve.
    Tracer& tr = Tracer::get();
    const auto req = static_cast<std::uint64_t>(&s - traced.sent.data() + 1);
    const double done = s.submitted + s.resp.total_s;
    const std::uint64_t root = tr.record("serve.request", s.due, done, req, 0);
    tr.record("serve.queue_wait", s.submitted, s.submitted + s.resp.queue_wait_s,
              req, root);
    tr.record(s.kind == RequestKind::kLsqr ? "serve.lsqr" : "serve.adjoint",
              done - s.resp.solve_s, done, req, root);
  }
  const Tail qw = tail_of(qwait);
  const auto rejected = [](const ti::serve::ServiceMetrics& m) {
    return m.counters.rejected_queue_full + m.counters.rejected_deadline +
           m.counters.rejected_archive_missing;
  };
  out.metrics.add("serve.queue_wait_p50_s", qw.p50, "s");
  out.metrics.add("serve.queue_wait_tail_s", qw.value, "s");
  out.metrics.add("serve.batch_size_mean", mean(batch), "count");
  out.metrics.add("serve.coalesce_ratio",
                  static_cast<double>(after.counters.coalesced -
                                      before.counters.coalesced) /
                      static_cast<double>(after.counters.admitted -
                                          before.counters.admitted),
                  "ratio");
  out.metrics.add("serve.multi_rhs_ratio",
                  n_adj > 0 ? static_cast<double>(multi1 - multi0) /
                                  static_cast<double>(n_adj)
                            : 0.0,
                  "ratio");
  out.metrics.add("serve.cache_hit_rate", after.cache.hit_rate(), "ratio");
  out.metrics.add("serve.rejected",
                  static_cast<double>(rejected(after) - rejected(before)),
                  "count");
  out.metrics.add("serve.gen_late_s", traced.late.value, "s");
  out.metrics.add("oocache.stall_s",
                  n_b > 0 ? stall / static_cast<double>(n_b) : 0.0, "s");
  out.metrics.add("oocache.stall_share", solve_b > 0 ? stall / solve_b : 0.0,
                  "ratio");
  out.metrics.add("io.compress_s", min_of(compress_s), "s");
  out.metrics.add("io.archive_bytes",
                  file_bytes(surveys[0].path) + file_bytes(surveys[1].path),
                  "bytes");
  out.metrics.add("trace.overhead_pct",
                  100.0 * (traced.latency.p50 / plain.latency.p50 - 1.0), "%");
  report_bypassed(out.metrics, {Layer::kCluster});
  report_host(host, out.metrics);
  return out;
}

}  // namespace pb
