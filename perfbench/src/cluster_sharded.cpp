// cluster_sharded: closed-loop LSQR clients against a ClusterService whose
// fleet is in-process: frequency-sharded ShardWorkers behind LocalChannels,
// which still run the real wire encode and decode. Each LSQR iteration fans
// out twice (apply and adjoint), so RPC, wire bytes, gather/scatter and the
// slowest shard set the time. Clients plus shard workers number no more
// than nproc.
//
// The benchmark sees the fleet from outside: a handler around
// ShardWorker::handle times the compute and counts the frame bytes, a
// Channel wrapper around each LocalChannel times the whole call (compute
// plus the byte encode/decode and copies: wire), and the frontend's side of
// an RPC (message encode, hand-off to the per-worker dispatcher thread and
// back, reply decode: dispatch) is measured on its own over a channel that
// answers at once. With one client those three parts must add up to the
// round trip the frontend reports; with two, the rest is time a call waits
// for a worker busy with the other client's call.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <thread>

#include "ladder.hpp"
#include "surveys.hpp"
#include "tlrwse/cluster/frontend.hpp"
#include "tlrwse/cluster/transport.hpp"
#include "tlrwse/cluster/wire.hpp"
#include "tlrwse/cluster/worker.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/mdd/metrics.hpp"
#include "workloads.hpp"

namespace pb {

namespace ti = tlrwse;
namespace cl = tlrwse::cluster;

namespace {

constexpr int kIters = 3;               // LSQR iterations per request
constexpr int kShards = 2;              // shard workers
constexpr int kClients = 2;             // closed-loop clients
constexpr int kSetupReps = 21;          // set-ups per run, 60-100 ms each
constexpr int kIngestRuns = 3;          // ingests per run, about 4.7 s each
constexpr int kSlices = 5;              // slices of the closure window
constexpr double kLatencyLimitS = 1.0;  // objective on lat_tail_s
constexpr double kRefNmse = 0.068;  // solution_nmse of the baseline runs
constexpr double kNmseTol = 0.25;  // allowed relative departure from it
constexpr int kVsrc = 4;
// Responses per client whose solution is kept for the bitwise check.
constexpr std::size_t kKeepSolutions = 2 * kVsrc;

/// Per-fleet counters fed by the handlers and channel wrappers.
struct WireStats {
  std::mutex mu;
  double compute_s = 0.0;   // inside ShardWorker::handle, apply frames
  double channel_s = 0.0;   // whole LocalChannel::call, apply frames
  double bytes = 0.0;       // request + reply frame lengths, apply frames
  std::uint64_t calls = 0;
  std::atomic<bool> traced{false};  // read by the handlers unlocked
  struct Call {
    std::uint64_t request;
    std::uint32_t shard;
    double t0, t1;  // handler entry and exit
  };
  std::vector<Call> log;  // traced windows only
  void reset(bool trace) {
    std::lock_guard<std::mutex> lock(mu);
    compute_s = channel_s = bytes = 0.0;
    calls = 0;
    log.clear();
    traced.store(trace);
  }
};

/// Times every call of the wrapped channel.
class TimedChannel final : public cl::Channel {
 public:
  TimedChannel(std::unique_ptr<cl::Channel> inner, WireStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}
  cl::Frame call(const cl::Frame& request) override {
    const double t0 = now_s();
    cl::Frame reply = inner_->call(request);
    if (request.type == static_cast<std::uint16_t>(cl::MsgType::kApply)) {
      const double dt = now_s() - t0;
      std::lock_guard<std::mutex> lock(stats_.mu);
      stats_.channel_s += dt;
    }
    return reply;
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<cl::Channel> inner_;
  WireStats& stats_;
};

struct Fleet {
  std::vector<std::unique_ptr<cl::ShardWorker>> workers;
  std::unique_ptr<cl::ClusterService> service;
};

std::unique_ptr<Fleet> make_fleet(WireStats& stats) {
  auto fleet = std::make_unique<Fleet>();
  const double header = static_cast<double>(cl::encode_frame(cl::Frame{}).size());
  std::vector<std::unique_ptr<cl::WorkerClient>> clients;
  for (int w = 0; w < kShards; ++w) {
    fleet->workers.push_back(std::make_unique<cl::ShardWorker>());
    cl::ShardWorker* worker = fleet->workers.back().get();
    auto handler = [worker, header, &stats](const cl::Frame& f) {
      const double t0 = now_s();
      cl::Frame reply = worker->handle(f);
      const double t1 = now_s();
      if (f.type == static_cast<std::uint16_t>(cl::MsgType::kApply)) {
        WireStats::Call call{0, 0, t0, t1};
        if (stats.traced) {
          const cl::ApplyMsg m = cl::ApplyMsg::from_frame(f);
          call.request = m.request_id;
          call.shard = m.shard_id;
        }
        std::lock_guard<std::mutex> lock(stats.mu);
        stats.compute_s += t1 - t0;
        stats.bytes += 2.0 * header +
                       static_cast<double>(f.payload.size() + reply.payload.size());
        ++stats.calls;
        if (stats.traced) stats.log.push_back(call);
      }
      return reply;
    };
    auto chan = std::make_unique<TimedChannel>(
        std::make_unique<cl::LocalChannel>(std::move(handler)), stats);
    std::string name = "w";
    name += std::to_string(w);
    clients.push_back(
        std::make_unique<cl::WorkerClient>(std::move(chan), std::move(name)));
  }
  cl::ClusterConfig cfg;
  cfg.frontend_workers = kClients;
  cfg.queue_capacity = 64;
  fleet->service = std::make_unique<cl::ClusterService>(cfg, std::move(clients));
  return fleet;
}

struct Done {
  int vsrc = 0;
  double t0 = 0.0;
  double latency = 0.0;
  cl::ClusterResponse resp;
};

/// `clients` closed-loop clients for `seconds`; each sends its next request
/// when the previous one returns, cycling through the virtual sources.
/// Returns the requests in the order they were sent.
std::vector<Done> closed_loop(cl::ClusterService& svc,
                              const ti::serve::OperatorKey& key,
                              const std::vector<std::vector<float>>& rhs,
                              double seconds, double* wall,
                              int clients = kClients) {
  std::vector<std::vector<Done>> per(static_cast<std::size_t>(clients));
  const double start = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      int k = c;
      std::vector<Done>& mine = per[static_cast<std::size_t>(c)];
      while (now_s() - start < seconds || mine.size() < 2) {
        cl::ClusterRequest req;
        req.op = key;
        req.kind = ti::serve::RequestKind::kLsqr;
        req.vsrc = k % kVsrc;
        req.rhs = rhs[static_cast<std::size_t>(req.vsrc)];
        req.lsqr = fixed_lsqr(kIters);
        Done d;
        d.vsrc = static_cast<int>(req.vsrc);
        d.t0 = now_s();
        d.resp = svc.submit(std::move(req)).response.get();
        d.latency = now_s() - d.t0;
        // Only the first solutions are checked; dropping the rest keeps
        // peak_rss_mb from growing with the number of requests served.
        if (mine.size() >= kKeepSolutions) {
          std::vector<float>().swap(d.resp.x);
        }
        mine.push_back(std::move(d));
        k += clients;
      }
    });
  }
  for (auto& t : threads) t.join();
  *wall = now_s() - start;
  std::vector<Done> all;
  for (auto& v : per) {
    for (auto& d : v) all.push_back(std::move(d));
  }
  std::sort(all.begin(), all.end(),
            [](const Done& a, const Done& b) { return a.t0 < b.t0; });
  return all;
}

/// Per-request means over one traced window: the round trip the frontend
/// reports (StageBreakdown rpc_s + mvm_s), the handler and channel timers,
/// and the collection wait. The frontend collects a fan-out's replies in
/// shard order, so a shard whose handler finished before an earlier
/// shard's is stamped only when that one is; the gap is in the round trip
/// and in no timer, and is taken from the handler stamps.
struct RpcSplit {
  double rpc = 0.0, compute = 0.0, channel = 0.0, bytes = 0.0, calls = 0.0,
         gather = 0.0, collect = 0.0;
  std::vector<WireStats::Call> log;
  /// rpc - channel - collection wait - `dispatch_per_call` per call: what
  /// the measured parts leave of the round trip.
  [[nodiscard]] double unexplained(double dispatch_per_call) const {
    return rpc - channel - collect - dispatch_per_call * calls;
  }
};

RpcSplit split_of(const std::vector<Done>& done, WireStats& stats) {
  RpcSplit r;
  for (const Done& d : done) {
    r.rpc += d.resp.stages.rpc_s + d.resp.stages.mvm_s;
    r.gather += d.resp.stages.gather_scatter_s;
  }
  {
    std::lock_guard<std::mutex> lock(stats.mu);
    r.compute = stats.compute_s;
    r.channel = stats.channel_s;
    r.bytes = stats.bytes;
    r.calls = static_cast<double>(stats.calls);
    r.log = stats.log;
  }
  // Handler end times per request and shard, one per fan-out in order.
  std::map<std::uint64_t, std::map<std::uint32_t, std::vector<double>>> ends;
  for (const WireStats::Call& c : r.log) ends[c.request][c.shard].push_back(c.t1);
  for (const auto& [req, shards] : ends) {
    std::size_t fans = shards.begin()->second.size();
    for (const auto& [shard, t1] : shards) fans = std::min(fans, t1.size());
    for (std::size_t k = 0; k < fans; ++k) {
      double latest = 0.0;
      for (const auto& [shard, t1] : shards) {
        r.collect += std::max(0.0, latest - t1[k]);
        latest = std::max(latest, t1[k]);
      }
    }
  }
  const double n = static_cast<double>(done.size());
  for (double* v : {&r.rpc, &r.compute, &r.channel, &r.bytes, &r.calls,
                    &r.gather, &r.collect}) {
    *v /= n;
  }
  return r;
}

/// The frontend's side of one RPC, measured on its own: ApplyMsg encode,
/// hand-off to the worker's dispatcher thread and back, ApplyOkMsg decode.
/// kShards WorkerClients over channels that stay busy for `busy_s` and then
/// answer with a prebuilt reply are driven the way the frontend fans out
/// (stamp, call_async to every shard, then collect in shard order), with
/// payloads of `payload_bytes` each way. The busy wait stands in for the
/// shard's compute, so the frontend thread sleeps in the collect as it does
/// against real workers. Runs for `seconds`, so that it spans the host's
/// hiccups as the windows do, and returns the mean per-call round trip
/// minus `busy_s`: the windows' round trips are sums, hiccups included.
double frontend_rpc_s(double payload_bytes, double busy_s, double seconds) {
  class ReplyChannel final : public cl::Channel {
   public:
    ReplyChannel(cl::Frame reply, double busy_s)
        : reply_(std::move(reply)), busy_s_(busy_s) {}
    cl::Frame call(const cl::Frame& /*request*/) override {
      const double until = now_s() + busy_s_;
      while (now_s() < until) {
      }
      return reply_;
    }
    void close() override {}

   private:
    cl::Frame reply_;
    double busy_s_;
  };
  cl::ApplyMsg msg;
  msg.data.assign(static_cast<std::size_t>(payload_bytes / sizeof(ti::cf32)),
                  ti::cf32{0.5f, -0.25f});
  cl::ApplyOkMsg ok;
  ok.data = msg.data;
  std::vector<std::unique_ptr<cl::WorkerClient>> clients;
  for (int w = 0; w < kShards; ++w) {
    clients.push_back(std::make_unique<cl::WorkerClient>(
        std::make_unique<ReplyChannel>(ok.to_frame(), busy_s), "probe"));
  }
  std::vector<double> per_call;
  std::vector<std::future<cl::Frame>> fut(kShards);
  std::vector<double> t0(kShards);
  const double start = now_s();
  while (now_s() - start < seconds) {
    for (std::size_t w = 0; w < fut.size(); ++w) {
      t0[w] = now_s();
      fut[w] = clients[w]->call_async(msg.to_frame());
    }
    for (std::size_t w = 0; w < fut.size(); ++w) {
      (void)cl::ApplyOkMsg::from_frame(fut[w].get());
      per_call.push_back(now_s() - t0[w] - busy_s);
    }
  }
  return mean(per_call);
}

std::vector<double> latencies(const std::vector<Done>& done) {
  std::vector<double> lat;
  for (const Done& d : done) {
    lat.push_back(d.resp.status == cl::ClusterStatus::kOk ? d.latency : 1e9);
  }
  return lat;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

Outcome run_cluster_sharded(const Options& o) {
  Outcome out;
  HostCeilings host;
  if (o.trace) host = probe_host(o.smoke);

  // Shard compute must dominate an RPC: the closure check needs it, and a
  // thread hand-off delayed by a preempted virtual CPU then costs a smaller
  // share of a request. Even the smoke survey must stay this large: on a
  // 16 x 12 x 12 x 8 survey the hand-off's jitter alone moved the closure
  // residual past its bound.
  const ti::seismic::SeismicDataset data =
      o.smoke ? seeded_survey(24, 18, 18, 12, o.seed)
              : seeded_survey(30, 22, 22, 15, o.seed);
  std::vector<std::vector<float>> rhs;
  for (int v = 0; v < kVsrc; ++v) {
    rhs.push_back(ti::mdd::virtual_source_rhs(data, v));
  }
  const std::string path =
      o.workdir + "/cluster_sharded_" + std::to_string(o.seed) + ".tlra";
  RemoveOnExit cleanup;
  cleanup.paths.push_back(path);

  // Ingest: compress the survey and save the archive.
  ti::tlr::CompressionConfig cc;
  cc.nb = 24;
  cc.acc = 1e-4;
  std::vector<double> ingest_s, compress_s;
  for (int rep = 0; rep < kIngestRuns; ++rep) {
    const AllCores offline;
    const double t0 = now_s();
    const ti::io::KernelArchive ar = ti::io::build_archive(data, cc);
    compress_s.push_back(now_s() - t0);
    ti::io::save_archive(path, ar);
    ingest_s.push_back(now_s() - t0);
  }
  const ti::serve::OperatorKey key{path, cc.nb, cc.acc};

  // Set-up, several times: fleet and frontend start plus a warm-up request
  // (placement, shard loads, plan compiles on the workers).
  WireStats stats;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const double t0 = now_s();
    fleet = make_fleet(stats);
    cl::ClusterRequest req;
    req.op = key;
    req.kind = ti::serve::RequestKind::kLsqr;
    req.rhs = rhs[0];
    req.lsqr = fixed_lsqr(1);
    const auto r = fleet->service->submit(std::move(req)).response.get();
    if (r.status != cl::ClusterStatus::kOk) {
      throw std::runtime_error("cluster_sharded warm-up failed: " + r.error);
    }
    setup_s.push_back(now_s() - t0);
  }

  // Sequential single-process reference on the same archive.
  const double t_load = now_s();
  const ti::io::KernelArchive local = ti::io::load_archive(path);
  const double t_compile = now_s();
  const CompiledOperator ref = compile_operator(local);
  const double t_ready = now_s();
  const auto check_sample = [&](const std::vector<Done>& done) {
    std::vector<int> seen(kVsrc, 0);
    for (const Done& d : done) {
      if (d.resp.status != cl::ClusterStatus::kOk || d.resp.x.empty() ||
          seen[d.vsrc]++ > 0) {
        continue;
      }
      const std::vector<float> want =
          ti::mdd::lsqr_solve(*ref.op, rhs[static_cast<std::size_t>(d.vsrc)],
                              fixed_lsqr(kIters)).x;
      out.check(bitwise_equal(d.resp.x, want),
                "cluster_sharded: vsrc " + std::to_string(d.vsrc) +
                    " response differs from the sequential solve");
    }
    for (int v = 0; v < kVsrc; ++v) {
      out.check(seen[v] > 0, "cluster_sharded: no solution kept for vsrc " +
                                 std::to_string(v));
    }
  };
  const double nmse = ti::mdd::nmse(
      ti::mdd::lsqr_solve(*ref.op, rhs[0], fixed_lsqr(kIters)).x,
      ti::mdd::true_reflectivity_traces(data, 0));

  const auto count = [&](const std::vector<Done>& done) {
    for (const Done& d : done) {
      ++out.attempted;
      if (d.resp.status != cl::ClusterStatus::kOk) ++out.failed;
    }
  };

  if (!o.trace) {
    double wall = 0.0;
    const std::vector<Done> done =
        closed_loop(*fleet->service, key, rhs, o.seconds, &wall);
    count(done);
    check_sample(done);
    out.check(o.smoke || std::abs(nmse - kRefNmse) <= kNmseTol * kRefNmse,
              "cluster_sharded solution_nmse " + std::to_string(nmse) +
                  " outside the reference bound");
    const Tail t = windowed_tail(latencies(done));
    const double rps = static_cast<double>(done.size() - out.failed) / wall;
    report_end_to_end(out.metrics, median(setup_s), min_of(ingest_s), t, rps,
                      rps * std::min(1.0, kLatencyLimitS / t.value),
                      1.0 - static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted),
                      nmse, ref.plan_bytes / 1e6);
    print_info("\"workload\": \"cluster_sharded\", \"ingest_reps_s\": " +
               json_list(ingest_s) + ", \"setup_reps_s\": " +
               json_list(setup_s) + ", \"shards\": " +
               std::to_string(kShards) + ", \"clients\": " +
               std::to_string(kClients) + ", \"lsqr_iters\": " +
               std::to_string(kIters) + ", \"tail_percentile\": " +
               std::to_string(t.percentile) + ", \"samples\": " +
               std::to_string(t.samples) + ", \"tail_windows\": " +
               std::to_string(t.windows));
    return out;
  }

  // Traced run: the ladder on the local reference operator, then the
  // fleet's windows.
  {
    LadderInput in;
    in.op = &ref;
    in.tiles = &local;
    in.rhs = rhs[0];
    in.lsqr_iters = kIters;
    in.lsqr_reps = o.smoke ? 2 : 10;
    in.triad_gbps = host.triad_gbps;
    in.smoke = o.smoke;
    ladder_operator(in, out);
  }
  // Three windows: two clients untraced and traced (the cluster rung and
  // the tracing overhead), then one client, whose calls never wait for a
  // busy worker, for the closure check.
  double wall = 0.0;
  Tracer::get().enable(false);
  stats.reset(false);
  const std::vector<Done> plain =
      closed_loop(*fleet->service, key, rhs, 0.4 * o.seconds, &wall);
  stats.reset(true);
  Tracer::get().clear();
  Tracer::get().enable(true);
  const std::vector<Done> traced =
      closed_loop(*fleet->service, key, rhs, 0.4 * o.seconds, &wall);
  const RpcSplit two = split_of(traced, stats);
  // The single-client window alternates in short slices with the separate
  // measurement of the frontend's side of an RPC (at the traced window's
  // mean frame size and compute time per call), so that both see the same
  // state of the host: on a shared machine the thread hand-off alone
  // changes several-fold from one stretch to the next.
  const double two_calls = std::max(1.0, two.calls);
  double one_rpc = 0.0, one_unexplained = 0.0;
  std::vector<double> per_call;
  std::vector<Done> single;
  for (int k = 0; k < kSlices; ++k) {
    stats.reset(true);
    std::vector<Done> part = closed_loop(
        *fleet->service, key, rhs, 0.2 * o.seconds / kSlices, &wall, 1);
    const RpcSplit one = split_of(part, stats);
    per_call.push_back(frontend_rpc_s(0.5 * two.bytes / two_calls,
                                      two.compute / two_calls,
                                      0.1 * o.seconds / kSlices));
    one_rpc += one.rpc;
    one_unexplained += one.unexplained(per_call.back());
    for (Done& d : part) single.push_back(std::move(d));
  }
  const double dispatch_per_call = mean(per_call);
  fleet->service->shutdown();
  count(plain);
  count(traced);
  count(single);
  check_sample(traced);

  // Spans: one per request (client view), one per shard call under it.
  std::map<std::uint64_t, std::uint64_t> root;
  for (const Done& d : traced) {
    root[d.resp.request_id] = Tracer::get().record(
        "cluster.request", d.t0, d.t0 + d.latency, d.resp.request_id, 0);
  }
  // Shard ids come from a fleet-wide counter, so calls are grouped by id.
  std::map<std::uint64_t, std::map<std::uint32_t, std::vector<double>>> per_req;
  for (const WireStats::Call& c : two.log) {
    per_req[c.request][c.shard].push_back(c.t1 - c.t0);
    Tracer::get().record("cluster.worker_compute", c.t0, c.t1, c.request,
                         root.count(c.request) ? root[c.request] : 0);
  }
  std::vector<double> imbalance;
  for (const auto& [req, shards] : per_req) {
    std::size_t fans = shards.begin()->second.size();
    for (const auto& [id, t] : shards) fans = std::min(fans, t.size());
    for (std::size_t k = 0; k < fans; ++k) {
      double mx = 0.0, sum = 0.0;
      for (const auto& [id, t] : shards) {
        mx = std::max(mx, t[k]);
        sum += t[k];
      }
      if (sum > 0.0) {
        imbalance.push_back(mx / (sum / static_cast<double>(shards.size())));
      }
    }
  }

  out.metrics.add("cluster.rpc_s", two.rpc, "s");
  out.metrics.add("cluster.worker_compute_s", two.compute, "s");
  out.metrics.add("cluster.transport_s", two.rpc - two.compute, "s");
  out.metrics.add("cluster.wire_bytes_per_req", two.bytes, "bytes");
  out.metrics.add("cluster.rpcs_per_req", two.calls, "count");
  out.metrics.add("cluster.gather_scatter_s", two.gather, "s");
  out.metrics.add("cluster.shard_imbalance", median(imbalance), "ratio");
  out.metrics.add("cluster.wire_s", two.channel - two.compute, "s");
  out.metrics.add("cluster.dispatch_s", dispatch_per_call * two.calls, "s");
  out.metrics.add("cluster.worker_queue_s", two.unexplained(dispatch_per_call),
                  "s");
  out.metrics.add("cluster.closure_err", one_unexplained / one_rpc, "ratio");
  out.metrics.add("io.load_s", t_compile - t_load, "s");
  out.metrics.add("io.plan_compile_s", t_ready - t_compile, "s");
  out.metrics.add("io.compress_s", min_of(compress_s), "s");
  out.metrics.add("io.archive_bytes", file_bytes(path), "bytes");
  out.metrics.add("trace.overhead_pct",
                  100.0 * (median(latencies(traced)) /
                               median(latencies(plain)) - 1.0),
                  "%");
  report_bypassed(out.metrics, {Layer::kOocache, Layer::kServe});
  report_host(host, out.metrics);
  return out;
}

}  // namespace pb
