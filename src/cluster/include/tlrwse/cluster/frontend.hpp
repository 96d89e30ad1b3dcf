// Frontend of the distributed serving tier: admission, placement, remote
// solve orchestration.
//
// The frontend keeps the whole solve loop local — rFFT, LSQR, inverse rFFT
// — and ships only the per-frequency kernel MVMs to the workers, as
// RemoteMdcOperator. Because the workers run the exact FrequencyMvm
// arithmetic over the exact gathered bytes a local MdcOperator would (and
// each frequency bin is owned by exactly one shard), a distributed solve
// is bitwise identical to the single-process SolveService solving the same
// archive.
//
// Failure semantics: a worker death surfaces as TransportError inside one
// shard exchange; the frontend marks the worker dead, retries the shard on
// the next live replica, and only when no replica remains does the request
// fail — typed kWorkerFailed, never a hang. Deadlines travel in each
// ApplyMsg (remaining budget) and are also enforced between LSQR
// iterations; cancellation is a frontend flag plus a best-effort kCancel
// broadcast so workers abandon the shard mid-loop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tlrwse/cluster/shard_planner.hpp"
#include "tlrwse/cluster/transport.hpp"
#include "tlrwse/cluster/wire.hpp"
#include "tlrwse/fft/band_dft.hpp"
#include "tlrwse/mdc/linear_operator.hpp"
#include "tlrwse/mdd/lsqr.hpp"
#include "tlrwse/obs/metrics_registry.hpp"
#include "tlrwse/obs/slo_tracker.hpp"
#include "tlrwse/obs/stage_breakdown.hpp"
#include "tlrwse/obs/trace_context.hpp"
#include "tlrwse/obs/trace_merge.hpp"
#include "tlrwse/serve/admission_queue.hpp"
#include "tlrwse/serve/operator_cache.hpp"
#include "tlrwse/serve/solve_service.hpp"
#include "tlrwse/serve/task_executor.hpp"

namespace tlrwse::cluster {

/// Raised when a shard has no live replica left to serve an exchange.
/// Maps to ClusterStatus::kWorkerFailed — typed degradation, not a hang.
class WorkerFailure : public std::runtime_error {
 public:
  explicit WorkerFailure(const std::string& what)
      : std::runtime_error(what) {}
};

/// One connected worker. call_async() hands the frame to a dispatcher
/// thread (so fan-out to N workers overlaps even though each Channel is
/// one-call-at-a-time); a TransportError marks the worker dead and fails
/// everything still queued — callers re-route to replicas.
class WorkerClient {
 public:
  WorkerClient(std::unique_ptr<Channel> channel, std::string name);
  ~WorkerClient();
  WorkerClient(const WorkerClient&) = delete;
  WorkerClient& operator=(const WorkerClient&) = delete;

  [[nodiscard]] std::future<Frame> call_async(Frame request);
  /// Convenience synchronous exchange; rethrows the dispatcher's error.
  [[nodiscard]] Frame call(Frame request);

  [[nodiscard]] bool alive() const noexcept {
    return !dead_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Stops the dispatcher and closes the channel (failing queued calls).
  void close();

 private:
  struct Pending {
    Frame request;
    std::promise<Frame> reply;
  };

  void dispatch_loop();
  void mark_dead(const TransportError& err);

  std::unique_ptr<Channel> channel_;
  std::string name_;
  std::atomic<bool> dead_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool stop_ = false;
  std::exception_ptr death_;  // the TransportError that killed the worker
  std::thread dispatcher_;
};

/// Placement of one operator's frequencies onto the fleet.
struct ShardAssignment {
  std::uint32_t shard_id = 0;
  index_t q_begin = 0;  // archive frequency-index range of this shard
  index_t q_end = 0;
  std::vector<index_t> freq_bins;  // global rFFT bins, one per kernel
  /// Worker indices (into the fleet) holding this shard, in retry order.
  /// Sharded placements have one entry; replicated placements list every
  /// worker that finished the load.
  std::vector<std::size_t> workers;
};

struct Placement {
  index_t nt = 0;
  index_t ns = 0;
  index_t nr = 0;
  bool replicated = false;
  std::vector<ShardAssignment> shards;
};

/// Per-request observability state threaded through a RemoteMdcOperator.
/// Stage times are always accumulated (they feed the per-stage latency
/// histograms and the response's StageBreakdown); spans and clock samples
/// are only collected when `ctx.sampled` — the cost of a full distributed
/// timeline is opt-in per request.
struct RequestTrace {
  obs::TraceContext ctx;
  obs::StageBreakdown stages;
  /// Frontend-side spans (raw steady-clock ns), bounded; overflow counts
  /// into `dropped` so the merged timeline can be marked lossy.
  std::vector<obs::RemoteSpan> spans;
  std::uint64_t dropped = 0;
  /// RPC send/recv timestamp pairs per fleet index, for NTP-style clock
  /// alignment of that worker's spans against the frontend clock.
  std::vector<std::vector<obs::ClockSample>> clock_samples;
  /// Fleet indices that served at least one exchange of this request.
  std::vector<std::size_t> workers;

  static constexpr std::size_t kMaxSpans = 4096;

  std::uint64_t new_span_id() { return next_span_id_++; }
  void note_worker(std::size_t w) {
    for (const std::size_t seen : workers) {
      if (seen == w) return;
    }
    workers.push_back(w);
  }
  void add_span(std::string name, std::uint64_t span_id,
                std::uint64_t parent_span_id, std::uint64_t ts_ns,
                std::uint64_t dur_ns) {
    if (spans.size() >= kMaxSpans) {
      ++dropped;
      return;
    }
    obs::RemoteSpan s;
    s.name = std::move(name);
    s.trace_id = ctx.trace_id;
    s.span_id = span_id;
    s.parent_span_id = parent_span_id;
    s.ts_ns = ts_ns;
    s.dur_ns = dur_ns;
    spans.push_back(std::move(s));
  }

 private:
  std::uint64_t next_span_id_ = 1;
};

/// The MDC operator y = F^H K F x with the K stage executed remotely: the
/// band DFT locally over the placement's bins (in shard order), gather
/// each shard's per-frequency slices from the band page, exchange with a
/// live replica, scatter the replies into the output band page (shards own
/// disjoint band entries), inverse band DFT locally. One instance per
/// request; the placement and fleet are shared.
class RemoteMdcOperator final : public mdc::LinearOperator {
 public:
  /// `cancelled` (optional) is polled before every remote exchange; a true
  /// return aborts the apply with mdc::CancelledError, mirroring the
  /// CancelScope deadline poll of the local operator. `on_worker_death` is
  /// notified once per worker this operator discovers dead.
  /// `rt` (optional, not owned, must outlive the operator) accumulates
  /// per-stage latency and — when rt->ctx.sampled — spans and clock
  /// samples for the merged distributed timeline.
  RemoteMdcOperator(std::span<const std::unique_ptr<WorkerClient>> fleet,
                    std::shared_ptr<const Placement> placement,
                    std::uint64_t request_id,
                    std::chrono::steady_clock::time_point deadline_at = {},
                    std::function<bool()> cancelled = {},
                    std::function<void(std::size_t)> on_worker_death = {},
                    RequestTrace* rt = nullptr);

  [[nodiscard]] index_t rows() const override;
  [[nodiscard]] index_t cols() const override;

  void apply(std::span<const float> x, std::span<float> y) const override;
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override;
  /// Batched forms (nrhs wavefields back to back), one multi-RHS panel per
  /// remote frequency — the cluster counterpart of MdcOperator's batched
  /// applies, every RHS bitwise identical to its single-RHS call.
  void apply_batch(std::span<const float> X, std::span<float> Y,
                   index_t nrhs) const;
  void apply_adjoint_batch(std::span<const float> Y, std::span<float> X,
                           index_t nrhs) const;

 private:
  void run(std::span<const float> in, std::span<float> out, index_t nrhs,
           bool adjoint) const;
  /// One shard exchange with replica retry. Throws WorkerFailure when the
  /// replica list is exhausted, mdc::CancelledError on a typed
  /// kCancelled / kDeadlineExceeded reply.
  [[nodiscard]] ApplyOkMsg exchange(const ShardAssignment& shard,
                                    ApplyMsg msg) const;
  /// Folds one successful exchange's reply into `rt_`: clock sample, MVM
  /// vs RPC-overhead attribution, participating-worker set.
  void note_exchange(std::size_t worker, std::uint64_t t0_ns,
                     std::uint64_t t3_ns, const ApplyOkMsg& ok) const;
  void check_abort() const;
  [[nodiscard]] double remaining_deadline_s() const;

  std::span<const std::unique_ptr<WorkerClient>> fleet_;
  std::shared_ptr<const Placement> placement_;
  std::uint64_t request_id_;
  std::chrono::steady_clock::time_point deadline_at_;
  std::function<bool()> cancelled_;
  std::function<void(std::size_t)> on_worker_death_;
  RequestTrace* rt_ = nullptr;  // not owned; may be null
  fft::BandDft dft_;
  mutable std::mutex scratch_mu_;
  mutable std::vector<cf32> in_band_, out_band_;
};

enum class ClusterStatus {
  kOk,
  kQueueFull,         // bounded admission queue was full
  kQuotaExceeded,     // tenant's in-flight quota was exhausted
  kDeadlineExceeded,  // deadline hit before/during the solve
  kArchiveMissing,    // archive absent/unreadable at placement time
  kWorkerFailed,      // a shard lost every replica mid-solve
  kCancelled,         // cancel(request_id) landed before completion
  kError,             // unexpected failure (details in .error)
};
[[nodiscard]] const char* to_string(ClusterStatus s);

struct ClusterRequest {
  serve::OperatorKey op;  // archive_id doubles as the archive path
  serve::RequestKind kind = serve::RequestKind::kLsqr;
  std::string tenant;     // quota bucket; empty shares the default bucket
  index_t vsrc = -1;
  std::vector<float> rhs;
  mdd::LsqrConfig lsqr;
  double deadline_s = 0.0;
  /// Request a full distributed trace: worker spans are buffered, dumped,
  /// clock-aligned and merged into ClusterResponse::trace_json.
  bool trace = false;
};

struct ClusterResponse {
  ClusterStatus status = ClusterStatus::kOk;
  index_t vsrc = -1;
  std::uint64_t request_id = 0;
  std::vector<float> x;
  int iterations = 0;
  double residual_norm = 0.0;
  double queue_wait_s = 0.0;
  double solve_s = 0.0;
  double total_s = 0.0;
  /// Per-stage latency attribution for this request (always filled for
  /// solved requests, regardless of tracing).
  obs::StageBreakdown stages;
  /// chrome://tracing timeline merged across frontend + workers; empty
  /// unless the request set `trace`.
  std::string trace_json;
  std::string error;
};

struct ClusterConfig {
  int frontend_workers = 2;         // concurrent solve batches
  std::size_t queue_capacity = 64;  // admission bound
  std::size_t max_batch = 4;        // per-operator coalescing limit
  /// Max in-flight (queued + solving) requests per tenant; 0 = unlimited.
  std::size_t tenant_quota = 0;
  PlannerConfig planner;            // num_workers is overridden per plan
  /// Latency/availability objectives for the rolling SLO window; latency
  /// breaches persist exemplars when `slo.exemplar_dir` is set.
  obs::SloConfig slo;
};

/// Handle returned by submit(): the id is live immediately (usable for
/// cancel() while the request is still queued), the future resolves when
/// the request finishes or is rejected.
struct SubmittedRequest {
  std::uint64_t request_id = 0;
  std::future<ClusterResponse> response;
};

/// The RPC front door: bounded admission + per-tenant quotas (front half
/// shared with serve::SolveService via AdmissionQueue), deduplicated
/// placement/loading of archives onto the worker fleet, per-operator
/// batched solving over RemoteMdcOperator, typed degradation on worker
/// death, and a fleet-wide merged metrics view.
class ClusterService {
 public:
  ClusterService(ClusterConfig cfg,
                 std::vector<std::unique_ptr<WorkerClient>> workers);
  ~ClusterService();
  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  [[nodiscard]] SubmittedRequest submit(ClusterRequest req);

  /// Flags the request locally and broadcasts kCancel to the fleet
  /// (best-effort): queued requests reject at dequeue, in-flight solves
  /// abort between frequency MVMs / LSQR iterations. Returns false, and
  /// records and sends nothing, when the id is unknown or already answered.
  bool cancel(std::uint64_t request_id);

  /// Stops admission, drains admitted requests, joins the solve workers,
  /// then asks every live remote worker to shut down. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t live_workers() const;
  /// Frontend-only metrics ("cluster.*" names).
  [[nodiscard]] const obs::MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  /// Frontend snapshot merged with every live worker's (worker.* names),
  /// via obs::merge_snapshots.
  [[nodiscard]] obs::MetricsRegistry::Snapshot cluster_snapshot();
  /// Fleet-wide Prometheus exposition text: the frontend's and every live
  /// worker's snapshot merged, then rendered (cumulative histograms).
  [[nodiscard]] std::string fleet_prometheus_text();

  /// One worker's health as seen from the frontend. `alive == false`
  /// means the poll failed (or the worker was already marked dead); the
  /// embedded HealthOkMsg is then default-constructed.
  struct WorkerHealth {
    std::string name;
    bool alive = false;
    HealthOkMsg health;
  };
  /// Polls every fleet member with kHealth (dead workers are reported,
  /// not skipped, so the fleet view shows holes).
  [[nodiscard]] std::vector<WorkerHealth> fleet_health();
  /// fleet_health() rendered as a JSON document (for --health-out and the
  /// live --watch view).
  [[nodiscard]] std::string fleet_health_json();

  /// The rolling SLO window (p50/p95/p99, error-budget burn rate).
  [[nodiscard]] obs::SloTracker::Window slo_window() const {
    return slo_.window();
  }

 private:
  struct Ticket {
    ClusterRequest req;
    std::uint64_t id = 0;
    std::promise<ClusterResponse> done;
    std::chrono::steady_clock::time_point admitted;
  };

  void worker_loop();
  void process_batch(const serve::OperatorKey& key,
                     std::vector<Ticket> batch);
  void solve_ticket(Ticket& ticket,
                    const std::shared_ptr<const Placement>& placement,
                    double load_s);
  /// Serves >= 2 deadline-free adjoint tickets with one multi-RHS remote
  /// sweep (each RHS bitwise identical to its single solve).
  void solve_adjoint_group(std::vector<Ticket>& batch,
                           const std::vector<std::size_t>& adj,
                           const std::shared_ptr<const Placement>& placement,
                           double load_s);
  [[nodiscard]] std::shared_ptr<const Placement> resolve_placement(
      const serve::OperatorKey& key);
  [[nodiscard]] std::shared_ptr<const Placement> build_placement(
      const serve::OperatorKey& key);
  [[nodiscard]] bool is_cancelled(std::uint64_t id) const;
  void note_worker_death(std::size_t worker);
  /// Drops the cached placement after a kWorkerFailed solve so the next
  /// request for this operator replans over the workers still alive.
  void invalidate_placement(const serve::OperatorKey& key);
  void respond(Ticket& ticket, ClusterResponse r);
  /// Feeds one finished response into the SLO window and persists an
  /// exemplar on a latency breach. Called from respond() so rejects count
  /// as availability errors too.
  void record_slo(const ClusterResponse& r);
  /// kTraceDump every participating worker, align clocks from the
  /// request's RPC timestamp pairs, merge into one timeline JSON.
  [[nodiscard]] std::string collect_trace(RequestTrace& rt);

  ClusterConfig cfg_;
  std::vector<std::unique_ptr<WorkerClient>> fleet_;

  mutable obs::MetricsRegistry registry_;
  obs::Counter& submitted_;
  obs::Counter& admitted_;
  obs::Counter& completed_;
  obs::Counter& rejected_full_;
  obs::Counter& rejected_quota_;
  obs::Counter& rejected_deadline_;
  obs::Counter& rejected_missing_;
  obs::Counter& worker_failed_;
  obs::Counter& cancelled_count_;
  obs::Counter& failed_;
  obs::Counter& worker_deaths_;
  obs::Counter& placements_;
  obs::Counter& replans_;
  obs::Histogram& solve_hist_;
  obs::StageRecorder stage_recorder_;
  obs::SloTracker slo_;

  serve::AdmissionQueue<serve::OperatorKey, Ticket, serve::OperatorKeyHash>
      queue_;
  std::atomic<bool> shut_down_{false};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint32_t> next_shard_id_{1};

  mutable std::mutex state_mu_;
  // Both hold only in-flight requests: a tenant's key goes when its count
  // reaches zero, an id when respond() answers it.
  std::unordered_map<std::string, std::size_t> tenant_inflight_;
  std::unordered_map<std::uint64_t, bool> live_;  // id -> cancel requested
  std::unordered_map<serve::OperatorKey,
                     std::shared_future<std::shared_ptr<const Placement>>,
                     serve::OperatorKeyHash>
      placements_cache_;
  std::unordered_set<std::size_t> dead_noted_;

  serve::TaskExecutor exec_;  // declared last: workers see live members
  std::vector<std::future<void>> worker_futures_;
};

}  // namespace tlrwse::cluster
