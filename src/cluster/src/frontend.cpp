#include "tlrwse/cluster/frontend.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "tlrwse/common/error.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/cancellation.hpp"
#include "tlrwse/obs/prometheus.hpp"

namespace tlrwse::cluster {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// An archive-side load failure (file missing, bad range) — distinct from
/// WorkerFailure so the service can answer kArchiveMissing vs
/// kWorkerFailed.
class ArchiveFailure : public std::runtime_error {
 public:
  explicit ArchiveFailure(const std::string& what)
      : std::runtime_error(what) {}
};

/// Maps a worker's reply frame to ApplyOkMsg or the matching exception.
ApplyOkMsg parse_apply_reply(const Frame& reply) {
  if (reply.type == static_cast<std::uint16_t>(MsgType::kApplyOk)) {
    return ApplyOkMsg::from_frame(reply);
  }
  if (reply.type == static_cast<std::uint16_t>(MsgType::kError)) {
    const ErrorMsg err = ErrorMsg::from_frame(reply);
    if (err.code == WireErrorCode::kCancelled ||
        err.code == WireErrorCode::kDeadlineExceeded) {
      throw mdc::CancelledError(err.message);
    }
    throw WorkerFailure(std::string("worker error (") + to_string(err.code) +
                        "): " + err.message);
  }
  throw WorkerFailure("unexpected apply reply frame type " +
                      std::to_string(reply.type));
}

LoadShardOkMsg parse_load_reply(const Frame& reply) {
  if (reply.type == static_cast<std::uint16_t>(MsgType::kLoadShardOk)) {
    return LoadShardOkMsg::from_frame(reply);
  }
  if (reply.type == static_cast<std::uint16_t>(MsgType::kError)) {
    const ErrorMsg err = ErrorMsg::from_frame(reply);
    throw ArchiveFailure(std::string("shard load failed (") +
                         to_string(err.code) + "): " + err.message);
  }
  throw WorkerFailure("unexpected load reply frame type " +
                      std::to_string(reply.type));
}

/// The frontend's transform: the band DFT over every shard's bins in shard
/// order, which for a sharded placement is the archive's frequency order —
/// the same band, in the same order, as the single-process MdcOperator, so
/// both transforms produce the same bits.
fft::BandDft placement_band(const Placement* pl) {
  TLRWSE_REQUIRE(pl != nullptr, "RemoteMdcOperator: null placement");
  TLRWSE_REQUIRE(!pl->shards.empty(), "RemoteMdcOperator: empty placement");
  std::vector<index_t> bins;
  for (const ShardAssignment& shard : pl->shards) {
    bins.insert(bins.end(), shard.freq_bins.begin(), shard.freq_bins.end());
  }
  return fft::BandDft(pl->nt, bins);
}

}  // namespace

// --- WorkerClient ---------------------------------------------------------

WorkerClient::WorkerClient(std::unique_ptr<Channel> channel, std::string name)
    : channel_(std::move(channel)), name_(std::move(name)) {
  TLRWSE_REQUIRE(channel_ != nullptr, "WorkerClient: null channel");
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

WorkerClient::~WorkerClient() { close(); }

std::future<Frame> WorkerClient::call_async(Frame request) {
  Pending p;
  p.request = std::move(request);
  std::future<Frame> fut = p.reply.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      p.reply.set_exception(
          death_ ? death_
                 : std::make_exception_ptr(TransportError(
                       TransportError::Kind::kClosed,
                       "worker " + name_ + " is closed")));
      return fut;
    }
    pending_.push_back(std::move(p));
  }
  cv_.notify_one();
  return fut;
}

Frame WorkerClient::call(Frame request) {
  return call_async(std::move(request)).get();
}

void WorkerClient::dispatch_loop() {
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stop with nothing left to drain
      p = std::move(pending_.front());
      pending_.pop_front();
    }
    try {
      p.reply.set_value(channel_->call(p.request));
    } catch (const TransportError& e) {
      p.reply.set_exception(std::current_exception());
      mark_dead(e);
      return;
    } catch (...) {
      p.reply.set_exception(std::current_exception());
    }
  }
}

void WorkerClient::mark_dead(const TransportError& err) {
  std::deque<Pending> drain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!death_) death_ = std::make_exception_ptr(err);
    stop_ = true;
    drain.swap(pending_);
  }
  dead_.store(true, std::memory_order_release);
  cv_.notify_all();
  for (auto& p : drain) p.reply.set_exception(death_);
}

void WorkerClient::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  std::deque<Pending> drain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!death_) {
      death_ = std::make_exception_ptr(TransportError(
          TransportError::Kind::kClosed, "worker " + name_ + " is closed"));
    }
    drain.swap(pending_);
  }
  dead_.store(true, std::memory_order_release);
  for (auto& p : drain) p.reply.set_exception(death_);
  if (channel_) channel_->close();
}

// --- RemoteMdcOperator ----------------------------------------------------

RemoteMdcOperator::RemoteMdcOperator(
    std::span<const std::unique_ptr<WorkerClient>> fleet,
    std::shared_ptr<const Placement> placement, std::uint64_t request_id,
    Clock::time_point deadline_at, std::function<bool()> cancelled,
    std::function<void(std::size_t)> on_worker_death, RequestTrace* rt)
    : fleet_(fleet),
      placement_(std::move(placement)),
      request_id_(request_id),
      deadline_at_(deadline_at),
      cancelled_(std::move(cancelled)),
      on_worker_death_(std::move(on_worker_death)),
      rt_(rt),
      dft_(placement_band(placement_.get())) {
  if (rt_ != nullptr) rt_->clock_samples.resize(fleet_.size());
}

index_t RemoteMdcOperator::rows() const {
  return placement_->nt * placement_->ns;
}

index_t RemoteMdcOperator::cols() const {
  return placement_->nt * placement_->nr;
}

void RemoteMdcOperator::apply(std::span<const float> x,
                              std::span<float> y) const {
  run(x, y, 1, /*adjoint=*/false);
}

void RemoteMdcOperator::apply_adjoint(std::span<const float> y,
                                      std::span<float> x) const {
  run(y, x, 1, /*adjoint=*/true);
}

void RemoteMdcOperator::apply_batch(std::span<const float> X,
                                    std::span<float> Y, index_t nrhs) const {
  run(X, Y, nrhs, /*adjoint=*/false);
}

void RemoteMdcOperator::apply_adjoint_batch(std::span<const float> Y,
                                            std::span<float> X,
                                            index_t nrhs) const {
  run(Y, X, nrhs, /*adjoint=*/true);
}

void RemoteMdcOperator::check_abort() const {
  if (cancelled_ && cancelled_()) throw mdc::CancelledError();
  if (deadline_at_ != Clock::time_point{} && Clock::now() >= deadline_at_) {
    throw mdc::CancelledError("deadline exceeded");
  }
}

double RemoteMdcOperator::remaining_deadline_s() const {
  if (deadline_at_ == Clock::time_point{}) return 0.0;
  return std::max(1e-9, seconds_between(Clock::now(), deadline_at_));
}

void RemoteMdcOperator::note_exchange(std::size_t worker, std::uint64_t t0_ns,
                                      std::uint64_t t3_ns,
                                      const ApplyOkMsg& ok) const {
  if (rt_ == nullptr) return;
  rt_->note_worker(worker);
  const double round_trip_s = 1e-9 * static_cast<double>(t3_ns - t0_ns);
  if (ok.worker_recv_ns != 0 && ok.worker_send_ns >= ok.worker_recv_ns) {
    // v2 reply: split the round trip into worker compute (MVM) and
    // everything else (serialization + transport + queueing = RPC).
    const double worker_s =
        1e-9 * static_cast<double>(ok.worker_send_ns - ok.worker_recv_ns);
    rt_->stages.mvm_s += std::min(worker_s, round_trip_s);
    rt_->stages.rpc_s += std::max(0.0, round_trip_s - worker_s);
    rt_->clock_samples[worker].push_back(
        obs::ClockSample{t0_ns, ok.worker_recv_ns, ok.worker_send_ns, t3_ns});
  } else {
    // v1 worker: no clock stamps — the whole round trip is RPC time.
    rt_->stages.rpc_s += round_trip_s;
  }
}

ApplyOkMsg RemoteMdcOperator::exchange(const ShardAssignment& shard,
                                       ApplyMsg msg) const {
  const Frame request = msg.to_frame();
  for (const std::size_t w : shard.workers) {
    WorkerClient& client = *fleet_[w];
    if (!client.alive()) continue;
    try {
      const std::uint64_t t0 = obs::steady_now_ns();
      ApplyOkMsg ok = parse_apply_reply(client.call(request));
      note_exchange(w, t0, obs::steady_now_ns(), ok);
      return ok;
    } catch (const TransportError&) {
      if (on_worker_death_) on_worker_death_(w);
      continue;  // next replica
    }
  }
  throw WorkerFailure("no live replica for shard " +
                      std::to_string(shard.shard_id));
}

void RemoteMdcOperator::run(std::span<const float> in, std::span<float> out,
                            index_t nrhs, bool adjoint) const {
  const Placement& pl = *placement_;
  const index_t nt = pl.nt;
  const index_t ldq = dft_.ldq();
  const index_t in_traces = adjoint ? pl.ns : pl.nr;
  const index_t out_traces = adjoint ? pl.nr : pl.ns;
  TLRWSE_REQUIRE(nrhs >= 1, "RemoteMdcOperator: nrhs");
  TLRWSE_REQUIRE(static_cast<index_t>(in.size()) == nt * in_traces * nrhs,
                 "RemoteMdcOperator: input size");
  TLRWSE_REQUIRE(static_cast<index_t>(out.size()) == nt * out_traces * nrhs,
                 "RemoteMdcOperator: output size");
  check_abort();

  // One apply at a time per operator instance (LSQR drives applies
  // sequentially); the instance-level scratch mirrors MdcOperator's
  // per-thread PageScratch.
  std::lock_guard<std::mutex> lock(scratch_mu_);

  const bool sampled = rt_ != nullptr && rt_->ctx.sampled;
  const std::uint64_t run_span = sampled ? rt_->new_span_id() : 0;
  const std::uint64_t run_start = rt_ != nullptr ? obs::steady_now_ns() : 0;

  // F: local band DFT of every RHS — identical to MdcOperator's forward
  // stage.
  in_band_.resize(static_cast<std::size_t>(ldq * in_traces * nrhs));
  out_band_.resize(static_cast<std::size_t>(ldq * out_traces * nrhs));
  dft_.forward(in, in_traces * nrhs, in_band_, /*team=*/0);
  std::uint64_t mark = 0;
  if (rt_ != nullptr) {
    mark = obs::steady_now_ns();
    rt_->stages.fft_s += 1e-9 * static_cast<double>(mark - run_start);
    if (sampled) {
      rt_->add_span("frontend.rfft", rt_->new_span_id(), run_span, run_start,
                    mark - run_start);
    }
  }

  // K (remote): gather each shard's per-frequency panels and fan out. The
  // gather formulas match MdcOperator's kernel loop exactly, so workers
  // see the same bytes a local FreqScratch would. Shard s owns the band
  // entries [off, off + nq) in shard order.
  const std::size_t nshards = pl.shards.size();
  std::vector<ApplyMsg> msgs(nshards);
  /// Per-shard RPC span ids; the worker parents its apply span under the
  /// shard's RPC span, so the merged timeline nests correctly.
  std::vector<std::uint64_t> rpc_spans(nshards, 0);
  const std::span<const cf32> in_band(in_band_);
  index_t off = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    const ShardAssignment& shard = pl.shards[s];
    ApplyMsg& msg = msgs[s];
    msg.request_id = request_id_;
    msg.shard_id = shard.shard_id;
    msg.adjoint = adjoint;
    msg.nrhs = nrhs;
    msg.deadline_s = remaining_deadline_s();
    if (sampled) {
      rpc_spans[s] = rt_->new_span_id();
      msg.trace.trace_id = rt_->ctx.trace_id;
      msg.trace.parent_span_id = rpc_spans[s];
      msg.trace.sampled = true;
    }
    const auto nq = static_cast<index_t>(shard.freq_bins.size());
    msg.data.resize(static_cast<std::size_t>(nq * nrhs * in_traces));
    for (index_t q = 0; q < nq; ++q) {
      cf32* dst = msg.data.data() + q * nrhs * in_traces;
      for (index_t i = 0; i < nrhs * in_traces; ++i) {
        dst[i] = in_band[static_cast<std::size_t>(i * ldq + off + q)];
      }
    }
    off += nq;
  }
  if (rt_ != nullptr) {
    const std::uint64_t now = obs::steady_now_ns();
    rt_->stages.gather_scatter_s += 1e-9 * static_cast<double>(now - mark);
    if (sampled) {
      rt_->add_span("frontend.gather", rt_->new_span_id(), run_span, mark,
                    now - mark);
    }
    mark = now;
  }

  // Dispatch every shard's exchange concurrently (each worker's dispatcher
  // runs its call), then collect with per-shard replica retry.
  struct InFlight {
    std::future<Frame> fut;
    std::size_t worker = 0;
    std::uint64_t t0_ns = 0;
    bool dispatched = false;
  };
  std::vector<InFlight> flights(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    for (const std::size_t w : pl.shards[s].workers) {
      if (fleet_[w]->alive()) {
        flights[s].t0_ns = rt_ != nullptr ? obs::steady_now_ns() : 0;
        flights[s].fut = fleet_[w]->call_async(msgs[s].to_frame());
        flights[s].worker = w;
        flights[s].dispatched = true;
        break;
      }
    }
  }

  const std::span<cf32> out_band(out_band_);
  double scatter_s = 0.0;
  off = 0;
  for (std::size_t s = 0; s < nshards; ++s) {
    const ShardAssignment& shard = pl.shards[s];
    ApplyOkMsg ok;
    bool have = false;
    if (flights[s].dispatched) {
      try {
        ok = parse_apply_reply(flights[s].fut.get());
        note_exchange(flights[s].worker, flights[s].t0_ns,
                      rt_ != nullptr ? obs::steady_now_ns() : 0, ok);
        have = true;
      } catch (const TransportError&) {
        if (on_worker_death_) on_worker_death_(flights[s].worker);
      }
    }
    const std::uint64_t rpc_start =
        flights[s].dispatched && have ? flights[s].t0_ns
        : sampled                     ? obs::steady_now_ns()
                                      : 0;
    if (!have) ok = exchange(shard, std::move(msgs[s]));
    if (sampled) {
      rt_->add_span("frontend.rpc shard=" + std::to_string(shard.shard_id),
                    rpc_spans[s], run_span, rpc_start,
                    obs::steady_now_ns() - rpc_start);
    }

    const auto nq = static_cast<index_t>(shard.freq_bins.size());
    if (static_cast<index_t>(ok.data.size()) != nq * nrhs * out_traces) {
      throw WorkerFailure("shard " + std::to_string(shard.shard_id) +
                          " returned a malformed apply result");
    }
    // Scatter into the output band page; shards own disjoint band
    // entries, and together every live one, so writes never overlap.
    const std::uint64_t scatter_start =
        rt_ != nullptr ? obs::steady_now_ns() : 0;
    for (index_t q = 0; q < nq; ++q) {
      const cf32* src = ok.data.data() + q * nrhs * out_traces;
      for (index_t o = 0; o < nrhs * out_traces; ++o) {
        out_band[static_cast<std::size_t>(o * ldq + off + q)] = src[o];
      }
    }
    off += nq;
    if (rt_ != nullptr) {
      scatter_s +=
          1e-9 * static_cast<double>(obs::steady_now_ns() - scatter_start);
    }
  }
  if (rt_ != nullptr) rt_->stages.gather_scatter_s += scatter_s;

  // F^H: local inverse band DFT of every RHS.
  const std::uint64_t ifft_start = rt_ != nullptr ? obs::steady_now_ns() : 0;
  dft_.inverse(out_band_, out_traces * nrhs, out, /*team=*/0);
  if (rt_ != nullptr) {
    const std::uint64_t now = obs::steady_now_ns();
    rt_->stages.fft_s += 1e-9 * static_cast<double>(now - ifft_start);
    if (sampled) {
      rt_->add_span("frontend.irfft", rt_->new_span_id(), run_span,
                    ifft_start, now - ifft_start);
      rt_->add_span(adjoint ? "frontend.apply_adjoint" : "frontend.apply",
                    run_span, rt_->ctx.parent_span_id, run_start,
                    now - run_start);
    }
  }
}

// --- ClusterService -------------------------------------------------------

const char* to_string(ClusterStatus s) {
  switch (s) {
    case ClusterStatus::kOk: return "ok";
    case ClusterStatus::kQueueFull: return "queue_full";
    case ClusterStatus::kQuotaExceeded: return "quota_exceeded";
    case ClusterStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ClusterStatus::kArchiveMissing: return "archive_missing";
    case ClusterStatus::kWorkerFailed: return "worker_failed";
    case ClusterStatus::kCancelled: return "cancelled";
    case ClusterStatus::kError: return "error";
  }
  return "unknown";
}

ClusterService::ClusterService(
    ClusterConfig cfg, std::vector<std::unique_ptr<WorkerClient>> workers)
    : cfg_(cfg),
      fleet_(std::move(workers)),
      submitted_(registry_.counter("cluster.submitted")),
      admitted_(registry_.counter("cluster.admitted")),
      completed_(registry_.counter("cluster.completed")),
      rejected_full_(registry_.counter("cluster.rejected_queue_full")),
      rejected_quota_(registry_.counter("cluster.rejected_quota")),
      rejected_deadline_(registry_.counter("cluster.rejected_deadline")),
      rejected_missing_(registry_.counter("cluster.rejected_archive_missing")),
      worker_failed_(registry_.counter("cluster.worker_failed")),
      cancelled_count_(registry_.counter("cluster.cancelled")),
      failed_(registry_.counter("cluster.failed")),
      worker_deaths_(registry_.counter("cluster.worker_deaths")),
      placements_(registry_.counter("cluster.placements")),
      replans_(registry_.counter("cluster.replans")),
      solve_hist_(registry_.histogram("cluster.solve_s")),
      stage_recorder_(registry_, "cluster"),
      slo_(cfg_.slo),
      queue_(cfg.queue_capacity),
      exec_(std::max(1, cfg.frontend_workers)) {
  TLRWSE_REQUIRE(!fleet_.empty(), "cluster: need at least one worker");
  worker_futures_.reserve(static_cast<std::size_t>(exec_.thread_count()));
  for (int w = 0; w < exec_.thread_count(); ++w) {
    worker_futures_.push_back(exec_.submit([this] { worker_loop(); }));
  }
}

ClusterService::~ClusterService() { shutdown(); }

SubmittedRequest ClusterService::submit(ClusterRequest req) {
  Ticket ticket;
  ticket.req = std::move(req);
  ticket.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  ticket.admitted = Clock::now();

  SubmittedRequest out;
  out.request_id = ticket.id;
  out.response = ticket.done.get_future();
  submitted_.add();

  if (cfg_.tenant_quota > 0) {
    std::lock_guard<std::mutex> lock(state_mu_);
    std::size_t& inflight = tenant_inflight_[ticket.req.tenant];
    if (inflight >= cfg_.tenant_quota) {
      rejected_quota_.add();
      ClusterResponse r;
      r.status = ClusterStatus::kQuotaExceeded;
      r.vsrc = ticket.req.vsrc;
      r.request_id = ticket.id;
      ticket.done.set_value(std::move(r));
      return out;
    }
    ++inflight;  // released by respond()
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    live_.emplace(ticket.id, false);  // erased by respond()
  }

  const auto push = queue_.try_push(ticket.req.op, ticket);
  if (push.admitted) {
    admitted_.add();
    return out;
  }
  rejected_full_.add();
  ClusterResponse r;
  r.status = ClusterStatus::kQueueFull;
  respond(ticket, std::move(r));
  return out;
}

bool ClusterService::cancel(std::uint64_t request_id) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = live_.find(request_id);
    if (it == live_.end()) return false;
    it->second = true;
  }
  // Best-effort broadcast; a dead worker just drops it.
  CancelMsg msg;
  msg.request_id = request_id;
  const Frame frame = msg.to_frame();
  for (const auto& worker : fleet_) {
    if (worker->alive()) (void)worker->call_async(frame);
  }
  return true;
}

void ClusterService::shutdown() {
  if (shut_down_.exchange(true)) return;
  queue_.close();
  exec_.shutdown();
  for (auto& f : worker_futures_) {
    if (f.valid()) f.get();
  }
  const Frame bye = ShutdownMsg{}.to_frame();
  for (const auto& worker : fleet_) {
    if (!worker->alive()) continue;
    try {
      (void)worker->call(bye);
    } catch (const std::exception&) {
      // Already gone; shutdown is best-effort.
    }
  }
  for (const auto& worker : fleet_) worker->close();
}

std::size_t ClusterService::live_workers() const {
  std::size_t n = 0;
  for (const auto& worker : fleet_) n += worker->alive() ? 1 : 0;
  return n;
}

obs::MetricsRegistry::Snapshot ClusterService::cluster_snapshot() {
  std::vector<obs::MetricsRegistry::Snapshot> snaps;
  snaps.push_back(registry_.snapshot());
  const Frame request = MetricsMsg{}.to_frame();
  for (const auto& worker : fleet_) {
    if (!worker->alive()) continue;
    try {
      const Frame reply = worker->call(request);
      if (reply.type == static_cast<std::uint16_t>(MsgType::kMetricsOk)) {
        snaps.push_back(MetricsOkMsg::from_frame(reply).snapshot);
      }
    } catch (const std::exception&) {
      // A dying worker's numbers are simply absent from the merge.
    }
  }
  return obs::merge_snapshots(snaps);
}

std::string ClusterService::fleet_prometheus_text() {
  std::vector<obs::MetricsRegistry::Snapshot> snaps;
  snaps.push_back(registry_.snapshot());
  const Frame request = MetricsMsg{}.to_frame();
  for (const auto& worker : fleet_) {
    if (!worker->alive()) continue;
    try {
      const Frame reply = worker->call(request);
      if (reply.type == static_cast<std::uint16_t>(MsgType::kMetricsOk)) {
        snaps.push_back(MetricsOkMsg::from_frame(reply).snapshot);
      }
    } catch (const std::exception&) {
      // A dying worker's numbers are simply absent from the merge.
    }
  }
  return obs::fleet_to_prometheus_text(snaps);
}

std::vector<ClusterService::WorkerHealth> ClusterService::fleet_health() {
  std::vector<WorkerHealth> out;
  out.reserve(fleet_.size());
  const Frame request = HealthMsg{}.to_frame();
  for (const auto& worker : fleet_) {
    WorkerHealth wh;
    wh.name = worker->name();
    if (worker->alive()) {
      try {
        const Frame reply = worker->call(request);
        if (reply.type == static_cast<std::uint16_t>(MsgType::kHealthOk)) {
          wh.health = HealthOkMsg::from_frame(reply);
          wh.alive = true;
        }
      } catch (const std::exception&) {
        // Poll failure reads as a dead worker in the fleet view.
      }
    }
    out.push_back(std::move(wh));
  }
  return out;
}

std::string ClusterService::fleet_health_json() {
  const std::vector<WorkerHealth> fleet = fleet_health();
  const obs::SloTracker::Window win = slo_.window();
  std::ostringstream os;
  os << "{\"live_workers\":" << live_workers()
     << ",\"slo\":{\"count\":" << win.count << ",\"errors\":" << win.errors
     << ",\"breaches\":" << win.breaches << ",\"p50_s\":" << win.p50_s
     << ",\"p95_s\":" << win.p95_s << ",\"p99_s\":" << win.p99_s
     << ",\"burn_rate\":" << win.burn_rate << "},\"workers\":[";
  for (std::size_t w = 0; w < fleet.size(); ++w) {
    const WorkerHealth& wh = fleet[w];
    if (w != 0) os << ",";
    os << "{\"name\":\"" << wh.name << "\",\"alive\":"
       << (wh.alive ? "true" : "false")
       << ",\"uptime_s\":" << 1e-9 * static_cast<double>(wh.health.uptime_ns)
       << ",\"inflight\":" << wh.health.inflight
       << ",\"applies\":" << wh.health.applies
       << ",\"resident_bytes\":" << wh.health.resident_bytes
       << ",\"streamed_bytes\":" << wh.health.streamed_bytes
       << ",\"stall_s\":" << wh.health.stall_s
       << ",\"dropped_spans\":" << wh.health.dropped_spans << ",\"shards\":[";
    for (std::size_t s = 0; s < wh.health.shards.size(); ++s) {
      const auto& sh = wh.health.shards[s];
      if (s != 0) os << ",";
      os << "{\"shard_id\":" << sh.shard_id << ",\"q_begin\":" << sh.q_begin
         << ",\"q_end\":" << sh.q_end << ",\"num_freqs\":" << sh.num_freqs
         << ",\"bytes\":" << sh.bytes << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

void ClusterService::worker_loop() {
  for (;;) {
    serve::OperatorKey key;
    std::vector<Ticket> batch = queue_.pop_batch(cfg_.max_batch, key);
    if (batch.empty()) return;  // closed and drained
    process_batch(key, std::move(batch));
  }
}

void ClusterService::process_batch(const serve::OperatorKey& key,
                                   std::vector<Ticket> batch) {
  std::shared_ptr<const Placement> placement;
  const auto load_start = Clock::now();
  try {
    placement = resolve_placement(key);
  } catch (const WorkerFailure& e) {
    for (auto& ticket : batch) {
      worker_failed_.add();
      ClusterResponse r;
      r.status = ClusterStatus::kWorkerFailed;
      r.error = e.what();
      respond(ticket, std::move(r));
    }
    return;
  } catch (const std::exception& e) {
    for (auto& ticket : batch) {
      rejected_missing_.add();
      ClusterResponse r;
      r.status = ClusterStatus::kArchiveMissing;
      r.error = e.what();
      respond(ticket, std::move(r));
    }
    return;
  }
  // Placement resolution (first request pays the shard loads; later ones
  // hit the cache) is this batch's "load" stage.
  const double load_s = seconds_between(load_start, Clock::now());

  // Coalescible adjoints: no deadline, not cancelled. Everything else is
  // solved individually with its own deadline/cancel plumbing.
  std::vector<std::size_t> adjoint_group;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Ticket& t = batch[i];
    if (t.req.kind == serve::RequestKind::kAdjoint &&
        t.req.deadline_s <= 0.0 && !is_cancelled(t.id) &&
        static_cast<index_t>(t.req.rhs.size()) ==
            placement->nt * placement->ns) {
      adjoint_group.push_back(i);
    }
  }
  if (adjoint_group.size() >= 2) {
    solve_adjoint_group(batch, adjoint_group, placement, load_s);
  } else {
    adjoint_group.clear();
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (std::find(adjoint_group.begin(), adjoint_group.end(), i) !=
        adjoint_group.end()) {
      continue;  // already answered by the grouped sweep
    }
    solve_ticket(batch[i], placement, load_s);
  }
}

void ClusterService::solve_adjoint_group(
    std::vector<Ticket>& batch, const std::vector<std::size_t>& adj,
    const std::shared_ptr<const Placement>& placement, double load_s) {
  const auto nrhs = static_cast<index_t>(adj.size());
  const index_t rows = placement->nt * placement->ns;
  const index_t cols = placement->nt * placement->nr;
  std::vector<float> Y(static_cast<std::size_t>(rows * nrhs));
  std::vector<float> X(static_cast<std::size_t>(cols * nrhs));
  for (index_t r = 0; r < nrhs; ++r) {
    const Ticket& t = batch[adj[static_cast<std::size_t>(r)]];
    std::copy(t.req.rhs.begin(), t.req.rhs.end(),
              Y.begin() + static_cast<std::ptrdiff_t>(r * rows));
  }
  const auto t0 = Clock::now();
  // Stage attribution only (no sampling): the grouped sweep shares one
  // remote pass, so its stage times are shared by every grouped ticket.
  RequestTrace rt;
  rt.stages.load_s = load_s;
  try {
    // request_id 0 is never issued to callers, so the group can't be hit
    // by a cancel; deadline-carrying tickets were excluded above.
    RemoteMdcOperator op(fleet_, placement, /*request_id=*/0, {}, {},
                         [this](std::size_t w) { note_worker_death(w); },
                         &rt);
    op.apply_adjoint_batch(Y, X, nrhs);
  } catch (const WorkerFailure& e) {
    invalidate_placement(batch[adj.front()].req.op);
    for (const std::size_t i : adj) {
      worker_failed_.add();
      ClusterResponse r;
      r.status = ClusterStatus::kWorkerFailed;
      r.error = e.what();
      respond(batch[i], std::move(r));
    }
    return;
  } catch (const std::exception& e) {
    for (const std::size_t i : adj) {
      failed_.add();
      ClusterResponse r;
      r.status = ClusterStatus::kError;
      r.error = e.what();
      respond(batch[i], std::move(r));
    }
    return;
  }
  const double solve_s = seconds_between(t0, Clock::now());
  for (index_t r = 0; r < nrhs; ++r) {
    Ticket& t = batch[adj[static_cast<std::size_t>(r)]];
    ClusterResponse resp;
    resp.status = ClusterStatus::kOk;
    resp.x.assign(X.begin() + static_cast<std::ptrdiff_t>(r * cols),
                  X.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    resp.queue_wait_s = seconds_between(t.admitted, t0);
    resp.solve_s = solve_s;
    resp.stages = rt.stages;
    resp.stages.queue_wait_s = resp.queue_wait_s;
    solve_hist_.record(solve_s);
    stage_recorder_.record(resp.stages);
    respond(t, std::move(resp));
  }
}

void ClusterService::solve_ticket(
    Ticket& ticket, const std::shared_ptr<const Placement>& placement,
    double load_s) {
  const auto dequeued = Clock::now();
  ClusterResponse resp;
  resp.queue_wait_s = seconds_between(ticket.admitted, dequeued);

  if (is_cancelled(ticket.id)) {
    cancelled_count_.add();
    resp.status = ClusterStatus::kCancelled;
    respond(ticket, std::move(resp));
    return;
  }
  Clock::time_point deadline_at{};
  if (ticket.req.deadline_s > 0.0) {
    deadline_at = ticket.admitted +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(ticket.req.deadline_s));
    if (dequeued >= deadline_at) {
      rejected_deadline_.add();
      resp.status = ClusterStatus::kDeadlineExceeded;
      respond(ticket, std::move(resp));
      return;
    }
  }
  const index_t rows = placement->nt * placement->ns;
  const index_t cols = placement->nt * placement->nr;
  if (static_cast<index_t>(ticket.req.rhs.size()) != rows) {
    failed_.add();
    resp.status = ClusterStatus::kError;
    resp.error = "rhs size does not match nt x nS of the archive";
    respond(ticket, std::move(resp));
    return;
  }

  const std::uint64_t id = ticket.id;
  // Always-on stage attribution; spans/clock samples only when the caller
  // asked for a distributed trace. The request id doubles as the trace id
  // (unique per service, never 0 for issued requests).
  RequestTrace rt;
  rt.stages.queue_wait_s = resp.queue_wait_s;
  rt.stages.load_s = load_s;
  std::uint64_t root_span = 0;
  const std::uint64_t solve_start_ns = obs::steady_now_ns();
  if (ticket.req.trace) {
    rt.ctx.trace_id = id;
    rt.ctx.sampled = true;
    root_span = rt.new_span_id();
    rt.ctx.parent_span_id = root_span;
  }
  try {
    // Inside the try: the band transform validates the worker-reported
    // bins of the placement, and a bad one is a typed kError.
    RemoteMdcOperator op(
        fleet_, placement, id, deadline_at,
        [this, id] { return is_cancelled(id); },
        [this](std::size_t w) { note_worker_death(w); }, &rt);
    if (ticket.req.kind == serve::RequestKind::kAdjoint) {
      resp.x.resize(static_cast<std::size_t>(cols));
      op.apply_adjoint(ticket.req.rhs, resp.x);
      resp.status = ClusterStatus::kOk;
    } else {
      mdd::LsqrConfig lsqr = ticket.req.lsqr;
      const std::function<bool()> user_stop = lsqr.should_stop;
      lsqr.should_stop = [this, id, deadline_at, user_stop] {
        if (user_stop && user_stop()) return true;
        if (is_cancelled(id)) return true;
        return deadline_at != Clock::time_point{} &&
               Clock::now() >= deadline_at;
      };
      const std::uint64_t lsqr_start_ns = obs::steady_now_ns();
      mdd::LsqrResult result = mdd::lsqr_solve(op, ticket.req.rhs, lsqr);
      rt.stages.lsqr_s +=
          1e-9 * static_cast<double>(obs::steady_now_ns() - lsqr_start_ns);
      rt.stages.lsqr_iterations = result.iterations;
      resp.x = std::move(result.x);
      resp.iterations = result.iterations;
      resp.residual_norm = result.residual_norm;
      if (result.stop == mdd::LsqrResult::Stop::kAborted) {
        if (is_cancelled(id)) {
          cancelled_count_.add();
          resp.status = ClusterStatus::kCancelled;
        } else if (deadline_at != Clock::time_point{} &&
                   Clock::now() >= deadline_at) {
          rejected_deadline_.add();
          resp.status = ClusterStatus::kDeadlineExceeded;
          resp.x.clear();
        } else {
          resp.status = ClusterStatus::kOk;  // user's own should_stop
        }
      } else {
        resp.status = ClusterStatus::kOk;
      }
    }
  } catch (const mdc::CancelledError&) {
    if (is_cancelled(id)) {
      cancelled_count_.add();
      resp.status = ClusterStatus::kCancelled;
    } else {
      rejected_deadline_.add();
      resp.status = ClusterStatus::kDeadlineExceeded;
    }
    resp.x.clear();
  } catch (const WorkerFailure& e) {
    invalidate_placement(ticket.req.op);
    worker_failed_.add();
    resp.status = ClusterStatus::kWorkerFailed;
    resp.error = e.what();
    resp.x.clear();
  } catch (const std::exception& e) {
    failed_.add();
    resp.status = ClusterStatus::kError;
    resp.error = e.what();
    resp.x.clear();
  }
  resp.solve_s = seconds_between(dequeued, Clock::now());
  if (resp.status == ClusterStatus::kOk) solve_hist_.record(resp.solve_s);
  resp.stages = rt.stages;
  stage_recorder_.record(resp.stages);
  if (rt.ctx.sampled) {
    rt.add_span("request", root_span, /*parent_span_id=*/0, solve_start_ns,
                obs::steady_now_ns() - solve_start_ns);
    resp.trace_json = collect_trace(rt);
  }
  respond(ticket, std::move(resp));
}

std::shared_ptr<const Placement> ClusterService::resolve_placement(
    const serve::OperatorKey& key) {
  std::shared_future<std::shared_ptr<const Placement>> fut;
  std::promise<std::shared_ptr<const Placement>> promise;
  bool creator = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = placements_cache_.find(key);
    if (it != placements_cache_.end()) {
      fut = it->second;
    } else {
      fut = promise.get_future().share();
      placements_cache_.emplace(key, fut);
      creator = true;
    }
  }
  if (creator) {
    try {
      promise.set_value(build_placement(key));
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Drop the poisoned entry so a later request can retry the load.
      std::lock_guard<std::mutex> lock(state_mu_);
      placements_cache_.erase(key);
    }
  }
  return fut.get();  // rethrows a build failure for waiters too
}

std::shared_ptr<const Placement> ClusterService::build_placement(
    const serve::OperatorKey& key) {
  const std::string& path = key.archive_id;
  // Throws on a missing/corrupt archive -> kArchiveMissing upstream.
  const std::vector<double> weights = io::archive_kernel_bytes(path);
  const auto nf = static_cast<index_t>(weights.size());

  const int max_attempts = static_cast<int>(fleet_.size());
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) replans_.add();
    std::vector<std::size_t> live;
    for (std::size_t w = 0; w < fleet_.size(); ++w) {
      if (fleet_[w]->alive()) live.push_back(w);
    }
    if (live.empty()) break;

    PlannerConfig pc = cfg_.planner;
    pc.num_workers = static_cast<int>(live.size());
    const ShardPlan plan = plan_shards(weights, pc);

    auto placement = std::make_shared<Placement>();
    placement->replicated = plan.replicated;
    bool lost_worker = false;

    if (plan.replicated) {
      // One shard id, every live worker loads the full frequency range;
      // any subset of successful loads is a valid (smaller) replica set.
      LoadShardMsg msg;
      msg.shard_id = next_shard_id_.fetch_add(1, std::memory_order_relaxed);
      msg.q_begin = 0;
      msg.q_end = nf;
      msg.archive_path = path;
      const Frame request = msg.to_frame();
      std::vector<std::pair<std::size_t, std::future<Frame>>> loads;
      for (const std::size_t w : live) {
        loads.emplace_back(w, fleet_[w]->call_async(request));
      }
      ShardAssignment shard;
      shard.shard_id = msg.shard_id;
      shard.q_begin = 0;
      shard.q_end = nf;
      bool have_dims = false;
      for (auto& [w, fut] : loads) {
        try {
          const LoadShardOkMsg ok = parse_load_reply(fut.get());
          if (!have_dims) {
            placement->nt = ok.nt;
            placement->ns = ok.ns;
            placement->nr = ok.nr;
            shard.freq_bins = ok.freq_bins;
            have_dims = true;
          }
          shard.workers.push_back(w);
        } catch (const TransportError&) {
          note_worker_death(w);
          lost_worker = true;
        }
      }
      if (!have_dims) continue;  // every replica died; replan
      placement->shards.push_back(std::move(shard));
      (void)lost_worker;  // partial replica loss is fine when replicated
    } else {
      std::vector<std::pair<std::size_t, std::future<Frame>>> loads;
      std::vector<LoadShardMsg> msgs;
      msgs.reserve(plan.shards.size());
      for (std::size_t s = 0; s < plan.shards.size(); ++s) {
        LoadShardMsg msg;
        msg.shard_id =
            next_shard_id_.fetch_add(1, std::memory_order_relaxed);
        msg.q_begin = plan.shards[s].first;
        msg.q_end = plan.shards[s].second;
        msg.archive_path = path;
        loads.emplace_back(live[s], fleet_[live[s]]->call_async(msg.to_frame()));
        msgs.push_back(std::move(msg));
      }
      for (std::size_t s = 0; s < loads.size(); ++s) {
        try {
          const LoadShardOkMsg ok = parse_load_reply(loads[s].second.get());
          ShardAssignment shard;
          shard.shard_id = msgs[s].shard_id;
          shard.q_begin = msgs[s].q_begin;
          shard.q_end = msgs[s].q_end;
          shard.freq_bins = ok.freq_bins;
          shard.workers.push_back(loads[s].first);
          placement->nt = ok.nt;
          placement->ns = ok.ns;
          placement->nr = ok.nr;
          placement->shards.push_back(std::move(shard));
        } catch (const TransportError&) {
          note_worker_death(loads[s].first);
          lost_worker = true;
        }
      }
      if (lost_worker) continue;  // a shard has no owner; replan over the living
    }
    placements_.add();
    return placement;
  }
  throw WorkerFailure("cluster: no live workers to place archive " + path);
}

std::string ClusterService::collect_trace(RequestTrace& rt) {
  obs::MergedTraceInput input;
  input.trace_id = rt.ctx.trace_id;
  input.frontend_spans = std::move(rt.spans);
  input.frontend_dropped = rt.dropped;

  TraceDumpMsg dump;
  dump.trace_id = rt.ctx.trace_id;
  const Frame request = dump.to_frame();
  for (const std::size_t w : rt.workers) {
    if (w >= fleet_.size() || !fleet_[w]->alive()) continue;
    try {
      const Frame reply = fleet_[w]->call(request);
      if (reply.type != static_cast<std::uint16_t>(MsgType::kTraceDumpOk)) {
        continue;  // v1 worker answered kError; its spans are simply absent
      }
      TraceDumpOkMsg ok = TraceDumpOkMsg::from_frame(reply);
      obs::WorkerTrace wt;
      wt.name = fleet_[w]->name();
      wt.offset_ns = obs::estimate_clock_offset_ns(rt.clock_samples[w]);
      wt.spans = std::move(ok.spans);
      wt.dropped_spans = ok.dropped_spans;
      input.workers.push_back(std::move(wt));
    } catch (const std::exception&) {
      // A worker that died after serving its exchanges just leaves a hole
      // in the timeline; the frontend spans still merge.
    }
  }
  return obs::merge_trace_json(input);
}

void ClusterService::record_slo(const ClusterResponse& r) {
  slo_.record(r.total_s, r.status == ClusterStatus::kOk);
  slo_.publish(registry_, "cluster");
  if (!slo_.breaches_objective(r.total_s) ||
      slo_.config().exemplar_dir.empty()) {
    return;
  }
  std::ostringstream os;
  os << "{\"request_id\":" << r.request_id << ",\"status\":\""
     << to_string(r.status) << "\",\"queue_wait_s\":" << r.queue_wait_s
     << ",\"solve_s\":" << r.solve_s << ",\"total_s\":" << r.total_s
     << ",\"stages\":" << r.stages.to_json();
  if (!r.trace_json.empty()) os << ",\"trace\":" << r.trace_json;
  os << "}";
  (void)slo_.persist_exemplar(r.request_id, os.str());
}

bool ClusterService::is_cancelled(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  const auto it = live_.find(id);
  return it != live_.end() && it->second;
}

void ClusterService::invalidate_placement(const serve::OperatorKey& key) {
  // Solves already holding the shared_ptr keep their placement; only the
  // cache entry goes, so the next resolve_placement() rebuilds it.
  std::lock_guard<std::mutex> lock(state_mu_);
  placements_cache_.erase(key);
}

void ClusterService::note_worker_death(std::size_t worker) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (dead_noted_.insert(worker).second) worker_deaths_.add();
}

void ClusterService::respond(Ticket& ticket, ClusterResponse r) {
  r.vsrc = ticket.req.vsrc;
  r.request_id = ticket.id;
  r.total_s = seconds_between(ticket.admitted, Clock::now());
  if (r.status == ClusterStatus::kOk) completed_.add();
  record_slo(r);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (cfg_.tenant_quota > 0) {
      const auto it = tenant_inflight_.find(ticket.req.tenant);
      if (it != tenant_inflight_.end() && --it->second == 0) {
        tenant_inflight_.erase(it);
      }
    }
    live_.erase(ticket.id);
  }
  ticket.done.set_value(std::move(r));
}

}  // namespace tlrwse::cluster
