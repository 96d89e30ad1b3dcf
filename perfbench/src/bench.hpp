// Shared plumbing of the perfbench program: options, metric reports, order
// statistics, the span recorder of the traced run, and the host ceilings.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // seconds-scale sizes for the self-test
  std::string workdir;      // scratch directory for generated archives
};

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ordered (name, value, unit) list printed as the "metrics" object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;
  [[nodiscard]] double get(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What a workload hands back to main(): the end-to-end metrics of the run
/// (untraced) or the per-layer metrics (traced), the request counts, and a
/// line per failed correctness check.
struct Outcome {
  Report metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what);
};

/// Repetitions of ingest inside one run. Its work is identical in every
/// repetition, so it reports the fastest: the host's other tenants only
/// ever add time to it. Set-up repeats too (each workload picks the count,
/// so that the series takes about a second) and reports the median.
inline constexpr int kIngestReps = 5;

/// Raises the calling thread's OpenMP team size to every core for its
/// lifetime (offline ingest), then restores it.
class AllCores {
 public:
  AllCores();
  ~AllCores();
  AllCores(const AllCores&) = delete;
  AllCores& operator=(const AllCores&) = delete;

 private:
  int saved_;
};

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double min_of(const std::vector<double>& v);

[[nodiscard]] double mean(const std::vector<double>& v);
/// "[a, b, ...]" with six significant digits, for info lines.
[[nodiscard]] std::string json_list(const std::vector<double>& v);

/// Median plus the highest percentile that leaves at least ten samples
/// beyond it (the maximum when fewer than eleven samples exist).
struct Tail {
  double p50 = 0.0;
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
  std::size_t windows = 1;  // windowed_tail(): windows the tail is the median of
};
[[nodiscard]] Tail tail_of(std::vector<double> v);
/// The reported request latency: the samples, in arrival order, cut into
/// windows of at least kTailWindow requests; p50 over all of them, the tail
/// the median of each window's tail_of() (one window below 2*kTailWindow
/// samples). A hiccup of the host lands in one window and moves the
/// median of the windows much less than it moves one pooled order
/// statistic.
inline constexpr std::size_t kTailWindow = 100;
[[nodiscard]] Tail windowed_tail(const std::vector<double>& in_order);

/// Deletes the listed files when it goes out of scope.
struct RemoveOnExit {
  std::vector<std::string> paths;
  RemoveOnExit() = default;
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;
  ~RemoveOnExit();
};

[[nodiscard]] double peak_rss_mb();
[[nodiscard]] std::size_t llc_bytes();

/// One line of JSON naming the build and host: git sha, nproc, LLC size,
/// the selected SIMD tier and the compiler.
[[nodiscard]] std::string provenance_json();

// ---------------------------------------------------------------------------
// Span recorder. Spans are kept in memory and written as chrome://tracing
// JSON at the end of a traced run. A span's parent defaults to the span
// open on the same thread; spans of one request share `request`.

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t tid = 0;
};

class Tracer {
 public:
  static Tracer& get();
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const noexcept { return on_; }
  void clear();
  /// Records a finished span; returns its id.
  std::uint64_t record(const std::string& name, double t0, double t1,
                       std::uint64_t request, std::uint64_t parent,
                       std::uint64_t id = 0);
  std::uint64_t new_id();
  [[nodiscard]] std::vector<Span> spans() const;
  /// Sum over spans named `name` of duration minus the part of it that
  /// child spans cover, and the count of such spans.
  [[nodiscard]] double self_time(const std::string& name,
                                 std::size_t* count = nullptr) const;
  void write_chrome(const std::string& path, const std::string& meta) const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span on the current thread; nests under the enclosing Scope.
class Scope {
 public:
  Scope(const char* name, std::uint64_t request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double t0_ = 0.0;
};

// ---------------------------------------------------------------------------
// Host ceilings, measured in the same process as the layer they divide.

struct HostCeilings {
  double triad_gbps = 0.0;     // STREAM triad, bytes actually moved
  double fma_gflops = 0.0;
  double triad_array_mb = 0.0; // footprint of the three triad arrays
  double llc_mb = 0.0;
};
[[nodiscard]] HostCeilings probe_host(bool smoke);

/// Touches a buffer of twice the LLC so the next pass reads from DRAM.
void flush_llc();

}  // namespace pb
