#include "bench.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "tlrwse/la/simd.hpp"

namespace pb {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

thread_local std::uint64_t t_open_span = 0;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Report::get(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Report::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           num(entries_[i].value) + ", \"unit\": \"" + entries_[i].unit +
           "\"}";
  }
  return out + "}";
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i > 0 ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

AllCores::AllCores() : saved_(omp_get_max_threads()) {
  omp_set_num_threads(omp_get_num_procs());
}

AllCores::~AllCores() { omp_set_num_threads(saved_); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.p50 = median(v);
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  // Highest whole-number percentile p with at least ten samples above the
  // nearest-rank index ceil(p/100 * n).
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = p;
      return t;
    }
  }
  t.value = t.p50;
  t.percentile = 50;
  return t;
}

Tail windowed_tail(const std::vector<double>& in_order) {
  const std::size_t windows =
      std::max<std::size_t>(1, in_order.size() / kTailWindow);
  Tail t = tail_of(in_order);
  if (windows == 1) return t;
  std::vector<double> tails, pcts;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto b = in_order.begin() + static_cast<std::ptrdiff_t>(
                                          w * in_order.size() / windows);
    const auto e = in_order.begin() + static_cast<std::ptrdiff_t>(
                                          (w + 1) * in_order.size() / windows);
    const Tail wt = tail_of(std::vector<double>(b, e));
    tails.push_back(wt.value);
    pcts.push_back(wt.percentile);
  }
  t.value = median(tails);
  t.percentile = median(pcts);
  t.windows = windows;
  return t;
}

RemoveOnExit::~RemoveOnExit() {
  for (const std::string& p : paths) {
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t llc_bytes() {
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 <= 0) l3 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l3 > 0 ? static_cast<std::size_t>(l3) : std::size_t{32} << 20;
}

std::string provenance_json() {
  std::string sha;
  if (const char* env = std::getenv("TLRWSE_GIT_SHA");
      env != nullptr && env[0] != '\0') {
    sha = env;
  } else if (std::filesystem::exists(".git")) {
    if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
      char buf[128] = {0};
      if (std::fgets(buf, sizeof(buf), p) != nullptr) sha = buf;
      pclose(p);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
  }
  if (sha.empty()) sha = "unknown";
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  namespace simd = tlrwse::la::simd;
  std::ostringstream os;
  os << "{\"provenance\": {\"git_sha\": \"" << escape(sha)
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"llc_bytes\": " << llc_bytes() << ", \"simd_tier\": \""
     << simd::level_name(simd::active_level()) << "\", \"compiler\": \""
     << escape(compiler) << "\"}}";
  return os.str();
}

// ---------------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::uint64_t Tracer::new_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::record(const std::string& name, double t0, double t1,
                             std::uint64_t request, std::uint64_t parent,
                             std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back({name, id, parent, request, t0, t1, thread_tag()});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::self_time(const std::string& name, std::size_t* count) const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  double total = 0.0;
  std::size_t n = 0;
  for (const Span& s : all) {
    if (s.name != name) continue;
    ++n;
    std::vector<std::pair<double, double>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const double a = std::max(c->t0, s.t0);
        const double b = std::min(c->t1, s.t1);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double end = s.t0;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, end);
      if (b > lo) covered += b - lo;
      end = std::max(end, b);
    }
    total += (s.t1 - s.t0) - covered;
  }
  if (count != nullptr) *count = n;
  return total;
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& meta) const {
  const std::vector<Span> all = spans();
  double origin = all.empty() ? 0.0 : all.front().t0;
  for (const Span& s : all) origin = std::min(origin, s.t0);
  std::ofstream out(path);
  out << "{\"metadata\": " << meta << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": \"" << escape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << num((s.t0 - origin) * 1e6)
        << ", \"dur\": " << num((s.t1 - s.t0) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
}

Scope::Scope(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  Tracer& tr = Tracer::get();
  if (!tr.on()) return;
  id_ = tr.new_id();
  parent_ = t_open_span;
  t_open_span = id_;
  t0_ = now_s();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const double t1 = now_s();
  t_open_span = parent_;
  Tracer::get().record(name_, t0_, t1, request_, parent_, id_);
}

}  // namespace pb
