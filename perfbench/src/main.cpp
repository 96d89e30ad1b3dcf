// perfbench: the repository benchmark program.
//
//   perfbench --workload <mdd_dram|serve_mixed|cluster_sharded> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke 1] [--workdir <dir>]
//
// Prints a provenance line, an info line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer ladder with --trace 1 (which also
// writes the run's spans as chrome://tracing JSON into the workdir). Exits
// non-zero when any correctness, ratio or closure check fails.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

namespace pb {

void report_end_to_end(Report& r, double setup_s, double ingest_s,
                       const Tail& latency, double throughput_rps,
                       double rps_at_slo, double ok_rate,
                       double solution_nmse, double operator_mb) {
  r.add("setup_s", setup_s, "s");
  r.add("ingest_s", ingest_s, "s");
  r.add("lat_p50_s", latency.p50, "s");
  r.add("lat_tail_s", latency.value, "s");
  r.add("throughput_rps", throughput_rps, "1/s");
  r.add("rps_at_slo", rps_at_slo, "1/s");
  r.add("ok_rate", ok_rate, "ratio");
  r.add("solution_nmse", solution_nmse, "ratio");
  r.add("operator_mb", operator_mb, "MB");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void print_info(const std::string& json_fields) {
  std::cout << "{\"info\": {" << json_fields << "}}" << std::endl;
}

}  // namespace pb

namespace {

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <mdd_dram|serve_mixed|"
               "cluster_sharded> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke 1] [--workdir <dir>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  o.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--smoke") {
      o.smoke = v == "1";
    } else if (a == "--workdir") {
      o.workdir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  std::filesystem::create_directories(o.workdir);
  const std::string prov = pb::provenance_json();
  std::cout << prov << std::endl;

  pb::Outcome out;
  try {
    pb::Tracer::get().enable(o.trace);
    if (o.workload == "mdd_dram") {
      out = pb::run_mdd_dram(o);
    } else if (o.workload == "serve_mixed") {
      out = pb::run_serve_mixed(o);
    } else if (o.workload == "cluster_sharded") {
      out = pb::run_cluster_sharded(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  if (o.trace) {
    pb::check_ratios(out);
    pb::Tracer::get().write_chrome(
        o.workdir + "/trace_" + o.workload + "_" + std::to_string(o.seed) +
            ".json",
        prov);
  }
  if (out.attempted == 0) out.failures.push_back("no request was attempted");
  if (out.failed > 0) {
    out.failures.push_back(std::to_string(out.failed) + " requests failed");
  }
  for (const std::string& f : out.failures) {
    std::cerr << "perfbench: check failed: " << f << "\n";
  }
  const bool correct = out.failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << out.metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
