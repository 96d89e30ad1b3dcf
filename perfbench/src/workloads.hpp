// The three workloads. Each runs in its own process, makes its inputs from
// the seed, checks its outputs, and returns either the end-to-end metrics
// (untraced run) or the per-layer ladder (traced run).
#pragma once

#include "bench.hpp"

namespace pb {

/// Back-to-back fixed-iteration LSQR solves over one resident MdcOperator
/// whose plan arena is at least four times the LLC: the memory-wall regime.
[[nodiscard]] Outcome run_mdd_dram(const Options& o);

/// Open-loop Poisson traffic at fixed rates into a SolveService over two
/// small surveys, one resident fp32 and one streamed bf16 shared-basis.
[[nodiscard]] Outcome run_serve_mixed(const Options& o);

/// Closed-loop LSQR clients against a ClusterService over an in-process
/// fleet of frequency-sharded workers behind LocalChannels.
[[nodiscard]] Outcome run_cluster_sharded(const Options& o);

/// End-to-end metrics every workload reports, with their units. Shared by
/// the workloads so the names cannot drift apart.
void report_end_to_end(Report& r, double setup_s, double ingest_s,
                       const Tail& latency, double throughput_rps,
                       double rps_at_slo, double ok_rate,
                       double solution_nmse, double operator_mb);

/// Prints one {"info": ...} line (sizes, tail percentile, sample counts)
/// ahead of the result line.
void print_info(const std::string& json_fields);

}  // namespace pb
