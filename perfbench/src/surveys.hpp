// Seeded inputs of the workloads: synthetic surveys (compressed at start-up
// like a real ingest) and the rank-model operator of mdd_dram, plus the
// helper that compiles an archive into an MdcOperator while keeping a view
// of its per-frequency kernels for the layer replays.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/seismic/modeling.hpp"

namespace pb {

using tlrwse::index_t;

/// Overthrust-like survey on a (nsx x nsy) source and (nrx x nry) receiver
/// grid, nt = 256 at 4 ms, 3-30 Hz retained. The seed jitters each
/// interface's depth, reflectivity and thrust amplitude by 1-5%.
[[nodiscard]] tlrwse::seismic::SeismicDataset seeded_survey(
    index_t nsx, index_t nsy, index_t nrx, index_t nry, std::uint64_t seed);

/// TLR factors whose per-tile ranks come from seismic::RankModel (the
/// paper's Overthrust statistics at nb = 70, acc = 1e-4), sampled on a
/// tiles x tiles grid and across the model's 230 frequencies, with seeded
/// random factor values. Adds frequencies until the compressed bytes reach
/// `target_bytes`.
[[nodiscard]] tlrwse::io::KernelArchive rank_model_archive(
    index_t tiles, double target_bytes, std::uint64_t seed);

/// An MdcOperator built from per-frequency kernels, with a non-owning view
/// of those kernels (they live as long as `op`).
struct CompiledOperator {
  std::unique_ptr<tlrwse::mdc::MdcOperator> op;
  std::vector<tlrwse::mdc::FrequencyMvm*> kernels;
  double plan_bytes = 0.0;  // resident plan arenas (shared bases once)
};
[[nodiscard]] CompiledOperator compile_operator(
    const tlrwse::io::KernelArchive& archive);
[[nodiscard]] CompiledOperator compile_operator(
    const tlrwse::io::SharedKernelArchive& archive);

[[nodiscard]] double file_bytes(const std::string& path);

}  // namespace pb
