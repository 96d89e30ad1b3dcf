#include "surveys.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>

#include "tlrwse/common/error.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/seismic/rank_model.hpp"

namespace pb {

namespace ti = tlrwse;

namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

float uniform_pm1(std::uint64_t& s) {
  return static_cast<float>(static_cast<double>(splitmix(s) >> 11) *
                                (2.0 / 9007199254740992.0) -
                            1.0);
}

void fill(ti::la::Matrix<ti::cf32>& m, std::uint64_t stream, float scale) {
  ti::cf32* p = m.data();
  for (index_t i = 0; i < m.size(); ++i) {
    const float re = uniform_pm1(stream);
    const float im = uniform_pm1(stream);
    p[i] = {scale * re, scale * im};
  }
}

}  // namespace

ti::seismic::SeismicDataset seeded_survey(index_t nsx, index_t nsy,
                                          index_t nrx, index_t nry,
                                          std::uint64_t seed) {
  ti::seismic::DatasetConfig cfg;
  cfg.geometry = ti::seismic::AcquisitionGeometry::small_scale(nsx, nsy, nrx,
                                                               nry);
  cfg.nt = 256;
  cfg.dt = 0.004;
  cfg.f_min = 3.0;
  cfg.f_max = 30.0;
  cfg.model = ti::seismic::SubsurfaceModel::overthrust_like();
  ti::Rng rng(seed * 7919 + 17);
  for (auto& layer : cfg.model.interfaces) {
    layer.depth *= 1.0 + 0.01 * rng.uniform(-1.0, 1.0);
    layer.reflectivity *= 1.0 + 0.03 * rng.uniform(-1.0, 1.0);
    layer.thrust_amp *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0);
  }
  return ti::seismic::build_dataset(cfg);
}

ti::io::KernelArchive rank_model_archive(index_t tiles, double target_bytes,
                                         std::uint64_t seed) {
  ti::seismic::RankModelConfig rcfg;  // the paper's full-scale statistics
  rcfg.nb = 70;
  rcfg.acc = 1e-4;
  rcfg.seed = seed;
  const ti::seismic::RankModel model(rcfg);
  const ti::tlr::TileGrid& paper = model.grid();
  const index_t nb = rcfg.nb;
  const index_t n = tiles * nb;
  const ti::tlr::TileGrid grid(n, n, nb);
  // Sample the paper's tile field on an even lattice (full tiles only), so
  // the diagonal band and its off-diagonal decay keep their proportions.
  std::vector<index_t> src_tile(static_cast<std::size_t>(tiles * tiles));
  for (index_t j = 0; j < tiles; ++j) {
    for (index_t i = 0; i < tiles; ++i) {
      const auto pi = static_cast<index_t>(std::lround(
          static_cast<double>(i) * static_cast<double>(paper.mt() - 2) /
          static_cast<double>(tiles - 1)));
      const auto pj = static_cast<index_t>(std::lround(
          static_cast<double>(j) * static_cast<double>(paper.nt() - 2) /
          static_cast<double>(tiles - 1)));
      src_tile[static_cast<std::size_t>(grid.tile_index(i, j))] =
          paper.tile_index(pi, pj);
    }
  }
  const auto bytes_of = [&](const std::vector<index_t>& r) {
    double b = 0.0;
    for (const index_t k : r) b += static_cast<double>(2 * nb * k) * 8.0;
    return b;
  };
  // Sampled rank fields of every model frequency, computed once.
  const index_t paper_nq = rcfg.num_freqs;
  std::vector<std::vector<index_t>> field(static_cast<std::size_t>(paper_nq));
  std::vector<double> field_bytes(field.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (index_t q = 0; q < paper_nq; ++q) {
    const std::vector<index_t> full = model.tile_ranks(q);
    std::vector<index_t>& r = field[static_cast<std::size_t>(q)];
    r.resize(src_tile.size());
    for (std::size_t t = 0; t < r.size(); ++t) {
      r[t] = full[static_cast<std::size_t>(src_tile[t])];
    }
    field_bytes[static_cast<std::size_t>(q)] = bytes_of(r);
  }

  // Frequencies sampled evenly across the model's band; grow the count
  // until the operator reaches the byte target.
  const index_t nt = 256;
  const index_t max_q = nt / 2 - 1;
  std::vector<index_t> picks;
  for (index_t nq = 2; nq <= max_q; ++nq) {
    picks.clear();
    double total = 0.0;
    for (index_t k = 0; k < nq; ++k) {
      const auto q = static_cast<index_t>(std::lround(
          static_cast<double>(k) * static_cast<double>(paper_nq - 1) /
          static_cast<double>(nq - 1)));
      picks.push_back(q);
      total += field_bytes[static_cast<std::size_t>(q)];
    }
    if (total >= target_bytes) break;
    TLRWSE_REQUIRE(nq < max_q, "rank_model_archive: target needs more than ",
                   max_q, " frequencies at ", tiles, "x", tiles, " tiles");
  }

  ti::io::KernelArchive ar;
  ar.nt = nt;
  ar.dt = 0.004;
  const auto nq = static_cast<index_t>(picks.size());
  for (index_t k = 0; k < nq; ++k) {
    const index_t bin = 1 + (nq > 1 ? k * (max_q - 1) / (nq - 1) : 0);
    ar.freq_bins.push_back(bin);
    ar.freqs_hz.push_back(static_cast<double>(bin) /
                          (static_cast<double>(nt) * ar.dt));
  }
  ar.kernels.resize(static_cast<std::size_t>(nq));
#pragma omp parallel for schedule(dynamic, 1)
  for (index_t k = 0; k < nq; ++k) {
    const std::vector<index_t>& r =
        field[static_cast<std::size_t>(picks[static_cast<std::size_t>(k)])];
    std::vector<ti::la::LowRankFactors<ti::cf32>> tl(r.size());
    for (std::size_t t = 0; t < r.size(); ++t) {
      const index_t rank = r[t];
      tl[t].U = ti::la::Matrix<ti::cf32>(nb, rank);
      tl[t].Vh = ti::la::Matrix<ti::cf32>(rank, nb);
      const float scale =
          rank > 0 ? 1.0f / std::sqrt(static_cast<float>(nb * rank)) : 0.0f;
      const std::uint64_t stream =
          seed * 0x100000001B3ULL ^ (static_cast<std::uint64_t>(k) << 32) ^ t;
      fill(tl[t].U, stream, scale);
      fill(tl[t].Vh, ~stream, 1.0f);
    }
    ar.kernels[static_cast<std::size_t>(k)] =
        ti::tlr::TlrMatrix<ti::cf32>(grid, std::move(tl));
  }
  return ar;
}

namespace {

CompiledOperator finish(index_t nt, const std::vector<index_t>& bins,
                        std::vector<std::unique_ptr<ti::mdc::FrequencyMvm>> ks) {
  CompiledOperator c;
  std::set<const void*> seen;
  for (auto& k : ks) {
    c.kernels.push_back(k.get());
    if (const auto* t = dynamic_cast<const ti::mdc::TlrMvm*>(k.get());
        t != nullptr && t->plan() != nullptr) {
      c.plan_bytes += static_cast<double>(t->plan()->arena_bytes());
    } else if (const auto* s =
                   dynamic_cast<const ti::mdc::SharedBasisMvm*>(k.get());
               s != nullptr && s->plan() != nullptr &&
               seen.insert(s->plan()).second) {
      c.plan_bytes += static_cast<double>(s->plan()->arena_bytes() +
                                          s->plan()->core_arena_bytes());
    }
  }
  c.op = std::make_unique<ti::mdc::MdcOperator>(nt, bins, std::move(ks));
  return c;
}

}  // namespace

CompiledOperator compile_operator(const ti::io::KernelArchive& archive) {
  return finish(archive.nt, archive.freq_bins,
                ti::io::make_kernels(archive));
}

CompiledOperator compile_operator(const ti::io::SharedKernelArchive& archive) {
  return finish(archive.nt, archive.freq_bins,
                ti::io::make_kernels(archive));
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

}  // namespace pb
