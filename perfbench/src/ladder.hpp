// The per-layer ladder, measured from outside the program: each layer is
// timed by calling its public functions on the workload's own operator and
// inputs (la: the SIMD gemv over the archive's tile panels; tlr: every
// frequency's compiled plan; fft: the batched real transforms on the
// workload's trace page; mdc: a LinearOperator decorator; mdd: LSQR over the
// decorated operator), plus the mdc.* histograms the program already
// exports. Bytes are counted from sizes the code already knows.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "surveys.hpp"
#include "tlrwse/mdc/linear_operator.hpp"
#include "tlrwse/mdd/lsqr.hpp"

namespace pb {

/// Times every apply/adjoint of the wrapped operator and opens a span
/// around each ("mdc.apply" / "mdc.adjoint") under the caller's span,
/// tagged with `request`.
class TimedOperator final : public tlrwse::mdc::LinearOperator {
 public:
  TimedOperator(const tlrwse::mdc::LinearOperator& inner,
                std::uint64_t req)
      : request(req), inner_(inner) {}
  [[nodiscard]] tlrwse::index_t rows() const override { return inner_.rows(); }
  [[nodiscard]] tlrwse::index_t cols() const override { return inner_.cols(); }
  void apply(std::span<const float> x, std::span<float> y) const override;
  void apply_adjoint(std::span<const float> y,
                     std::span<float> x) const override;

  std::uint64_t request;
  mutable double apply_s = 0.0;
  mutable double adjoint_s = 0.0;
  mutable std::uint64_t applies = 0;
  mutable std::uint64_t adjoints = 0;

 private:
  const tlrwse::mdc::LinearOperator& inner_;
};

/// LSQR settings of every request: a fixed iteration count (no early stop).
[[nodiscard]] tlrwse::mdd::LsqrConfig fixed_lsqr(int iters);

/// Sum and count of one histogram of the process-wide metrics registry.
struct HistTotals {
  double sum = 0.0;
  std::uint64_t count = 0;
};
[[nodiscard]] HistTotals hist_totals(const std::string& name);

/// Layer replays on one operator. `tiles` feeds the la replay (its tile
/// factors, stacked into split-complex panels and packed bf16 copies).
struct LadderInput {
  const CompiledOperator* op = nullptr;
  const tlrwse::io::KernelArchive* tiles = nullptr;
  std::vector<float> rhs;      // one request's right-hand side
  int lsqr_iters = 10;
  int lsqr_reps = 3;           // LSQR replays (first one warms up)
  double triad_gbps = 0.0;
  bool smoke = false;
};

/// la.* metrics. Runs before the operator is compiled when memory is
/// tight, so it takes the archive alone.
void ladder_la(const tlrwse::io::KernelArchive& tiles, double triad_gbps,
               bool smoke, Outcome& out);
/// tlr.*, fft.*, mdc.* and mdd.* metrics (la.* too when `tiles` is set).
void ladder_operator(const LadderInput& in, Outcome& out);

/// Layers some workload does not use. Its traced run reports their metrics
/// as 0, so every per-layer name appears; a layer the workload does use
/// has to be measured, or the schema check in run.py fails.
enum class Layer { kOocache, kServe, kCluster };
void report_bypassed(Report& r, std::initializer_list<Layer> layers);
/// host.* metrics.
void report_host(const HostCeilings& h, Report& r);
/// Fails the run when a GB/s share exceeds 100% of the same-run triad, or
/// a closure residual exceeds its bound.
void check_ratios(Outcome& out);

/// Closure bound: |residual| / parent above this fails the traced run.
inline constexpr double kClosureBound = 0.10;

}  // namespace pb
