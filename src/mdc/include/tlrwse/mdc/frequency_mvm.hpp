// Per-frequency MVM backends of the MDC kernel K.
//
// The MDC operator applies, at every retained frequency, the kernel matrix
// K_f to the transformed wavefield. The paper's contribution is swapping
// the dense backend for TLR-MVM; both are provided here behind one
// interface. Every TLR backend executes one form: its compiled plan
// (tlr::MvmPlan / tlr::SharedBasisMvmPlan). The scalar 3-phase, fused and
// real-split kernels stay reachable as the free tlr:: reference functions.
//
// Each backend implements a single entry, apply_panel(), which covers both
// directions and any number of right-hand sides; the caller hands in the
// FrequencyWorkspace (the MDC frequency loop gives each OpenMP thread its
// own), so steady-state applies never allocate.
#pragma once

#include <memory>
#include <span>

#include "tlrwse/la/blas.hpp"
#include "tlrwse/tlr/mvm_plan.hpp"
#include "tlrwse/tlr/shared_basis.hpp"

namespace tlrwse::mdc {

/// Reusable scratch for one FrequencyMvm apply (DenseMvm uses none); one
/// instance must not be shared by concurrent calls.
struct FrequencyWorkspace {
  tlr::PlanWorkspace plan;
};

/// One frequency slice of the kernel: y = K x and y = K^H x.
class FrequencyMvm {
 public:
  virtual ~FrequencyMvm() = default;
  [[nodiscard]] virtual index_t rows() const = 0;
  [[nodiscard]] virtual index_t cols() const = 0;
  /// Y = K X (adjoint = false) or Y = K^H X (adjoint = true) over a panel
  /// of nrhs vectors stored back to back: X holds nrhs inputs (cols()
  /// apart forward, rows() apart adjoint), Y the matching outputs. Every
  /// column equals the corresponding nrhs = 1 call bitwise.
  virtual void apply_panel(bool adjoint, std::span<const cf32> X,
                           std::span<cf32> Y, index_t nrhs,
                           FrequencyWorkspace& ws) const = 0;
  void apply(std::span<const cf32> x, std::span<cf32> y,
             FrequencyWorkspace& ws) const {
    apply_panel(false, x, y, 1, ws);
  }
  void apply_adjoint(std::span<const cf32> x, std::span<cf32> y,
                     FrequencyWorkspace& ws) const {
    apply_panel(true, x, y, 1, ws);
  }
};

/// Dense reference backend.
class DenseMvm final : public FrequencyMvm {
 public:
  explicit DenseMvm(la::MatrixCF K) : K_(std::move(K)) {}
  [[nodiscard]] index_t rows() const override { return K_.rows(); }
  [[nodiscard]] index_t cols() const override { return K_.cols(); }
  void apply_panel(bool adjoint, std::span<const cf32> X, std::span<cf32> Y,
                   index_t nrhs, FrequencyWorkspace& /*ws*/) const override {
    const std::size_t nin = static_cast<std::size_t>(adjoint ? rows() : cols());
    const std::size_t nout =
        static_cast<std::size_t>(adjoint ? cols() : rows());
    for (index_t r = 0; r < nrhs; ++r) {
      const auto x = X.subspan(static_cast<std::size_t>(r) * nin, nin);
      const auto y = Y.subspan(static_cast<std::size_t>(r) * nout, nout);
      if (adjoint) {
        la::gemv_adjoint(K_, x, y);
      } else {
        la::gemv(K_, x, y);
      }
    }
  }

 private:
  la::MatrixCF K_;
};

/// TLR backend: compiles the stacks into an MvmPlan (the arena +
/// shuffle-program execution form) and keeps only the plan.
class TlrMvm final : public FrequencyMvm {
 public:
  explicit TlrMvm(const tlr::StackedTlr<cf32>& stacks) : plan_(stacks) {}
  [[nodiscard]] index_t rows() const override { return plan_.rows(); }
  [[nodiscard]] index_t cols() const override { return plan_.cols(); }
  void apply_panel(bool adjoint, std::span<const cf32> X, std::span<cf32> Y,
                   index_t nrhs, FrequencyWorkspace& ws) const override {
    if (adjoint) {
      plan_.apply_adjoint_multi(X, Y, nrhs, ws.plan);
    } else {
      plan_.apply_multi(X, Y, nrhs, ws.plan);
    }
  }
  [[nodiscard]] const tlr::MvmPlan* plan() const noexcept { return &plan_; }

 private:
  tlr::MvmPlan plan_;
};

/// Shared-basis backend: one frequency slice of a band whose tile bases
/// are shared (tlr::SharedBasisStackedTlr). All slices of one band hold
/// the SAME compiled SharedBasisMvmPlan, so the basis arena is laid out
/// once and stays hot as the MDC frequency loop walks the band; only the
/// small per-frequency core program changes between slices. Construct the
/// band's kernels with make_shared_basis_kernels().
class SharedBasisMvm final : public FrequencyMvm {
 public:
  SharedBasisMvm(std::shared_ptr<const tlr::SharedBasisMvmPlan> plan,
                 index_t freq)
      : plan_(std::move(plan)), freq_(freq) {
    TLRWSE_REQUIRE(plan_ != nullptr, "SharedBasisMvm: null plan");
    TLRWSE_REQUIRE(freq_ >= 0 && freq_ < plan_->num_freqs(),
                   "SharedBasisMvm: frequency index out of range");
  }
  [[nodiscard]] index_t rows() const override { return plan_->rows(); }
  [[nodiscard]] index_t cols() const override { return plan_->cols(); }
  void apply_panel(bool adjoint, std::span<const cf32> X, std::span<cf32> Y,
                   index_t nrhs, FrequencyWorkspace& ws) const override {
    if (adjoint) {
      plan_->apply_adjoint_multi(freq_, X, Y, nrhs, ws.plan);
    } else {
      plan_->apply_multi(freq_, X, Y, nrhs, ws.plan);
    }
  }
  [[nodiscard]] index_t freq() const noexcept { return freq_; }
  /// The band-shared plan.
  [[nodiscard]] const tlr::SharedBasisMvmPlan* plan() const noexcept {
    return plan_.get();
  }

 private:
  std::shared_ptr<const tlr::SharedBasisMvmPlan> plan_;
  index_t freq_;
};

/// Compiles the band's SharedBasisMvmPlan once and builds one FrequencyMvm
/// per frequency over it.
inline std::vector<std::unique_ptr<FrequencyMvm>> make_shared_basis_kernels(
    const std::shared_ptr<const tlr::SharedBasisStackedTlr<cf32>>& band) {
  TLRWSE_REQUIRE(band != nullptr, "make_shared_basis_kernels: null band");
  const auto plan = std::make_shared<const tlr::SharedBasisMvmPlan>(*band);
  std::vector<std::unique_ptr<FrequencyMvm>> kernels;
  kernels.reserve(static_cast<std::size_t>(band->num_freqs()));
  for (index_t f = 0; f < band->num_freqs(); ++f) {
    kernels.push_back(std::make_unique<SharedBasisMvm>(plan, f));
  }
  return kernels;
}

}  // namespace tlrwse::mdc
