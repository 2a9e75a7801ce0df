// Hierarchical Markov reward models, RAScad style (paper Section 6).
//
// A HierarchicalModel is an ordered list of symbolic submodels topped
// by a root model.  Each submodel is solved against the current
// parameter bindings and *exports* derived quantities (its equivalent
// failure rate, recovery rate, availability, ...) as new parameters
// visible to later submodels and the root.  This is exactly how the
// paper's Figure 2 references "$Lambda1/$Mu1" evaluated from the
// "Appl Server" and "HADB Node Pair" subdiagrams.
//
// The whole hierarchy compiles once (on first solve) into one slot
// table shared by every submodel's CompiledCtmc (ctmc/compiled.h):
// inputs are resolved into slots once per solve, exports are written
// straight into their slots, and no ParameterSet is copied.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "ctmc/builder.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "expr/parameter_set.h"

namespace rascal::core {

/// Quantity a submodel can export into the parent's parameter space.
enum class ExportKind {
  kLambdaEq,          // equivalent failure rate (per hour)
  kMuEq,              // equivalent recovery rate (per hour)
  kAvailability,      // steady-state availability
  kUnavailability,    // 1 - availability
  kFailureFrequency,  // failures per hour
};

struct Export {
  std::string parameter_name;  // name bound in the parent scope
  ExportKind kind = ExportKind::kLambdaEq;
};

struct Submodel {
  std::string name;
  ctmc::SymbolicCtmc model;
  std::vector<Export> exports;
  double up_threshold = kDefaultUpThreshold;
};

struct SubmodelResult {
  std::string name;
  AvailabilityMetrics metrics;
  TwoStateEquivalent equivalent;
  ctmc::SteadyState steady;
};

struct HierarchicalResult {
  std::vector<SubmodelResult> submodels;
  AvailabilityMetrics system;          // metrics of the root model
  ctmc::SteadyState root_steady;
  expr::ParameterSet exports;  // every exported quantity, by name
};

class HierarchicalModel {
 public:
  /// Appends a submodel; submodels are solved in insertion order, so a
  /// later submodel may reference parameters exported by an earlier
  /// one.  Throws std::invalid_argument on duplicate submodel names or
  /// duplicate export parameter names.
  HierarchicalModel& add_submodel(Submodel submodel);

  /// Sets the root (system-level) model.
  HierarchicalModel& set_root(ctmc::SymbolicCtmc root,
                              double up_threshold = kDefaultUpThreshold);

  /// Pins parameter `name` to `value` in every solve, taking
  /// precedence over the solve() inputs (e.g. a configuration's
  /// N_pair).
  HierarchicalModel& fix(std::string name, double value);

  /// Solves the hierarchy bottom-up with the given input parameters.
  /// Throws expr::UnknownParameterError when a referenced parameter is
  /// neither an input nor an earlier export, and std::logic_error when
  /// no root model has been set.
  ///
  /// An optional per-worker SolveCache supplies reusable solver
  /// scratch and memoizes repeated generators; results are
  /// bit-identical with and without one (oracle-gated).
  [[nodiscard]] HierarchicalResult solve(
      const expr::ParameterSet& inputs,
      ctmc::SteadyStateMethod method = ctmc::SteadyStateMethod::kGth,
      ctmc::SolveCache* cache = nullptr) const;

  [[nodiscard]] std::size_t num_submodels() const noexcept {
    return submodels_.size();
  }

 private:
  struct Compiled;
  struct Compilation {
    std::once_flag once;
    std::shared_ptr<const Compiled> value;  // shared_ptr: Compiled is incomplete here
  };

  [[nodiscard]] const Compiled& compiled() const;
  // Any edit invalidates the compiled form.
  void edited() { compilation_ = std::make_shared<Compilation>(); }

  std::vector<Submodel> submodels_;
  ctmc::SymbolicCtmc root_;
  double root_up_threshold_ = kDefaultUpThreshold;
  bool has_root_ = false;
  std::vector<std::pair<std::string, double>> fixed_;
  std::shared_ptr<Compilation> compilation_ = std::make_shared<Compilation>();
};

}  // namespace rascal::core
