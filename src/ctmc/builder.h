// Builders for CTMCs.
//
// CtmcBuilder assembles a chain from numeric rates.  SymbolicCtmc
// holds rates as parameter expressions (the strings printed in the
// paper's model figures) and is bound against a ParameterSet to
// produce a concrete Ctmc — the mechanism that lets one model
// definition serve parametric sweeps and uncertainty sampling.  A
// SymbolicCtmc compiles itself once, on first use, into a
// CompiledCtmc (compiled.h); every bind runs that program.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ctmc/compiled.h"
#include "ctmc/ctmc.h"
#include "expr/expression.h"
#include "expr/parameter_set.h"

namespace rascal::ctmc {

class CtmcBuilder {
 public:
  /// Declares a state; returns its id.  Duplicate names are rejected
  /// at build() time by Ctmc validation.
  StateId state(std::string name, double reward);

  /// Adds a transition.  Zero rates are silently dropped (convenient
  /// when a rate formula can legitimately vanish, e.g. FIR = 0);
  /// negative rates are rejected by build().
  CtmcBuilder& rate(StateId from, StateId to, double value);

  /// Name-based overload; both states must already be declared.
  CtmcBuilder& rate(const std::string& from, const std::string& to,
                    double value);

  [[nodiscard]] std::size_t num_states() const noexcept {
    return states_.size();
  }

  /// Validates and constructs the chain.
  [[nodiscard]] Ctmc build() const;

 private:
  [[nodiscard]] StateId id_of(const std::string& name) const;

  std::vector<State> states_;
  std::vector<Transition> transitions_;
};

/// A CTMC whose transition rates are unevaluated expressions.
class SymbolicCtmc {
 public:
  struct SymbolicTransition {
    StateId from = 0;
    StateId to = 0;
    expr::Expression rate;
  };

  /// Derived parameter, evaluated at bind time: "La = La_as+La_os".
  struct Definition {
    std::string name;
    expr::Expression value;
  };

  StateId state(std::string name, double reward);
  /// State whose reward is an expression over the parameters.  A
  /// constant expression is stored as a plain reward; otherwise
  /// states() reports NaN for it and bind evaluates it.
  StateId state(std::string name, const expr::Expression& reward);

  /// Declares a derived parameter.  At bind time every definition is
  /// evaluated in declaration order after the bound parameters are
  /// applied, unless the parameters bind `name` themselves (an
  /// override).  A definition may read earlier definitions, never
  /// later ones, so declaration order is a topological order; throws
  /// std::invalid_argument on a duplicate name or a forward
  /// reference.
  SymbolicCtmc& define(std::string name, expr::Expression value);

  /// Adds a transition with a rate expression, e.g.
  /// rate("Ok", "RestartShort", "2*La_hadb*(1-FIR)").
  SymbolicCtmc& rate(const std::string& from, const std::string& to,
                     const std::string& expression);
  SymbolicCtmc& rate(const std::string& from, const std::string& to,
                     expr::Expression expression);

  /// Union of variables over all rate expressions.
  [[nodiscard]] std::set<std::string> parameters() const;

  /// True when some rate or reward depends on `name`, directly or
  /// through definitions.
  [[nodiscard]] bool reaches(const std::string& name) const;

  /// Evaluates every definition against `params` and builds the chain
  /// (compiling the model on first use).  Rate expressions evaluating
  /// to exactly zero are dropped; negative or non-finite values raise
  /// std::invalid_argument naming the offending transition.
  [[nodiscard]] Ctmc bind(const expr::ParameterSet& params) const;

  /// `params` plus the value of every definition it does not bind.
  [[nodiscard]] expr::ParameterSet with_definitions(
      const expr::ParameterSet& params) const;

  /// The compiled form, built once and shared by copies of this
  /// model; safe to call from many threads.
  [[nodiscard]] const CompiledCtmc& compiled() const;
  /// The slot table compiled() resolves names through.
  [[nodiscard]] const expr::SlotTable& slots() const;

  [[nodiscard]] std::size_t num_states() const noexcept {
    return states_.size();
  }
  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return states_;
  }
  [[nodiscard]] const std::vector<SymbolicTransition>& transitions()
      const noexcept {
    return transitions_;
  }
  [[nodiscard]] const std::vector<Definition>& definitions() const noexcept {
    return definitions_;
  }
  /// Reward expression of each state (empty for constant rewards).
  [[nodiscard]] const std::vector<std::optional<expr::Expression>>&
  reward_expressions() const noexcept {
    return reward_expressions_;
  }

 private:
  struct Compilation {
    std::once_flag once;
    expr::SlotTable slots;
    std::unique_ptr<const CompiledCtmc> model;
  };

  [[nodiscard]] StateId id_of(const std::string& name) const;
  [[nodiscard]] const Compilation& compilation() const;
  // Any edit invalidates the compiled form (copies made before the
  // edit keep theirs).
  void edited() { compilation_ = std::make_shared<Compilation>(); }

  std::vector<State> states_;
  std::vector<std::optional<expr::Expression>> reward_expressions_;
  std::vector<SymbolicTransition> transitions_;
  std::vector<Definition> definitions_;
  std::shared_ptr<Compilation> compilation_ = std::make_shared<Compilation>();
};

}  // namespace rascal::ctmc
