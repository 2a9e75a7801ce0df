#include "ctmc/validate.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "lint/scc.h"

namespace rascal::ctmc {

namespace {

lint::Diagnostic state_error(const char* code, std::string message,
                             const std::string& state,
                             std::string fix_hint = {}) {
  lint::Diagnostic d;
  d.code = code;
  d.severity = lint::Severity::kError;
  d.message = std::move(message);
  d.location.state = state;
  d.fix_hint = std::move(fix_hint);
  return d;
}

}  // namespace

lint::LintReport validate_for_steady_state(const Ctmc& chain) {
  lint::LintReport report;
  // A chain bound from a compiled model shares its pattern's verdict:
  // the check depends only on which transitions are present, so once
  // one chain with this pattern passed, every later one does.
  PatternMemo* memo = chain.pattern_memo();
  if (memo != nullptr &&
      memo->steady_state_valid.load(std::memory_order_acquire)) {
    return report;
  }
  const lint::Adjacency edges = chain.adjacency();
  const lint::SccResult scc = lint::tarjan_scc(edges);
  const auto passed = [&]() -> lint::LintReport {
    if (memo != nullptr) {
      memo->steady_state_valid.store(true, std::memory_order_release);
    }
    return lint::LintReport{};
  };
  if (scc.num_components() == 1) return passed();

  // A reducible chain still has a unique stationary distribution as
  // long as exactly one communicating class is closed: the transient
  // states simply get probability zero (the linter flags them
  // separately).  Only two or more closed classes make pi non-unique
  // and the solve ill-posed, so that is the fail-fast condition.
  const std::vector<bool> closed = lint::closed_components(edges, scc);
  std::vector<std::size_t> closed_ids;
  for (std::size_t c = 0; c < scc.num_components(); ++c) {
    if (closed[c]) closed_ids.push_back(c);
  }
  if (closed_ids.size() <= 1) return passed();

  lint::Diagnostic d;
  d.code = lint::codes::kNotIrreducible;
  d.severity = lint::Severity::kError;
  d.message = "steady-state distribution is not unique: the chain has " +
              std::to_string(closed_ids.size()) +
              " closed communicating classes (" +
              std::to_string(scc.num_components()) +
              " strongly connected components in total)";
  d.fix_hint = "run the linter (rascal_cli lint) for the full structural "
               "report, or pass Validation::kOff to analyze a recurrent "
               "class deliberately";
  report.add(std::move(d));
  for (const std::size_t c : closed_ids) {
    const StateId representative = scc.components[c].front();
    report.add(state_error(
        lint::codes::kAbsorbingClass,
        "state '" + chain.state_name(representative) +
            "' belongs to a closed class of " +
            std::to_string(scc.components[c].size()) +
            " state(s) that the chain can never leave",
        chain.state_name(representative)));
  }
  return report;
}

lint::LintReport validate_for_absorption(const Ctmc& chain,
                                         const std::vector<StateId>& targets) {
  lint::LintReport report;
  // Backward reachability: which states can reach the target set?
  const lint::Adjacency reverse = lint::Adjacency::from_edges(
      chain.num_states(), chain.transitions(),
      [](const Transition& t) { return t.to; },
      [](const Transition& t) { return t.from; });
  std::vector<bool> reaches(chain.num_states(), false);
  std::vector<StateId> stack;
  for (const StateId t : targets) {
    if (t < chain.num_states() && !reaches[t]) {
      reaches[t] = true;
      stack.push_back(t);
    }
  }
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const std::size_t p : reverse[s]) {
      if (!reaches[p]) {
        reaches[p] = true;
        stack.push_back(p);
      }
    }
  }
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (!reaches[s]) {
      report.add(state_error(
          lint::codes::kTargetUnreachable,
          "state '" + chain.state_name(s) +
              "' can never reach the target set (mean time to "
              "absorption is infinite)",
          chain.state_name(s),
          "add a path into the target set or drop the state from the "
          "analysis"));
    }
  }
  return report;
}

lint::LintReport validate_for_transient(const Ctmc& chain, double t,
                                        std::size_t max_terms) {
  lint::LintReport report;
  if (!(t > 0.0)) return report;
  // The Poisson truncation point is at least the mean Lambda*t; when
  // even that exceeds max_terms the summation must abort, so fail
  // before burning through millions of matrix-vector products.
  const double mean_terms = chain.max_exit_rate() * t;
  if (mean_terms > static_cast<double>(max_terms)) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3g", mean_terms);
    lint::Diagnostic d;
    d.code = lint::codes::kHorizonInfeasible;
    d.severity = lint::Severity::kError;
    d.message = "uniformization needs at least " + std::string(buffer) +
                " terms for this horizon, over the max_terms cap of " +
                std::to_string(max_terms) +
                " (chain too stiff for the horizon)";
    d.fix_hint = "use steady state for long horizons, raise "
                 "TransientOptions::max_terms, or rescale the time unit";
    report.add(std::move(d));
  }
  return report;
}

void throw_if_errors(lint::LintReport report) {
  if (report.has_errors()) {
    throw lint::LintError(std::move(report));
  }
}

}  // namespace rascal::ctmc
