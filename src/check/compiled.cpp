#include <cmath>
#include <cstring>
#include <stdexcept>
#include <typeinfo>

#include "check/oracle.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "ctmc/validate.h"

namespace rascal::check {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_bits(OracleReport& report, const std::string& what, double got,
                 double want) {
  ++report.checks;
  if (!same_bits(got, want)) {
    report.failures.push_back(what + ": bits differ (" +
                              std::to_string(got) + " vs " +
                              std::to_string(want) + ")");
  }
}

void expect(OracleReport& report, bool ok, const std::string& what) {
  ++report.checks;
  if (!ok) report.failures.push_back(what);
}

std::string render(const lint::LintReport& report) {
  std::string out;
  for (const lint::Diagnostic& d : report) {
    out += d.code;
    out += ' ';
    out += d.message;
    out += '\n';
  }
  return out;
}

void compare_chains(OracleReport& report, const ctmc::Ctmc& got,
                    const ctmc::Ctmc& want) {
  expect(report, got.num_states() == want.num_states(), "state count");
  expect(report, got.transitions().size() == want.transitions().size(),
         "merged transition count");
  if (report.failures.size() > 0) return;
  for (ctmc::StateId s = 0; s < want.num_states(); ++s) {
    expect(report, got.state_name(s) == want.state_name(s),
           "state name " + want.state_name(s));
    expect_bits(report, "reward " + want.state_name(s), got.reward(s),
                want.reward(s));
    expect_bits(report, "exit rate " + want.state_name(s), got.exit_rate(s),
                want.exit_rate(s));
  }
  for (std::size_t k = 0; k < want.transitions().size(); ++k) {
    const ctmc::Transition& a = got.transitions()[k];
    const ctmc::Transition& b = want.transitions()[k];
    const std::string what = "transition " + want.state_name(b.from) +
                             " -> " + want.state_name(b.to);
    expect(report, a.from == b.from && a.to == b.to, what + " endpoints");
    expect_bits(report, what + " rate", a.rate, b.rate);
  }
}

void compare_solves(OracleReport& report, const std::string& what,
                    const ctmc::SteadyState& got,
                    const ctmc::SteadyState& want) {
  expect(report, got.probabilities.size() == want.probabilities.size(),
         what + " size");
  for (std::size_t s = 0;
       s < got.probabilities.size() && s < want.probabilities.size(); ++s) {
    expect_bits(report, what + " pi[" + std::to_string(s) + "]",
                got.probabilities[s], want.probabilities[s]);
  }
  expect_bits(report, what + " residual", got.residual, want.residual);
}

}  // namespace

ctmc::Ctmc reference_bind(const ctmc::SymbolicCtmc& model,
                          const expr::ParameterSet& params) {
  const expr::ParameterSet effective = model.with_definitions(params);
  ctmc::CtmcBuilder builder;
  std::vector<double> rewards;
  for (const ctmc::State& s : model.states()) rewards.push_back(s.reward);
  for (const ctmc::SymbolicCtmc::SymbolicTransition& t : model.transitions()) {
    const double value = t.rate.evaluate(effective);
    if (value != 0.0 && (!(value > 0.0) || !std::isfinite(value))) {
      throw std::invalid_argument(
          "SymbolicCtmc::bind: rate '" + t.rate.source() + "' on " +
          model.states()[t.from].name + " -> " + model.states()[t.to].name +
          " evaluated to a negative or non-finite value");
    }
  }
  for (std::size_t i = 0; i < model.states().size(); ++i) {
    if (const auto& reward = model.reward_expressions()[i]) {
      rewards[i] = reward->evaluate(effective);
    }
    (void)builder.state(model.states()[i].name, rewards[i]);
  }
  for (const ctmc::SymbolicCtmc::SymbolicTransition& t : model.transitions()) {
    builder.rate(t.from, t.to, t.rate.evaluate(effective));
  }
  return builder.build();
}

OracleReport check_compiled_consensus(const ctmc::SymbolicCtmc& model,
                                      const expr::ParameterSet& params) {
  OracleReport report;

  // Error parity: both paths fail, with the same type and text.
  std::optional<ctmc::Ctmc> want;
  std::string want_error;
  const std::type_info* want_type = nullptr;
  try {
    want.emplace(reference_bind(model, params));
  } catch (const std::exception& e) {
    want_error = e.what();
    want_type = &typeid(e);
  }
  std::optional<ctmc::Ctmc> got;
  try {
    got.emplace(model.bind(params));
  } catch (const std::exception& e) {
    expect(report, want_type != nullptr,
           std::string("compiled bind threw '") + e.what() +
               "' where the reference bound");
    if (want_type != nullptr) {
      expect(report, typeid(e) == *want_type,
             std::string("error type ") + typeid(e).name() + " vs " +
                 want_type->name());
      expect(report, want_error == e.what(),
             std::string("error text '") + e.what() + "' vs '" + want_error +
                 "'");
    }
    return report;
  }
  expect(report, want_type == nullptr,
         "compiled bind succeeded where the reference threw '" + want_error +
             "'");
  if (!want) return report;
  compare_chains(report, *got, *want);
  if (!report.ok()) return report;

  // Validation: the verdict and diagnostics match, fresh and memoized.
  const std::string want_verdict =
      render(ctmc::validate_for_steady_state(*want));
  expect(report,
         render(ctmc::validate_for_steady_state(*got)) == want_verdict,
         "validation verdict (first)");
  expect(report,
         render(ctmc::validate_for_steady_state(*got)) == want_verdict,
         "validation verdict (memoized)");
  if (!want_verdict.empty()) return report;

  // Solves: direct and through a cache, cold and hit.
  const ctmc::SteadyState reference = ctmc::solve_steady_state(*want);
  compare_solves(report, "direct", ctmc::solve_steady_state(*got),
                 reference);
  ctmc::SolveCache cache;
  compare_solves(report, "cache cold", cache.steady_state(*got), reference);
  compare_solves(report, "cache hit", cache.steady_state(*got), reference);
  expect(report, cache.hits() == 1 && cache.misses() == 1,
         "cache served the second solve");

  // Key: repeats on a rebind; moves with every rate parameter.
  const auto key_of = [](const ctmc::Ctmc& chain) {
    return ctmc::steady_state_key(chain, ctmc::SteadyStateMethod::kGth,
                                  ctmc::Validation::kOn, {});
  };
  const std::uint64_t key = key_of(*got);
  expect(report, key == key_of(model.bind(params)), "key repeats on rebind");
  expect(report,
         ctmc::SolveCache::generator_digest(*got) ==
             ctmc::SolveCache::generator_digest(*want),
         "generator digest");
  for (const std::string& name : model.parameters()) {
    const double* value = params.find(name);
    if (value == nullptr) continue;
    expr::ParameterSet moved = params;
    moved.set(name, std::nextafter(*value, HUGE_VAL));
    try {
      expect(report, key_of(model.bind(moved)) != key,
             "key moves with parameter '" + name + "'");
    } catch (const std::exception&) {
      // A one-ulp move that breaks the bind has no key to compare.
    }
  }
  return report;
}

}  // namespace rascal::check
