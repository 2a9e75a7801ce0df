// Compiled models (ctmc/compiled.h) against the reference bind, at
// tolerance zero: the example .rasc files, the JSAS submodels, the
// n-instance AS models, seeded random model files, zero-dropped rate
// patterns, parallel transitions, error parity, the compiled
// hierarchy, and concurrent binds of one shared model.  Also the
// override metamorphic oracle: overriding a parameter is the same as
// editing its default in the file.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <thread>

#include "check/oracle.h"
#include "check/random_model.h"
#include "core/hierarchy.h"
#include "core/metrics.h"
#include "core/units.h"
#include "ctmc/solve_cache.h"
#include "ctmc/steady_state.h"
#include "io/model_file.h"
#include "lint/diagnostic.h"
#include "models/app_server.h"
#include "models/hadb_pair.h"
#include "models/jsas_system.h"
#include "models/params.h"
#include "models/single_instance.h"

namespace rascal {
namespace {

const char* const kExampleModels[] = {
    "app_server_2inst.rasc", "hadb_pair.rasc", "kofn_as_2of3.rasc",
    "spn_as_coverage.rasc"};

std::string example_path(const std::string& name) {
  return std::string(RASCAL_SOURCE_DIR) + "/examples/models/" + name;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string g17(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_consensus(const ctmc::SymbolicCtmc& model,
                      const expr::ParameterSet& params,
                      const std::string& what) {
  const check::OracleReport report = check::check_compiled_consensus(model,
                                                                     params);
  EXPECT_TRUE(report.ok()) << what << ": " << report.summary();
  EXPECT_GT(report.checks, 0u) << what;
}

// The Figure 2 root, as jsas_system.cpp builds it.
ctmc::SymbolicCtmc jsas_root() {
  ctmc::SymbolicCtmc root;
  root.state("Ok", 1.0);
  root.state("AS_Fail", 0.0);
  root.state("HADB_Fail", 0.0);
  root.rate("Ok", "AS_Fail", "La_appl");
  root.rate("AS_Fail", "Ok", "Mu_appl");
  root.rate("Ok", "HADB_Fail", "N_pair*La_hadb_pair");
  root.rate("HADB_Fail", "Ok", "Mu_hadb_pair");
  return root;
}

TEST(CompiledConsensus, ExampleModelsAtDefaultsAndOverrides) {
  for (const char* name : kExampleModels) {
    const io::ModelFile file = io::load_model(example_path(name));
    expect_consensus(file.model, file.parameters, name);
    for (const auto& [param, value] : file.parameters) {
      expr::ParameterSet moved = file.parameters;
      moved.set(param, value == 0.0 ? 0.5 : value * 1.37);
      expect_consensus(file.model, moved, std::string(name) + " " + param);
    }
  }
}

TEST(CompiledConsensus, ZeroDroppedRatePatterns) {
  // FIR = 0 drops the imperfect-recovery transitions; the pattern
  // changes, so the merge plan and the validation memo do too.
  const io::ModelFile file = io::load_model(example_path("hadb_pair.rasc"));
  expect_consensus(file.model, file.parameters.with({{"FIR", 0.0}}),
                   "hadb_pair FIR=0");
  expr::ParameterSet params = models::default_parameters();
  params.set("hadb_FIR", 0.0);
  expect_consensus(models::hadb_pair_model(), params, "hadb model FIR=0");
  // Alternate patterns on one compiled model: memo and plans stay
  // per pattern.
  const ctmc::SymbolicCtmc model = models::hadb_pair_model();
  for (int round = 0; round < 3; ++round) {
    params.set("hadb_FIR", round % 2 == 0 ? 0.0 : 0.001);
    expect_consensus(model, params, "alternating FIR");
  }
}

TEST(CompiledConsensus, FailingPatternIsNeverMemoized) {
  // Two recurrent pairs joined both ways by the bridge rate w: with
  // w > 0 the chain is irreducible; w = 0 leaves two closed classes,
  // which validation must reject every time, also after the other
  // pattern passed.
  ctmc::SymbolicCtmc m;
  for (const char* s : {"A", "B", "C", "D"}) m.state(s, 1.0);
  m.rate("A", "B", "x");
  m.rate("B", "A", "x");
  m.rate("C", "D", "x");
  m.rate("D", "C", "x");
  m.rate("A", "C", "w");
  m.rate("C", "A", "w");
  for (const double w : {0.0, 0.0, 1.0, 0.0, 1.0}) {
    expect_consensus(m, {{"x", 2.0}, {"w", w}},
                     "bridge w=" + std::to_string(w));
  }
  EXPECT_THROW((void)ctmc::solve_steady_state(m.bind({{"x", 2.0}, {"w", 0.0}})),
               lint::LintError);
}

TEST(CompiledConsensus, JsasSubmodelsAndNInstanceModels) {
  expr::ParameterSet params = models::default_parameters();
  expect_consensus(models::app_server_two_instance_model(), params, "AS 2");
  expect_consensus(models::hadb_pair_model(), params, "HADB pair");
  expect_consensus(models::single_instance_model(), params, "single");
  for (std::size_t n = 3; n <= 5; ++n) {
    expect_consensus(models::app_server_n_instance_model(n), params,
                     "AS n=" + std::to_string(n));
  }
  params.set("La_appl", 1e-4)
      .set("Mu_appl", 2.0)
      .set("N_pair", 2.0)
      .set("La_hadb_pair", 3e-5)
      .set("Mu_hadb_pair", 1.5);
  expect_consensus(jsas_root(), params, "root");
}

TEST(CompiledConsensus, SeededRandomModelFiles) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    stats::RandomEngine rng(seed);
    const std::string text = check::random_model_file(rng);
    const io::ModelFile file = io::parse_model_text(text);
    expect_consensus(file.model, file.parameters, "seed " + std::to_string(seed));
    // Override a base and a derived parameter.
    expr::ParameterSet moved = file.parameters;
    moved.set("p0", rng.uniform(0.05, 5.0)).set("z", rng.uniform(0.1, 1.0));
    moved.set("d0", rng.uniform(0.05, 5.0));
    expect_consensus(file.model, moved,
                     "seed " + std::to_string(seed) + " overridden\n" + text);
  }
}

TEST(CompiledConsensus, ParallelTransitionsMergeInSortOrder) {
  // Three or more parallel transitions whose sum depends on the
  // order of addition ((1e16 + 1) + 1 != 1e16 + (1 + 1)), declared
  // interleaved with enough other transitions that std::sort runs its
  // introsort phase rather than insertion sort alone.
  ctmc::SymbolicCtmc m;
  for (int s = 0; s < 6; ++s) m.state("S" + std::to_string(s), s == 0 ? 1 : 0);
  const char* rates[] = {"big", "one", "one", "tiny*big", "one"};
  for (int k = 0; k < 5; ++k) {
    m.rate("S0", "S1", rates[k]);
    for (int s = 1; s < 6; ++s) {
      m.rate("S" + std::to_string(s), "S" + std::to_string((s + 1) % 6),
             "one*" + std::to_string(k + s));
      m.rate("S" + std::to_string(s), "S0", std::string(rates[4 - k]));
    }
  }
  expr::ParameterSet params{{"big", 1e16}, {"one", 1.0}, {"tiny", 3e-17}};
  expect_consensus(m, params, "parallel");
  params.set("tiny", 0.0);  // one parallel member drops out
  expect_consensus(m, params, "parallel, one dropped");
}

TEST(CompiledConsensus, ErrorParity) {
  ctmc::SymbolicCtmc m;
  m.state("Up", 1.0);
  m.state("Down", 0.0);
  m.rate("Up", "Down", "a/(b-c)");
  m.rate("Down", "Up", "mu - shift");
  m.define("shift", expr::Expression::parse("log(base)"));
  // Unbound name (first in evaluation order), division by zero, the
  // negative-rate message, and a definition's domain error.
  expect_consensus(m, {{"b", 1.0}, {"c", 2.0}, {"mu", 3.0}, {"base", 1.0}},
                   "unbound a");
  expect_consensus(m, {{"a", 1.0}, {"b", 2.0}, {"c", 2.0}, {"mu", 3.0},
                       {"base", 1.0}},
                   "division by zero");
  expect_consensus(m, {{"a", 1.0}, {"b", 3.0}, {"c", 2.0}, {"mu", 3.0},
                       {"base", 1e9}},
                   "negative rate");
  expect_consensus(m, {{"a", 1.0}, {"b", 3.0}, {"c", 2.0}, {"mu", 3.0},
                       {"base", -1.0}},
                   "log domain in a definition");
  expect_consensus(m, {{"a", 1.0}, {"b", 3.0}, {"c", 2.0}, {"mu", 3.0},
                       {"shift", 0.5}},
                   "definition overridden");
  try {
    (void)m.bind({{"b", 1.0}, {"c", 2.0}, {"mu", 3.0}, {"base", 1.0}});
    FAIL() << "expected UnknownParameterError";
  } catch (const expr::UnknownParameterError& e) {
    EXPECT_EQ(e.name(), "a");
  }
}

TEST(CompiledHierarchy, MatchesReferenceMirrorBitForBit) {
  for (const models::JsasConfig& config :
       {models::JsasConfig::config1(), models::JsasConfig::config2()}) {
    const core::HierarchicalModel hierarchy = models::jsas_model(config);
    expr::ParameterSet params = models::default_parameters();
    params.set("N_pair", static_cast<double>(config.hadb_pairs));
    for (const double fir : {0.001, 0.0}) {
      params.set("hadb_FIR", fir);
      const core::HierarchicalResult real = hierarchy.solve(params);
      // The pre-compilation algorithm: one ParameterSet, each level
      // bound by the reference, exports set by name.
      expr::ParameterSet bound = params;
      const auto level = [&](const ctmc::SymbolicCtmc& model) {
        const ctmc::Ctmc chain = check::reference_bind(model, bound);
        return std::make_pair(chain, ctmc::solve_steady_state(chain));
      };
      const auto [as_chain, as_pi] =
          level(config.as_instances == 2
                    ? models::app_server_two_instance_model()
                    : models::app_server_n_instance_model(config.as_instances));
      const auto as_eq = core::two_state_equivalent(as_chain, as_pi);
      bound.set("La_appl", as_eq.lambda_eq).set("Mu_appl", as_eq.mu_eq);
      const auto [hadb_chain, hadb_pi] = level(models::hadb_pair_model());
      const auto hadb_eq = core::two_state_equivalent(hadb_chain, hadb_pi);
      bound.set("La_hadb_pair", hadb_eq.lambda_eq)
          .set("Mu_hadb_pair", hadb_eq.mu_eq);
      const auto [root_chain, root_pi] = level(jsas_root());
      const core::AvailabilityMetrics system =
          core::availability_metrics(root_chain, root_pi);
      EXPECT_TRUE(same_bits(real.system.availability, system.availability));
      EXPECT_TRUE(same_bits(real.system.downtime_minutes_per_year,
                            system.downtime_minutes_per_year));
      EXPECT_TRUE(same_bits(real.exports.get("La_hadb_pair"),
                            hadb_eq.lambda_eq));
      for (std::size_t s = 0; s < root_pi.probabilities.size(); ++s) {
        EXPECT_TRUE(same_bits(real.root_steady.probabilities[s],
                              root_pi.probabilities[s]));
      }
      // solve_jsas (cached structure, N_pair fixed by the
      // configuration) and its cache overload agree with it too.
      expr::ParameterSet without_npair = models::default_parameters();
      without_npair.set("hadb_FIR", fir);
      ctmc::SolveCache cache;
      const models::JsasResult cached =
          models::solve_jsas(config, without_npair, cache);
      const models::JsasResult plain = models::solve_jsas(config, without_npair);
      EXPECT_TRUE(same_bits(cached.availability, system.availability));
      EXPECT_TRUE(same_bits(plain.downtime_as_minutes,
                            cached.downtime_as_minutes));
      EXPECT_TRUE(same_bits(
          cached.downtime_hadb_minutes,
          core::downtime_minutes_per_year(root_pi.probabilities[2])));
    }
  }
}

TEST(CompiledConcurrency, SharedModelBindsAreThreadIndependent) {
  // One compiled model, first compiled by racing threads, then bound
  // concurrently with alternating nonzero patterns: the plan cache and
  // the validation memo are written by several workers at once.
  const ctmc::SymbolicCtmc model = models::hadb_pair_model();
  const expr::ParameterSet base = models::default_parameters();
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  const auto params_for = [&](int i) {
    expr::ParameterSet p = base;
    p.set("hadb_FIR", i % 3 == 0 ? 0.0 : 0.0005 * (1 + i % 4));
    return p;
  };
  std::vector<std::vector<double>> got(kThreads);
  ctmc::SharedSolveCache shared;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ctmc::SolveCache cache;
      cache.set_shared(&shared);
      for (int i = 0; i < kRounds; ++i) {
        const ctmc::Ctmc chain = model.bind(params_for(i));
        got[t].push_back(core::availability_metrics(
                             chain, cache.steady_state(chain))
                             .availability);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int i = 0; i < kRounds; ++i) {
    const ctmc::Ctmc reference = check::reference_bind(model, params_for(i));
    const double want = core::availability_metrics(
                            reference, ctmc::solve_steady_state(reference))
                            .availability;
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(same_bits(got[t][static_cast<std::size_t>(i)], want))
          << "thread " << t << " round " << i;
    }
  }
}

// "Override parameter X" must equal "edit the file default of X":
// the same chain bits and solve bits, or the same bind error.  With
// `require_move`, each override must also change the chain (no model
// parameter multiplies a zero there).
void expect_override_equals_edit(const std::string& text,
                                 const std::string& what, bool require_move) {
  const io::ModelFile file = io::parse_model_text(text);
  const ctmc::Ctmc defaults = file.bind();
  std::vector<std::string> names = file.parameters.names();
  for (const auto& d : file.model.definitions()) names.push_back(d.name);
  for (const std::string& name : names) {
    const double value = file.effective_parameters().get(name) * 0.73 + 0.01;
    const expr::ParameterSet override_set{{name, value}};
    const std::string where = what + " " + name;
    if (!file.model.reaches(name)) {
      EXPECT_THROW(file.check_overrides(override_set), io::OverrideError)
          << where;
      continue;
    }
    EXPECT_NO_THROW(file.check_overrides(override_set)) << where;
    const std::regex line("(^|\n)param +" + name + " [^\n]*");
    const std::string edited =
        std::regex_replace(text, line, "$1param " + name + " " + g17(value),
                           std::regex_constants::format_first_only);
    ASSERT_NE(edited, text) << where;
    const io::ModelFile edited_file = io::parse_model_text(edited);
    std::optional<ctmc::Ctmc> overridden;
    std::optional<ctmc::Ctmc> reparsed;
    std::string override_error;
    std::string edit_error;
    try {
      overridden.emplace(file.bind(override_set));
    } catch (const std::exception& e) {
      override_error = e.what();
    }
    try {
      reparsed.emplace(edited_file.bind());
    } catch (const std::exception& e) {
      edit_error = e.what();
    }
    ASSERT_EQ(override_error, edit_error) << where;
    if (!overridden) continue;
    ASSERT_EQ(overridden->transitions().size(), reparsed->transitions().size())
        << where;
    bool moved =
        overridden->transitions().size() != defaults.transitions().size();
    for (std::size_t k = 0; k < reparsed->transitions().size(); ++k) {
      EXPECT_TRUE(same_bits(overridden->transitions()[k].rate,
                            reparsed->transitions()[k].rate))
          << where;
      moved = moved || k >= defaults.transitions().size() ||
              !same_bits(overridden->transitions()[k].rate,
                         defaults.transitions()[k].rate);
    }
    for (ctmc::StateId s = 0; s < reparsed->num_states(); ++s) {
      EXPECT_TRUE(same_bits(overridden->reward(s), reparsed->reward(s)))
          << where;
      moved = moved || !same_bits(overridden->reward(s), defaults.reward(s));
    }
    if (require_move) {
      EXPECT_TRUE(moved) << where << ": the override left the chain unchanged";
    }
    const ctmc::SteadyState a = ctmc::solve_steady_state(*overridden);
    const ctmc::SteadyState b = ctmc::solve_steady_state(*reparsed);
    for (std::size_t s = 0; s < a.probabilities.size(); ++s) {
      EXPECT_TRUE(same_bits(a.probabilities[s], b.probabilities[s])) << where;
    }
  }
}

TEST(OverrideMetamorphic, ExampleModelsOverrideEqualsEditedDefault) {
  for (const char* name : kExampleModels) {
    expect_override_equals_edit(read_text(example_path(name)), name, true);
  }
}

TEST(OverrideMetamorphic, RandomModelFilesOverrideEqualsEditedDefault) {
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    stats::RandomEngine rng(seed);
    const std::string text = check::random_model_file(rng);
    // A random file may multiply a parameter by the zero default of
    // `z`, so an override need not move the chain there.
    expect_override_equals_edit(
        text, "seed " + std::to_string(seed) + "\n" + text, false);
  }
}

TEST(OverrideMetamorphic, BaseOverrideMovesDerivedParameters) {
  // The reported bug: La = La_as+La_os+La_hw was frozen at parse time,
  // so overriding La_as left the answer at its default.
  const io::ModelFile file =
      io::load_model(example_path("app_server_2inst.rasc"));
  const auto availability = [&](const expr::ParameterSet& overrides) {
    const ctmc::Ctmc chain = file.bind(overrides);
    return core::availability_metrics(chain, ctmc::solve_steady_state(chain))
        .availability;
  };
  EXPECT_LT(availability({{"La_as", 0.5}}), availability({}) - 1e-3);
  EXPECT_EQ(file.effective_parameters({{"La_as", 0.5}}).get("La"),
            0.5 + 1.0 / 8760 + 1.0 / 8760);
}

}  // namespace
}  // namespace rascal
