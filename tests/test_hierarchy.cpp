#include "core/hierarchy.h"

#include <gtest/gtest.h>

#include "core/units.h"
#include "ctmc/builder.h"
#include "models/hadb_pair.h"
#include "models/params.h"

namespace rascal::core {
namespace {

ctmc::SymbolicCtmc symbolic_two_state(const std::string& lambda,
                                      const std::string& mu) {
  ctmc::SymbolicCtmc m;
  m.state("Up", 1.0);
  m.state("Down", 0.0);
  m.rate("Up", "Down", lambda);
  m.rate("Down", "Up", mu);
  return m;
}

TEST(Hierarchy, ExportsFeedTheRootModel) {
  HierarchicalModel model;
  model.add_submodel({"sub",
                      symbolic_two_state("lambda_in", "mu_in"),
                      {{"La_sub", ExportKind::kLambdaEq},
                       {"Mu_sub", ExportKind::kMuEq}},
                      kDefaultUpThreshold});
  model.set_root(symbolic_two_state("La_sub", "Mu_sub"));

  const expr::ParameterSet inputs{{"lambda_in", 0.01}, {"mu_in", 2.0}};
  const HierarchicalResult result = model.solve(inputs);

  // A 2-state submodel collapses to itself: the root must reproduce
  // the submodel's availability exactly.
  ASSERT_EQ(result.submodels.size(), 1u);
  EXPECT_NEAR(result.system.availability,
              result.submodels[0].metrics.availability, 1e-12);
  EXPECT_NEAR(result.exports.get("La_sub"), 0.01, 1e-12);
  EXPECT_NEAR(result.exports.get("Mu_sub"), 2.0, 1e-9);
}

TEST(Hierarchy, LaterSubmodelSeesEarlierExports) {
  HierarchicalModel model;
  model.add_submodel({"first",
                      symbolic_two_state("lambda_in", "mu_in"),
                      {{"La_first", ExportKind::kLambdaEq}},
                      kDefaultUpThreshold});
  // The second submodel's failure rate is the first one's equivalent
  // failure rate scaled by 2.
  model.add_submodel({"second",
                      symbolic_two_state("2*La_first", "mu_in"),
                      {{"La_second", ExportKind::kLambdaEq},
                       {"Mu_second", ExportKind::kMuEq}},
                      kDefaultUpThreshold});
  model.set_root(symbolic_two_state("La_second", "Mu_second"));
  const auto result = model.solve({{"lambda_in", 0.02}, {"mu_in", 1.0}});
  EXPECT_NEAR(result.exports.get("La_second"), 0.04, 1e-10);
}

TEST(Hierarchy, AvailabilityAndFrequencyExports) {
  HierarchicalModel model;
  model.add_submodel({"sub",
                      symbolic_two_state("l", "m"),
                      {{"A_sub", ExportKind::kAvailability},
                       {"U_sub", ExportKind::kUnavailability},
                       {"F_sub", ExportKind::kFailureFrequency}},
                      kDefaultUpThreshold});
  model.set_root(symbolic_two_state("U_sub", "A_sub"));
  const auto result = model.solve({{"l", 1.0}, {"m", 3.0}});
  EXPECT_NEAR(result.exports.get("A_sub"), 0.75, 1e-12);
  EXPECT_NEAR(result.exports.get("U_sub"), 0.25, 1e-12);
  EXPECT_NEAR(result.exports.get("F_sub"), 0.75 * 1.0, 1e-12);
}

TEST(Hierarchy, RejectsDuplicates) {
  HierarchicalModel model;
  model.add_submodel({"sub",
                      symbolic_two_state("l", "m"),
                      {{"X", ExportKind::kLambdaEq}},
                      kDefaultUpThreshold});
  EXPECT_THROW(model.add_submodel({"sub",
                                   symbolic_two_state("l", "m"),
                                   {{"Y", ExportKind::kLambdaEq}},
                                   kDefaultUpThreshold}),
               std::invalid_argument);
  EXPECT_THROW(model.add_submodel({"other",
                                   symbolic_two_state("l", "m"),
                                   {{"X", ExportKind::kLambdaEq}},
                                   kDefaultUpThreshold}),
               std::invalid_argument);
}

TEST(Hierarchy, SolveWithoutRootThrows) {
  HierarchicalModel model;
  EXPECT_THROW((void)model.solve({}), std::logic_error);
}

TEST(Hierarchy, MissingInputNamesTheParameter) {
  HierarchicalModel model;
  model.set_root(symbolic_two_state("absent", "1"));
  EXPECT_THROW((void)model.solve({}), expr::UnknownParameterError);
}

// Validation against the paper's HADB submodel: the hierarchical
// two-state abstraction must reproduce the submodel's own
// availability when used alone at the root.
TEST(Hierarchy, HadbPairAbstractionPreservesAvailability) {
  HierarchicalModel model;
  model.add_submodel({"HADB Node Pair",
                      models::hadb_pair_model(),
                      {{"La_pair", ExportKind::kLambdaEq},
                       {"Mu_pair", ExportKind::kMuEq}},
                      kDefaultUpThreshold});
  model.set_root(symbolic_two_state("La_pair", "Mu_pair"));
  const auto result = model.solve(models::default_parameters());
  EXPECT_NEAR(result.system.availability,
              result.submodels[0].metrics.availability, 1e-13);
}

}  // namespace
}  // namespace rascal::core
