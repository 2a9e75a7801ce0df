#include "io/model_file.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "ctmc/steady_state.h"
#include "models/hadb_pair.h"
#include "models/params.h"

namespace rascal::io {
namespace {

constexpr const char* kSimpleModel = R"(
# a two-state repairable component
model simple component
param lambda 0.01
param mu     2.0
state Up   reward 1
state Down reward 0
rate Up Down lambda
rate Down Up mu
)";

TEST(ModelFile, ParsesSimpleModel) {
  const ModelFile file = parse_model_text(kSimpleModel);
  EXPECT_EQ(file.name, "simple component");
  EXPECT_DOUBLE_EQ(file.parameters.get("lambda"), 0.01);
  EXPECT_EQ(file.model.num_states(), 2u);
  const ctmc::Ctmc chain = file.bind();
  EXPECT_DOUBLE_EQ(chain.rate(chain.state("Up"), chain.state("Down")), 0.01);
  EXPECT_DOUBLE_EQ(chain.rate(chain.state("Down"), chain.state("Up")), 2.0);
}

TEST(ModelFile, OverridesReplaceDefaults) {
  const ModelFile file = parse_model_text(kSimpleModel);
  const ctmc::Ctmc chain = file.bind(expr::ParameterSet{{"lambda", 0.5}});
  EXPECT_DOUBLE_EQ(chain.rate(chain.state("Up"), chain.state("Down")), 0.5);
}

TEST(ModelFile, ParamsMayReferenceEarlierParams) {
  const ModelFile file = parse_model_text(R"(
param a 2/8760
param b a*3
state X reward 1
state Y reward 0
rate X Y b
rate Y X 1
)");
  EXPECT_NEAR(file.effective_parameters().get("b"), 6.0 / 8760.0, 1e-15);
}

TEST(ModelFile, CommentsAndBlankLinesIgnored) {
  const ModelFile file = parse_model_text(
      "\n# full-line comment\nstate A reward 1  # trailing\n"
      "state B reward 0\nrate A B 1 # r\nrate B A 2\n");
  EXPECT_EQ(file.model.num_states(), 2u);
}

TEST(ModelFile, ReportsLineNumbersOnErrors) {
  try {
    (void)parse_model_text("state A reward 1\nbogus directive\n");
    FAIL() << "expected ModelFileError";
  } catch (const ModelFileError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(ModelFile, RejectsMalformedDirectives) {
  EXPECT_THROW((void)parse_model_text("param only_name\nstate A reward 1\n"),
               ModelFileError);
  EXPECT_THROW((void)parse_model_text("state A 1\n"), ModelFileError);
  EXPECT_THROW(
      (void)parse_model_text("state A reward 1\nrate A B 1\n"),
      ModelFileError);  // unknown state B
  EXPECT_THROW(
      (void)parse_model_text("state A reward 1\nrate A A ((\nrate A A 1\n"),
      ModelFileError);  // bad expression
  EXPECT_THROW((void)parse_model_text("param x 1\nparam x 2\n"),
               ModelFileError);
  EXPECT_THROW((void)parse_model_text("state A reward 1\nstate A reward 0\n"),
               ModelFileError);
}

TEST(ModelFile, RejectsEmptyModels) {
  EXPECT_THROW((void)parse_model_text("# nothing\n"), ModelFileError);
  EXPECT_THROW((void)parse_model_text("state A reward 1\n"), ModelFileError);
}

TEST(ModelFile, LoadModelReportsMissingFile) {
  EXPECT_THROW((void)load_model("/nonexistent/model.rasc"),
               std::runtime_error);
}

// The shipped .rasc files must parse and reproduce the C++ models.
TEST(ModelFile, ShippedHadbPairFileMatchesBuiltinModel) {
  const ModelFile file = load_model(std::string(RASCAL_SOURCE_DIR) +
                                    "/examples/models/hadb_pair.rasc");
  const auto from_file = core::solve_availability(file.bind());
  const auto builtin = core::solve_availability(
      models::hadb_pair_model().bind(models::default_parameters()));
  EXPECT_NEAR(from_file.unavailability, builtin.unavailability,
              builtin.unavailability * 1e-12);
  EXPECT_NEAR(from_file.mtbf_hours, builtin.mtbf_hours,
              builtin.mtbf_hours * 1e-12);
}

TEST(ModelFile, ShippedAppServerFileSolves) {
  const ModelFile file = load_model(std::string(RASCAL_SOURCE_DIR) +
                                    "/examples/models/app_server_2inst.rasc");
  const auto metrics = core::solve_availability(file.bind());
  // Figure 4 submodel: ~2.35 min/yr downtime (Table 2 attribution).
  EXPECT_NEAR(metrics.downtime_minutes_per_year, 2.35, 0.05);
}

}  // namespace
}  // namespace rascal::io
