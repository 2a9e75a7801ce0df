// Cross-validation: analytic hierarchical Markov model vs the
// discrete-event simulator of the actual cluster, for Config 1 and
// Config 2, under (a) the model's exponential-recovery assumption and
// (b) deterministic recovery times as the real system behaves.
#include <cstdio>
#include <iostream>

#include "models/jsas_system.h"
#include "models/params.h"
#include "report/table.h"
#include "sim/jsas_simulator.h"

int main() {
  using namespace rascal;

  std::cout << "=== Analytic model vs discrete-event simulation ===\n"
            << "(2,000 simulated system-years per configuration)\n\n";

  const auto params = models::default_parameters();
  report::TextTable table({"Configuration", "Recovery times", "Downtime",
                           "95% CI", "MTBF (hr)", "Analytic downtime",
                           "Analytic MTBF"});

  for (const auto& config :
       {models::JsasConfig::config1(), models::JsasConfig::config2()}) {
    const auto analytic = models::solve_jsas(config, params);
    for (bool exponential : {true, false}) {
      sim::JsasSimOptions options;
      options.duration = 250.0 * 8760.0;
      options.replications = 8;
      options.seed = 2004;
      options.exponential_recoveries = exponential;
      const auto sim_result = sim::simulate_jsas(config, params, options);

      const double ci_lo =
          (1.0 - sim_result.availability_ci95.upper) * 8760.0 * 60.0;
      const double ci_hi =
          (1.0 - sim_result.availability_ci95.lower) * 8760.0 * 60.0;
      table.add_row(
          {config.name(), exponential ? "exponential" : "deterministic",
           report::format_fixed(sim_result.downtime_minutes_per_year, 2) +
               " min/yr",
           std::string("(")
               .append(report::format_fixed(ci_lo, 2))
               .append(", ")
               .append(report::format_fixed(ci_hi, 2))
               .append(")"),
           report::format_fixed(sim_result.mtbf_hours, 0),
           report::format_fixed(analytic.downtime_minutes_per_year, 2) +
               " min/yr",
           report::format_fixed(analytic.mtbf_hours, 0)});
    }
  }
  std::cout << table.to_string() << "\n";
  std::cout
      << "Reading: with exponential recoveries the DES follows the same\n"
         "stochastic model as the CTMC, so downtime should agree within the\n"
         "CI.  With deterministic recoveries (the real system's behaviour)\n"
         "the second-failure window changes shape but stays the same order\n"
         "of magnitude -- the exponential assumption in the paper's model\n"
         "is not what drives its conclusions.\n";
  return 0;
}
