// The benchmark's workloads (see perfbench/README.md for why each).
#pragma once

#include <memory>

#include "harness.h"

namespace perfbench {

[[nodiscard]] std::unique_ptr<Workload> make_uncertainty_fig7();
[[nodiscard]] std::unique_ptr<Workload> make_batch_hot();
[[nodiscard]] std::unique_ptr<Workload> make_kofn_sparse();

/// Prints kofn_sparse's reference table, solved by dense GTH on the
/// coarsest ordinary lumping of each case's chain.
void print_kofn_reference();

}  // namespace perfbench
