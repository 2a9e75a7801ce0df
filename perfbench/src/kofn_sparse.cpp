// kofn_sparse: the replicated k-of-n application-server tier whose
// state space grows like 3^N.  One op is kofn_as_model ->
// solve_steady_state (GMRES, ILU(0), as in the kofn_as golden) ->
// availability_metrics for one (N, quorum) case, single-threaded.
// Model generation, sparse assembly and Krylov iterations dominate.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/metrics.h"
#include "ctmc/lumping.h"
#include "ctmc/steady_state.h"
#include "ctmc/validate.h"
#include "harness.h"
#include "linalg/krylov.h"
#include "linalg/precond.h"
#include "models/kofn_as.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace rascal;

struct KofnCase {
  std::size_t nodes;
  std::size_t quorum;
  double availability;  // reference
};

// N = 6..10 (729 to 59,049 states), quorum N-2 and N, 2 repair crews,
// plus quorum N-1 at N=8.  The sizes form latency clusters; with an odd
// number of cases a cycle the median op is the middle N=8 case, and the
// p95 tail lies inside the slowest N=10 case.  With two cases at N=8
// both percentiles fell between two cases, on the extremes of each.
// Reference availabilities, printed by `rascal_perfbench
// --kofn-reference`: dense GTH on the chain's coarsest ordinary lumping
// up to N=8, BiCGStab to a 1e-14 residual beyond.  Neither is the
// workload's GMRES path; both agree with it to ~4e-13 relative, so any
// solver of the same tier (lumped, differently iterated) passes
// kAvailabilityRelTol.
constexpr std::array<KofnCase, 11> kCases = {{
    {6, 4, 0.99999036012777864},    // GTH, lumped to 486 states
    {6, 6, 0.96762473941734262},    // GTH, lumped to 486 states
    {7, 5, 0.99998325749608119},    // GTH, lumped to 1458 states
    {7, 7, 0.9623309381457813},     // GTH, lumped to 1458 states
    {8, 6, 0.99997341228238856},    // GTH, lumped to 4374 states
    {8, 7, 0.99917511830777106},    // GTH, lumped to 4374 states
    {8, 8, 0.95706571034652099},    // GTH, lumped to 4374 states
    {9, 7, 0.99996041397685353},    // BiCGStab to 1e-14
    {9, 9, 0.95182883934624396},    // BiCGStab to 1e-14
    {10, 8, 0.99994386397944202},   // BiCGStab to 1e-14
    {10, 10, 0.94662011060750484},  // BiCGStab to 1e-14
}};
constexpr double kAvailabilityRelTol = 1e-9;
constexpr double kResidualBound = 1e-9;  // ||pi Q||_inf of the solve
constexpr std::size_t kSetupCase = 4;    // N=8, quorum 6: the set-up op
constexpr std::size_t kCycles = 256;     // shuffled cycles of the 11 cases
// Largest chain (N=8) whose reference is dense GTH on its coarsest
// ordinary lumping; lumping larger chains takes minutes.
constexpr std::size_t kLumpedReferenceStates = 6561;

models::KofnAsConfig config_of(const KofnCase& c) {
  models::KofnAsConfig config;
  config.nodes = c.nodes;
  config.quorum = c.quorum;
  config.repair_crews = 2;
  return config;
}

// The kofn_as golden's solver configuration.
ctmc::SolveControl golden_control() {
  ctmc::SolveControl control;
  control.sparse_threshold = 8;
  control.escalate = false;
  control.precond = linalg::PrecondKind::kIlu0;
  return control;
}

class KofnSparse final : public Workload {
 public:
  const char* name() const override { return "kofn_sparse"; }
  const char* unit() const override { return "solve"; }
  std::size_t requested_threads() const override { return 1; }
  double tail_percentile() const override { return 95.0; }
  std::size_t window_ops() const override { return kCases.size(); }

  // Each cycle runs every case once, in a seeded order.
  void make_inputs(std::uint64_t seed, std::size_t /*threads*/) override {
    InputRng rng(seed);
    order_.clear();
    for (std::size_t c = 0; c < kCycles; ++c) {
      std::array<std::size_t, kCases.size()> cycle{};
      for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
      for (std::size_t i = cycle.size() - 1; i > 0; --i) {
        std::swap(cycle[i], cycle[rng.index(i + 1)]);
      }
      order_.insert(order_.end(), cycle.begin(), cycle.end());
    }
  }

  void make_reference() override {
    for (std::size_t i = 0; i < kCases.size(); ++i) {
      reference_[i] = kCases[i].availability;
    }
    have_reference_ = true;
  }

  void perturb_reference(bool on) override {
    reference_[kSetupCase] = on ? kCases[kSetupCase].availability *
                                      (1.0 + 10.0 * kAvailabilityRelTol)
                                : kCases[kSetupCase].availability;
  }

  OpResult run_op(std::size_t k) override {
    const std::size_t c = case_of(k);
    const std::int64_t start = now_ns();
    const ctmc::Ctmc chain = models::kofn_as_model(config_of(kCases[c]));
    const ctmc::SteadyState steady = ctmc::solve_steady_state(
        chain, ctmc::SteadyStateMethod::kGmres, ctmc::Validation::kOn,
        golden_control());
    const core::AvailabilityMetrics metrics =
        core::availability_metrics(chain, steady);
    const std::int64_t op_ns = now_ns() - start;
    return check(c, op_ns, metrics, steady);
  }

  OpResult run_traced_op(std::size_t k) override {
    const std::size_t c = case_of(k);
    begin_op();
    const std::int64_t start = now_ns();
    ctmc::SteadyState steady;
    core::AvailabilityMetrics metrics;
    {
      const Span op_span("kofn.op");
      const ctmc::Ctmc chain = [&] {
        const Span span("models.kofn.build");
        return models::kofn_as_model(config_of(kCases[c]));
      }();
      {
        const Span span("ctmc.solve_steady_state");
        steady = ctmc::solve_steady_state(chain,
                                          ctmc::SteadyStateMethod::kGmres,
                                          ctmc::Validation::kOn,
                                          golden_control());
      }
      const Span span("core.metrics");
      metrics = core::availability_metrics(chain, steady);
    }
    const std::int64_t op_ns = now_ns() - start;
    iterations_.push_back(static_cast<double>(steady.iterations));
    return check(c, op_ns, metrics, steady);
  }

  // Splits the sparse solve of each case into the public steps it runs
  // (sparse generator, stationary system, ILU(0), GMRES) by repeating
  // them once per case.  GMRES builds its own preconditioner, so the
  // Krylov time is the GMRES call minus the separately timed ILU(0).
  std::size_t run_probes() override {
    std::size_t failed = 0;
    for (const KofnCase& kc : kCases) {
      const ctmc::Ctmc chain = models::kofn_as_model(config_of(kc));
      {
        const Span span("ctmc.validate", /*probe=*/true);
        if (ctmc::validate_for_steady_state(chain).has_errors()) ++failed;
      }
      const std::int64_t t0 = now_ns();
      const linalg::CsrMatrix q = [&] {
        const Span span("ctmc.sparse_generator", /*probe=*/true);
        return chain.sparse_generator();
      }();
      const std::int64_t t1 = now_ns();
      const linalg::CsrMatrix a = [&] {
        const Span span("linalg.stationary_system", /*probe=*/true);
        return linalg::stationary_system(q);
      }();
      const std::int64_t t2 = now_ns();
      {
        const Span span("linalg.precond", /*probe=*/true);
        static_cast<void>(
            linalg::make_preconditioner(linalg::PrecondKind::kIlu0, a));
      }
      const std::int64_t t3 = now_ns();
      linalg::Vector b(a.rows(), 0.0);
      b.back() = 1.0;
      const linalg::Vector guess(a.rows(), 1.0 / static_cast<double>(a.rows()));
      linalg::KrylovOptions options;
      options.precond = linalg::PrecondKind::kIlu0;
      options.initial_guess = &guess;
      const linalg::KrylovResult result = [&] {
        const Span span("linalg.gmres", /*probe=*/true);
        return linalg::gmres(a, b, options);
      }();
      const std::int64_t t4 = now_ns();
      if (!result.converged) ++failed;
      sparse_generator_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      stationary_system_ms_.push_back(static_cast<double>(t2 - t1) / 1e6);
      precond_ms_.push_back(static_cast<double>(t3 - t2) / 1e6);
      krylov_ms_.push_back(static_cast<double>((t4 - t3) - (t3 - t2)) / 1e6);
      states_.push_back(static_cast<double>(q.rows()));
      nnz_.push_back(static_cast<double>(q.non_zeros()));
    }
    return failed;
  }

  void per_layer(const std::vector<SpanRecord>& spans,
                 LayerMetrics& out) override {
    const std::string over_cases =
        "median over the " + std::to_string(kCases.size()) + " cases";
    const std::string per_case = "probe, " + over_cases;
    out.set("models.kofn.build_ms",
            median(durations_us(spans, "models.kofn.build")) / 1e3);
    out.set("models.kofn.states", median(states_), over_cases);
    out.set("models.kofn.nnz", median(nnz_), over_cases);
    out.set("ctmc.sparse_generator.ms", median(sparse_generator_ms_), per_case);
    out.set("linalg.stationary_system.ms", median(stationary_system_ms_),
            per_case);
    out.set("linalg.precond.ms", median(precond_ms_), per_case);
    out.set("linalg.krylov.ms", median(krylov_ms_),
            per_case + ", GMRES minus ILU(0)");
    out.set("linalg.krylov.iterations", median(iterations_),
            "per solve, median over traced ops");
    out.set("ctmc.validate.us", median(durations_us(spans, "ctmc.validate")),
            per_case);
    out.set("core.metrics.us", median(durations_us(spans, "core.metrics")));
  }

 private:
  std::size_t case_of(std::size_t k) const {
    return k == 0 ? kSetupCase : order_[(k - 1) % order_.size()];
  }

  OpResult check(std::size_t c, std::int64_t op_ns,
                 const core::AvailabilityMetrics& metrics,
                 const ctmc::SteadyState& steady) const {
    OpResult out;
    out.op_ns = op_ns;
    out.units = 1;
    if (!have_reference_) return out;  // set-up child: unchecked
    const double rel = std::fabs(metrics.availability - reference_[c]) /
                       reference_[c];
    if (!(rel <= kAvailabilityRelTol) || !(steady.residual <= kResidualBound)) {
      out.failed = 1;
    }
    return out;
  }

  std::vector<std::size_t> order_;
  std::array<double, kCases.size()> reference_{};
  bool have_reference_ = false;
  std::vector<double> iterations_;
  std::vector<double> sparse_generator_ms_;
  std::vector<double> stationary_system_ms_;
  std::vector<double> precond_ms_;
  std::vector<double> krylov_ms_;
  std::vector<double> states_;
  std::vector<double> nnz_;
};

}  // namespace

std::unique_ptr<Workload> make_kofn_sparse() {
  return std::make_unique<KofnSparse>();
}

void print_kofn_reference() {
  for (const KofnCase& kc : kCases) {
    const ctmc::Ctmc chain = models::kofn_as_model(config_of(kc));
    ctmc::SteadyState steady;
    if (chain.num_states() <= kLumpedReferenceStates) {
      const ctmc::Ctmc lumped =
          ctmc::lump(chain, ctmc::coarsest_ordinary_lumping(chain));
      ctmc::SolveControl control;
      control.sparse_threshold = lumped.num_states();
      steady = ctmc::solve_steady_state(lumped, ctmc::SteadyStateMethod::kGth,
                                        ctmc::Validation::kOn, control);
      std::printf("    {%zu, %zu, %.17g},  // GTH, lumped to %zu states\n",
                  kc.nodes, kc.quorum,
                  core::availability_metrics(lumped, steady).availability,
                  lumped.num_states());
    } else {
      linalg::KrylovOptions options;
      options.tolerance = 1e-14;
      options.max_iterations = 200000;
      options.precond = linalg::PrecondKind::kIlu0;
      steady.probabilities =
          linalg::bicgstab_stationary(chain.sparse_generator(), options).x;
      std::printf("    {%zu, %zu, %.17g},  // BiCGStab to 1e-14\n", kc.nodes,
                  kc.quorum,
                  core::availability_metrics(chain, steady).availability);
    }
  }
}

}  // namespace perfbench
