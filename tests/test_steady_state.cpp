#include "ctmc/steady_state.h"

#include <gtest/gtest.h>

#include <random>

#include "ctmc/builder.h"

namespace rascal::ctmc {
namespace {

Ctmc two_state(double lambda, double mu) {
  CtmcBuilder b;
  b.state("Up", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, lambda).rate(1, 0, mu);
  return b.build();
}

class AllMethods : public ::testing::TestWithParam<SteadyStateMethod> {};

TEST_P(AllMethods, TwoStateClosedForm) {
  const double lambda = 0.25;
  const double mu = 4.0;
  const SteadyState s = solve_steady_state(two_state(lambda, mu), GetParam());
  EXPECT_NEAR(s.probability(0), mu / (lambda + mu), 1e-9);
  EXPECT_NEAR(s.probability(1), lambda / (lambda + mu), 1e-9);
  EXPECT_LT(s.residual, 1e-8);
}

TEST_P(AllMethods, RandomChainSatisfiesBalance) {
  std::mt19937_64 gen(2718);
  std::uniform_real_distribution<double> dist(0.1, 3.0);
  CtmcBuilder b;
  const std::size_t n = 12;
  for (std::size_t i = 0; i < n; ++i) {
    b.state(std::string("s").append(std::to_string(i)),
            i % 3 == 0 ? 0.0 : 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) b.rate(i, j, dist(gen));
    }
  }
  const Ctmc chain = b.build();
  const SteadyState s = solve_steady_state(chain, GetParam());
  double sum = 0.0;
  for (double p : s.probabilities) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-10);
  EXPECT_LT(s.residual, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Methods, AllMethods,
                         ::testing::Values(SteadyStateMethod::kGth,
                                           SteadyStateMethod::kLu,
                                           SteadyStateMethod::kPower,
                                           SteadyStateMethod::kGaussSeidel,
                                           SteadyStateMethod::kGmres,
                                           SteadyStateMethod::kBiCgStab),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case SteadyStateMethod::kGth: return "Gth";
                             case SteadyStateMethod::kLu: return "Lu";
                             case SteadyStateMethod::kPower: return "Power";
                             case SteadyStateMethod::kGaussSeidel:
                               return "GaussSeidel";
                             case SteadyStateMethod::kGmres: return "Gmres";
                             case SteadyStateMethod::kBiCgStab:
                               return "BiCgStab";
                           }
                           return "Unknown";
                         });

TEST(SteadyState, MethodsAgreeOnStiffAvailabilityChain) {
  // Rates spanning 8 orders of magnitude, as availability models do.
  CtmcBuilder b;
  b.state("Ok", 1.0);
  b.state("Degraded", 1.0);
  b.state("Down", 0.0);
  b.rate(0, 1, 1e-4).rate(1, 0, 60.0).rate(1, 2, 2e-4).rate(2, 0, 1.0);
  const Ctmc chain = b.build();
  const SteadyState gth = solve_steady_state(chain, SteadyStateMethod::kGth);
  const SteadyState lu = solve_steady_state(chain, SteadyStateMethod::kLu);
  for (std::size_t i = 0; i < 3; ++i) {
    const double scale = std::max(gth.probability(i), 1e-300);
    EXPECT_LT(std::abs(lu.probability(i) - gth.probability(i)) / scale, 1e-6)
        << "state " << i;
  }
}

class StiffRandomChains : public ::testing::TestWithParam<std::size_t> {};

// Random availability-like chains whose rates span 10 orders of
// magnitude: GTH and LU must agree on every state to fine relative
// precision, and probabilities must remain nonnegative.
TEST_P(StiffRandomChains, DirectSolversAgreeToRelativePrecision) {
  const std::size_t n = GetParam();
  std::mt19937_64 gen(n * 6151);
  std::uniform_real_distribution<double> magnitude(-7.0, 3.0);
  CtmcBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.state(std::string("s").append(std::to_string(i)),
            i % 4 == 0 ? 0.0 : 1.0);
  }
  // Ring for irreducibility plus random chords, all with wild rates.
  for (std::size_t i = 0; i < n; ++i) {
    b.rate(i, (i + 1) % n, std::pow(10.0, magnitude(gen)));
    const std::size_t j = gen() % n;
    if (j != i) b.rate(i, j, std::pow(10.0, magnitude(gen)));
  }
  const Ctmc chain = b.build();
  const SteadyState gth = solve_steady_state(chain, SteadyStateMethod::kGth);
  const SteadyState lu = solve_steady_state(chain, SteadyStateMethod::kLu);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(gth.probability(i), 0.0);
    const double p = gth.probability(i);
    if (p > 1e-6) {
      // On well-conditioned mass the two direct solvers agree tightly.
      EXPECT_LT(std::abs(lu.probability(i) - p) / p, 1e-6)
          << "state " << i << " p=" << p;
    } else {
      // On the tiny probabilities LU loses relative accuracy to
      // cancellation (GTH's raison d'etre); it must still be close in
      // absolute terms.
      EXPECT_LT(std::abs(lu.probability(i) - p), 1e-9)
          << "state " << i << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StiffRandomChains,
                         ::testing::Values(4, 8, 16, 32, 64));

TEST(SteadyState, DirectMethodsRejectReducibleChain) {
  CtmcBuilder b;
  b.state("A", 1.0);
  b.state("Trap", 0.0);
  b.rate(0, 1, 1.0);  // no way back
  const Ctmc chain = b.build();
  EXPECT_THROW((void)solve_steady_state(chain, SteadyStateMethod::kGth),
               std::domain_error);
}

TEST(SteadyState, IterationCountsReported) {
  const SteadyState direct =
      solve_steady_state(two_state(1.0, 1.0), SteadyStateMethod::kGth);
  EXPECT_EQ(direct.iterations, 0u);
  const SteadyState iterative =
      solve_steady_state(two_state(1.0, 1.0), SteadyStateMethod::kPower);
  EXPECT_GT(iterative.iterations, 0u);
}

}  // namespace
}  // namespace rascal::ctmc
