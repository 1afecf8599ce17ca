// The kernel-tier dispatch and bit-identity suite (DESIGN.md section 15).
//
// Contract: every vector tier produces BIT-identical results to the
// scalar tier — per kernel (the dispatch probe's synthetic shapes,
// covering vector-block tails, partial plane groups and CSR tails) and
// end-to-end (whole gradient-descent solves compared label-for-label and
// bit-for-bit on every cost term).
#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/simd/dispatch.h"
#include "core/soft_assign.h"
#include "core/solver.h"
#include "gen/suite.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

using simd::Tier;

// Restores the ambient dispatch decision after each test, whatever a
// test did with force/reset/env.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("SFQPART_KERNELS");
    simd::reset_dispatch_for_testing();
  }
};

std::vector<Tier> available_tiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (simd::tier_available(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (simd::tier_available(Tier::kAvx512)) tiers.push_back(Tier::kAvx512);
  return tiers;
}

TEST_F(SimdDispatchTest, InfoIsConsistent) {
  const simd::DispatchInfo& info = simd::dispatch_info();
  EXPECT_TRUE(simd::tier_available(info.detected));
  EXPECT_LE(static_cast<int>(info.requested), static_cast<int>(info.detected));
  EXPECT_LE(static_cast<int>(info.active), static_cast<int>(info.requested));
  EXPECT_STREQ(simd::kernels().name, simd::tier_name(info.active));
}

// The per-kernel identity suite: the probe runs every kernel of the tier
// (aggregate with and without F4, f1_term, edge_grad, fused_gate,
// step_aggregate, max_abs) over shapes with vector-block
// tails and partial plane groups and compares every output bit for bit
// against the scalar tier.
TEST_F(SimdDispatchTest, AllAvailableTiersPassBitIdentityProbe) {
  for (const Tier tier : available_tiers()) {
    EXPECT_TRUE(simd::probe_tier(tier)) << simd::tier_name(tier);
  }
}

TEST_F(SimdDispatchTest, EnvOverrideClampsDown) {
  setenv("SFQPART_KERNELS", "scalar", 1);
  simd::reset_dispatch_for_testing();
  EXPECT_TRUE(simd::dispatch_info().env_override);
  EXPECT_EQ(simd::dispatch_info().active, Tier::kScalar);
  EXPECT_STREQ(simd::kernels().name, "scalar");

  // An up-request can never enable an ISA beyond what was detected.
  setenv("SFQPART_KERNELS", "avx512", 1);
  simd::reset_dispatch_for_testing();
  EXPECT_LE(static_cast<int>(simd::dispatch_info().requested),
            static_cast<int>(simd::dispatch_info().detected));

  // Unknown values are ignored (no override, full-width detection).
  setenv("SFQPART_KERNELS", "sse9", 1);
  simd::reset_dispatch_for_testing();
  EXPECT_FALSE(simd::dispatch_info().env_override);
  EXPECT_EQ(simd::dispatch_info().requested, simd::dispatch_info().detected);
}

TEST_F(SimdDispatchTest, ForceTierClampsToAvailable) {
  const Tier got = simd::force_tier_for_testing(Tier::kAvx512);
  EXPECT_TRUE(simd::tier_available(got));
  EXPECT_TRUE(simd::dispatch_info().forced);
  EXPECT_STREQ(simd::kernels().name, simd::tier_name(got));
  simd::reset_dispatch_for_testing();
  EXPECT_FALSE(simd::dispatch_info().forced);
}

LabelResult solve_small(const PartitionProblem& problem) {
  SolverConfig config;
  config.num_planes = problem.num_planes;
  config.restarts = 3;
  config.seed = 7;
  const auto solved = Solver(std::move(config)).solve(problem);
  EXPECT_TRUE(solved.is_ok()) << solved.status().message();
  return *solved;
}

// End-to-end: a whole multi-restart descent (aggregate, edge pass, fused
// fill, step_and_aggregate, max-abs, hardening) per tier, compared
// bitwise. This is the pin that keeps golden labels tier-independent.
TEST_F(SimdDispatchTest, EndToEndDescentBitIdenticalAcrossTiers) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);

  simd::force_tier_for_testing(Tier::kScalar);
  const LabelResult reference = solve_small(problem);

  for (const Tier tier : available_tiers()) {
    if (tier == Tier::kScalar) continue;
    simd::force_tier_for_testing(tier);
    const LabelResult got = solve_small(problem);
    EXPECT_EQ(got.labels, reference.labels) << simd::tier_name(tier);
    EXPECT_EQ(got.soft_terms.f1, reference.soft_terms.f1);
    EXPECT_EQ(got.soft_terms.f2, reference.soft_terms.f2);
    EXPECT_EQ(got.soft_terms.f3, reference.soft_terms.f3);
    EXPECT_EQ(got.soft_terms.f4, reference.soft_terms.f4);
    EXPECT_EQ(got.discrete_total, reference.discrete_total);
    EXPECT_EQ(got.iterations, reference.iterations);
    EXPECT_EQ(got.winning_restart, reference.winning_restart);
  }
}

// The fused evaluate/gradient entry points agree with each other and the
// optimizer's step fusion is bit-identical to the unfused step + eval on
// every tier (including scalar — the fusion itself must not drift).
TEST_F(SimdDispatchTest, StepFusionMatchesUnfusedStep) {
  const Netlist netlist = build_mapped("id4");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  const CostModel model(problem, CostWeights{});

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(11);
    const Matrix w0 = random_soft_assignment(problem.num_gates,
                                             problem.num_planes, rng);

    // Unfused: evaluate gradient, clamp-step by hand, evaluate again.
    CostModel::Workspace ws_a;
    Matrix w_a = w0;
    Matrix grad_a;
    model.evaluate_with_gradient(w_a, grad_a, ws_a);
    const double scale = 0.19;
    for (std::size_t i = 0; i < w_a.rows(); ++i) {
      auto row = w_a.row(i);
      const auto grow = grad_a.row(i);
      for (std::size_t kk = 0; kk < w_a.cols(); ++kk) {
        row[kk] = std::clamp(row[kk] - scale * grow[kk], 0.0, 1.0);
      }
    }
    Matrix grad_unfused;
    const CostTerms unfused =
        model.evaluate_with_gradient(w_a, grad_unfused, ws_a);

    // Fused: same W0, step_and_aggregate + aggregated gradient.
    CostModel::Workspace ws_b;
    Matrix w_b = w0;
    Matrix grad_b;
    model.evaluate_with_gradient(w_b, grad_b, ws_b);
    model.step_and_aggregate(w_b, grad_b, scale, ws_b);
    Matrix grad_fused;
    const CostTerms fused =
        model.evaluate_with_gradient_aggregated(w_b, grad_fused, ws_b);

    EXPECT_EQ(w_a, w_b) << simd::tier_name(tier);
    EXPECT_EQ(unfused.f1, fused.f1);
    EXPECT_EQ(unfused.f2, fused.f2);
    EXPECT_EQ(unfused.f3, fused.f3);
    EXPECT_EQ(unfused.f4, fused.f4);
    EXPECT_EQ(grad_unfused, grad_fused);
  }
}

// Gradient padding lanes must stay exactly zero (the optimizer's flat
// max-abs and step passes scan them).
TEST_F(SimdDispatchTest, GradientPaddingStaysZero) {
  const Netlist netlist = build_mapped("id4");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  const CostModel model(problem, CostWeights{});

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(3);
    const Matrix w = random_soft_assignment(problem.num_gates,
                                            problem.num_planes, rng);
    Matrix grad;
    CostModel::Workspace ws;
    model.evaluate_with_gradient(w, grad, ws);
    const auto flat = grad.flat();
    for (std::size_t r = 0; r < grad.rows(); ++r) {
      for (std::size_t c = grad.cols(); c < grad.stride(); ++c) {
        ASSERT_EQ(flat[r * grad.stride() + c], 0.0)
            << simd::tier_name(tier) << " row " << r << " lane " << c;
      }
    }
  }
}

// evaluate() and evaluate_with_gradient() report bit-identical terms on
// every tier (the F4 fusion rides different passes in the two paths).
TEST_F(SimdDispatchTest, EvaluateAndGradientTermsAgree) {
  const Netlist netlist = build_mapped("ksa8");
  const PartitionProblem problem = PartitionProblem::from_netlist(netlist, 5);
  const CostModel model(problem, CostWeights{});

  for (const Tier tier : available_tiers()) {
    simd::force_tier_for_testing(tier);
    Rng rng(5);
    const Matrix w = random_soft_assignment(problem.num_gates,
                                            problem.num_planes, rng);
    CostModel::Workspace ws;
    const CostTerms eval = model.evaluate(w, ws);
    Matrix grad;
    const CostTerms with_grad = model.evaluate_with_gradient(w, grad, ws);
    EXPECT_EQ(eval.f1, with_grad.f1) << simd::tier_name(tier);
    EXPECT_EQ(eval.f2, with_grad.f2);
    EXPECT_EQ(eval.f3, with_grad.f3);
    EXPECT_EQ(eval.f4, with_grad.f4);
  }
}

}  // namespace
}  // namespace sfqpart
