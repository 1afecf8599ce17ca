// The registry "multilevel" engine: the V-cycle driver (core/vcycle.h)
// in its preset of shallow Rng-shuffled coarsening and greedy refits.
#include <set>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/solver.h"
#include "core/vcycle.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"

namespace sfqpart {
namespace {

EngineRun run_multilevel(const Netlist& netlist, int num_planes,
                         std::uint64_t seed = 1) {
  const auto engine = EngineRegistry::create("multilevel");
  EXPECT_TRUE(engine.is_ok()) << engine.status().message();
  EngineContext context;
  context.num_planes = num_planes;
  context.seed = seed;
  auto run = (*engine)->run(netlist, context);
  EXPECT_TRUE(run.is_ok()) << run.status().message();
  return run.is_ok() ? std::move(*run) : EngineRun{};
}

// The preset's driver settings, for the knob the registry does not expose.
VcycleOptions multilevel_preset() {
  VcycleOptions options;
  options.coarse_target = 160;
  options.max_levels = 20;
  options.order = MatchOrder::kLegacyShuffle;
  options.refine_style = VcycleRefineStyle::kGreedy;
  return options;
}

TEST(Multilevel, CoarsensLargeCircuits) {
  const Netlist netlist = build_mapped("c432");  // ~1200 gates
  const EngineRun result = run_multilevel(netlist, 5);
  EXPECT_GE(result.counter("levels"), 2);
  EXPECT_LE(result.counter("coarse_gates"), 320);  // well below the input size
  EXPECT_GT(result.counter("coarse_gates"), 20);   // but still a real problem
}

TEST(Multilevel, AssignsEveryGateToAValidPlane) {
  const Netlist netlist = build_mapped("mult4");
  const EngineRun result = run_multilevel(netlist, 4);
  std::set<int> used;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) {
      ASSERT_GE(result.partition.plane(g), 0);
      ASSERT_LT(result.partition.plane(g), 4);
      used.insert(result.partition.plane(g));
    } else {
      EXPECT_EQ(result.partition.plane(g), kUnassignedPlane);
    }
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(Multilevel, SmallCircuitSkipsCoarsening) {
  const Netlist netlist = build_mapped("ksa4");  // 62 gates < coarse_target
  const EngineRun result = run_multilevel(netlist, 3);
  EXPECT_EQ(result.counter("levels"), 0);
  EXPECT_EQ(result.counter("coarse_gates"), netlist.num_partitionable_gates());
}

TEST(Multilevel, QualityAtLeastMatchesFlatGd) {
  // With per-level refinement, multilevel should beat or match the flat
  // gradient-descent run on the discrete objective.
  const Netlist netlist = build_mapped("c499");
  const double flat = Solver().run(netlist).value().discrete_total;
  const double ml = run_multilevel(netlist, 5).discrete_total;
  EXPECT_LE(ml, flat + 1e-9);
}

TEST(Multilevel, MetricsAreHealthy) {
  const Netlist netlist = build_mapped("c1355");
  const EngineRun result = run_multilevel(netlist, 5);
  const PartitionMetrics m = compute_metrics(netlist, result.partition);
  EXPECT_GT(m.frac_within(1), 0.6);
  EXPECT_LT(m.icomp_frac(), 0.2);
  EXPECT_LT(m.afs_frac(), 0.2);
}

TEST(Multilevel, DeterministicForSeed) {
  const Netlist netlist = build_mapped("mult4");
  const EngineRun a = run_multilevel(netlist, 4, 9);
  const EngineRun b = run_multilevel(netlist, 4, 9);
  EXPECT_EQ(a.partition.plane_of, b.partition.plane_of);
}

TEST(Multilevel, HonorsCoarseTarget) {
  const Netlist netlist = build_mapped("c432");
  VcycleOptions shallow = multilevel_preset();
  shallow.coarse_target = 800;
  VcycleOptions deep = multilevel_preset();
  deep.coarse_target = 100;
  EXPECT_GT(vcycle_partition(netlist, 5, shallow).coarse_gates,
            vcycle_partition(netlist, 5, deep).coarse_gates);
}

}  // namespace
}  // namespace sfqpart
