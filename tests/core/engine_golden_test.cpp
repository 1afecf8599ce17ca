#include "core/engine.h"

// Golden labels through the coarsening path.
//
// c3540 (4353 gates) at K = 5, defaults otherwise: multilevel coarsens 7
// levels and vcycle 3. Captured from the separate multilevel and vcycle
// drivers before they were merged into one; stored as the FNV-1a hash of
// the plane_of array's bytes (int32, little-endian). Seed 7 of multilevel
// is absent on purpose: the merge fixed its coarse solve to honor the
// seed, which changed those labels. The ksa4 goldens in engine_test.cpp
// never coarsen.
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/suite.h"
#include "netlist/netlist.h"
#include "util/hash.h"

namespace sfqpart {
namespace {

struct CoarsenedGolden {
  const char* name;
  const char* engine;
  const char* refine_style;
  std::uint64_t seed;
  int levels;
  std::uint64_t labels_fnv1a;
};

// Prints the case name, so the ctest name of each case does not depend on
// where the linker placed the string literals.
void PrintTo(const CoarsenedGolden& golden, std::ostream* os) {
  *os << golden.name;
}

class EngineGoldenCoarsened
    : public ::testing::TestWithParam<CoarsenedGolden> {};

TEST_P(EngineGoldenCoarsened, ReproducesPreMergeLabelsBitForBit) {
  const CoarsenedGolden& golden = GetParam();
  const Netlist netlist = build_mapped("c3540");
  const auto engine = EngineRegistry::create(golden.engine);
  ASSERT_TRUE(engine.is_ok()) << engine.status().message();
  for (const int threads : {1, 3}) {
    EngineContext context;
    context.num_planes = 5;
    context.seed = golden.seed;
    context.threads = threads;
    context.refine_style = golden.refine_style;
    const auto run = (*engine)->run(netlist, context);
    ASSERT_TRUE(run.is_ok()) << run.status().message();
    EXPECT_EQ(run->counter("levels"), golden.levels);
    const std::vector<int>& labels = run->partition.plane_of;
    EXPECT_EQ(Fnv1a64().update(labels.data(), labels.size() * sizeof(int))
                  .digest(),
              golden.labels_fnv1a)
        << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    C3540, EngineGoldenCoarsened,
    ::testing::Values(
        CoarsenedGolden{"multilevel_seed1", "multilevel", "banded", 1, 7,
                        0x43fc5abc440b6892ull},
        CoarsenedGolden{"vcycle_banded_seed1", "vcycle", "banded", 1, 3,
                        0xe61d07774d9519b3ull},
        CoarsenedGolden{"vcycle_banded_seed7", "vcycle", "banded", 7, 3,
                        0xfe1200270998fd46ull},
        CoarsenedGolden{"vcycle_buckets_seed1", "vcycle", "buckets", 1, 3,
                        0xb584f7556f906cf2ull},
        CoarsenedGolden{"vcycle_buckets_seed7", "vcycle", "buckets", 7, 3,
                        0x1689ed8ca13b14e5ull}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace sfqpart
