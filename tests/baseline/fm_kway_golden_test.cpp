// fm_kway label identity.
//
// Two guards on the FM baseline's move selection:
//
//  * Golden hashes: FNV-1a over plane_of, passes, initial_cut and
//    final_cut of 30 runs per Table I circuit (seeds 1-5 x K in {2, 5} x
//    {cold, every 7th gate pinned, pinned + warm start}). Any change to
//    which move a pass picks changes the hash.
//  * A brute-force reference: the O(G*K*deg)-per-move rule written out in
//    full (rescan every unlocked gate in shuffled order, every target in
//    ascending order, keep the first strictly larger gain among feasible
//    moves). The library must reproduce its labels, pass count, cuts,
//    per-pass costs and move counters on small seeded netlists, at tight
//    balance, with every gate pinned, with a degree-0 gate and around a
//    high-degree hub.
#include "baseline/fm_kway.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "baseline/random_partition.h"
#include "gen/random_logic.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"
#include "obs/observer.h"
#include "sfq/mapper.h"
#include "util/hash.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

int num_compact(const Netlist& netlist) {
  return netlist.num_partitionable_gates();
}

// Every 7th compact gate pinned, round-robin over the planes.
std::vector<int> every_7th_pinned(const Netlist& netlist, int k) {
  std::vector<int> fixed(static_cast<std::size_t>(num_compact(netlist)), -1);
  for (std::size_t i = 0; i < fixed.size(); i += 7) {
    fixed[i] = static_cast<int>(i / 7) % k;
  }
  return fixed;
}

// Runs of four consecutive compact gates share a plane; every 4th gate is
// left unassigned so the random start fills it.
std::vector<int> blocky_warm(const Netlist& netlist, int k) {
  std::vector<int> warm(static_cast<std::size_t>(num_compact(netlist)), -1);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (i % 4 != 3) warm[i] = static_cast<int>(i / 4) % k;
  }
  return warm;
}

void hash_int(Fnv1a64& h, int value) { h.update(&value, sizeof value); }

// --- Golden hashes ----------------------------------------------------------

struct GoldenCase {
  const char* circuit;
  const char* hash;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.circuit; }

class FmKwayGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FmKwayGolden, LabelsMatchCapturedHash) {
  const Netlist netlist = build_mapped(GetParam().circuit);
  Fnv1a64 h;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const int k : {2, 5}) {
      const std::vector<int> fixed = every_7th_pinned(netlist, k);
      const std::vector<int> warm = blocky_warm(netlist, k);
      for (int mode = 0; mode < 3; ++mode) {
        FmOptions options;
        options.seed = seed;
        if (mode >= 1) options.fixed = &fixed;
        if (mode == 2) options.warm = &warm;
        const FmResult r = fm_kway_partition(netlist, k, options);
        h.update(r.partition.plane_of.data(),
                 r.partition.plane_of.size() * sizeof(int));
        hash_int(h, r.passes);
        hash_int(h, r.initial_cut);
        hash_int(h, r.final_cut);
      }
    }
  }
  EXPECT_EQ(hash_hex(h.digest()), GetParam().hash) << GetParam().circuit;
}

INSTANTIATE_TEST_SUITE_P(
    TableI, FmKwayGolden,
    ::testing::Values(GoldenCase{"ksa4", "09bea680ff09d614"},
                      GoldenCase{"ksa8", "8a50ad345d085b97"},
                      GoldenCase{"ksa16", "eccfb09bf17a1797"},
                      GoldenCase{"ksa32", "87911a4f971fdc24"},
                      GoldenCase{"mult4", "613338944c25b760"},
                      GoldenCase{"mult8", "9b147166dac82574"},
                      GoldenCase{"id4", "a8a4c4a8d1ba0f76"},
                      GoldenCase{"id8", "f74171a30f0c09da"},
                      GoldenCase{"c432", "9134992cf2796b11"},
                      GoldenCase{"c499", "574d0db6a0ef3699"},
                      GoldenCase{"c1355", "c7af196a4f252969"},
                      GoldenCase{"c1908", "e4b681365fd61644"},
                      GoldenCase{"c3540", "13634f92d70610f7"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.circuit);
    });

// --- Brute-force reference ---------------------------------------------------

struct Observed {
  FmResult result;
  std::vector<double> pass_costs;  // one per IterationEvent
  long long moves_tried = 0;
  long long moves_accepted = 0;
  // Reference only: steps at which an infeasible move had a larger gain
  // than the move taken (shows a case really exercises the balance skip).
  long long infeasible_skips = 0;
};

class PassRecorder final : public obs::SolverObserver {
 public:
  explicit PassRecorder(Observed* out) : out_(out) {}
  void on_iteration(const obs::IterationEvent& e) override {
    out_->pass_costs.push_back(e.cost);
  }
  void on_counter(const obs::CounterEvent& e) override {
    const std::string name = e.name;
    if (name == "moves_tried") out_->moves_tried += e.delta;
    if (name == "moves_accepted") out_->moves_accepted += e.delta;
  }

 private:
  Observed* out_;
};

Observed run_library(const Netlist& netlist, int k, FmOptions options) {
  Observed out;
  PassRecorder recorder(&out);
  options.observer = &recorder;
  out.result = fm_kway_partition(netlist, k, options);
  return out;
}

// The selection rule, rescanned in full for every move.
Observed run_reference(const Netlist& netlist, int k,
                       const FmOptions& options) {
  std::vector<int> compact(static_cast<std::size_t>(netlist.num_gates()), -1);
  std::vector<GateId> gate_ids;
  std::vector<double> bias;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.is_partitionable(g)) continue;
    compact[static_cast<std::size_t>(g)] = static_cast<int>(gate_ids.size());
    gate_ids.push_back(g);
    bias.push_back(netlist.bias_of(g));
  }
  const int n = static_cast<int>(gate_ids.size());
  std::vector<std::vector<int>> nbr(static_cast<std::size_t>(n));
  for (const Connection& e : netlist.unique_edges()) {
    const int a = compact[static_cast<std::size_t>(e.from)];
    const int b = compact[static_cast<std::size_t>(e.to)];
    nbr[static_cast<std::size_t>(a)].push_back(b);
    nbr[static_cast<std::size_t>(b)].push_back(a);
  }

  Observed out;
  FmResult& result = out.result;
  result.partition = random_partition(netlist, k, options.seed);
  std::vector<int>& plane_of = result.partition.plane_of;
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const auto ug = static_cast<std::size_t>(gate_ids[ui]);
    if (options.warm != nullptr && (*options.warm)[ui] >= 0) {
      plane_of[ug] = (*options.warm)[ui];
    }
    if (options.fixed != nullptr && (*options.fixed)[ui] >= 0) {
      plane_of[ug] = (*options.fixed)[ui];
    }
  }
  result.initial_cut = cut_count(netlist, result.partition);
  int current_cut = result.initial_cut;

  std::vector<int> label(static_cast<std::size_t>(n));
  std::vector<double> plane_bias(static_cast<std::size_t>(k), 0.0);
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    label[ui] = plane_of[static_cast<std::size_t>(gate_ids[ui])];
    plane_bias[static_cast<std::size_t>(label[ui])] += bias[ui];
  }
  const double ideal = std::accumulate(bias.begin(), bias.end(), 0.0) / k;
  const double max_bias = ideal * (1.0 + options.balance_tolerance);
  const double min_bias = ideal * (1.0 - options.balance_tolerance);
  auto gain_of = [&](int i, int t) {
    int gain = 0;
    for (const int j : nbr[static_cast<std::size_t>(i)]) {
      const int lj = label[static_cast<std::size_t>(j)];
      if (lj == t) ++gain;
      if (lj == label[static_cast<std::size_t>(i)]) --gain;
    }
    return gain;
  };
  auto feasible = [&](int i, int t) {
    const auto ui = static_cast<std::size_t>(i);
    const int s = label[ui];
    return s != t &&
           plane_bias[static_cast<std::size_t>(t)] + bias[ui] <= max_bias &&
           plane_bias[static_cast<std::size_t>(s)] - bias[ui] >= min_bias;
  };

  Rng rng(options.seed ^ 0x5bd1e995ULL);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0; pass < options.max_passes; ++pass) {
    result.passes = pass + 1;
    rng.shuffle(order);
    std::vector<bool> locked(static_cast<std::size_t>(n), false);
    for (int i = 0; options.fixed != nullptr && i < n; ++i) {
      locked[static_cast<std::size_t>(i)] =
          (*options.fixed)[static_cast<std::size_t>(i)] >= 0;
    }
    struct Move {
      int gate, from, to;
    };
    std::vector<Move> moves;
    int cumulative = 0;
    int best = 0;
    std::size_t best_prefix = 0;
    for (int step = 0; step < n; ++step) {
      int best_gate = -1;
      int best_target = -1;
      int step_gain = -1 << 30;
      int top_gain_any = -1 << 30;
      for (const int i : order) {
        if (locked[static_cast<std::size_t>(i)]) continue;
        for (int t = 0; t < k; ++t) {
          if (t == label[static_cast<std::size_t>(i)]) continue;
          const int gain = gain_of(i, t);
          top_gain_any = std::max(top_gain_any, gain);
          if (feasible(i, t) && gain > step_gain) {
            step_gain = gain;
            best_gate = i;
            best_target = t;
          }
        }
      }
      if (best_gate < 0) break;
      if (top_gain_any > step_gain) ++out.infeasible_skips;
      const auto ug = static_cast<std::size_t>(best_gate);
      const int from = label[ug];
      plane_bias[static_cast<std::size_t>(from)] -= bias[ug];
      plane_bias[static_cast<std::size_t>(best_target)] += bias[ug];
      label[ug] = best_target;
      locked[ug] = true;
      moves.push_back(Move{best_gate, from, best_target});
      cumulative += step_gain;
      if (cumulative > best) {
        best = cumulative;
        best_prefix = moves.size();
      }
      if (cumulative < best - 50) break;
    }
    for (std::size_t m = moves.size(); m > best_prefix; --m) {
      const Move& move = moves[m - 1];
      const auto ug = static_cast<std::size_t>(move.gate);
      plane_bias[static_cast<std::size_t>(move.to)] -= bias[ug];
      plane_bias[static_cast<std::size_t>(move.from)] += bias[ug];
      label[ug] = move.from;
    }
    out.moves_tried += static_cast<long long>(moves.size());
    if (best > 0) {
      out.moves_accepted += static_cast<long long>(best_prefix);
      current_cut -= best;
    }
    out.pass_costs.push_back(static_cast<double>(current_cut));
    if (best <= 0) break;
  }
  for (int i = 0; i < n; ++i) {
    plane_of[static_cast<std::size_t>(gate_ids[static_cast<std::size_t>(i)])] =
        label[static_cast<std::size_t>(i)];
  }
  result.final_cut = cut_count(netlist, result.partition);
  return out;
}

void expect_same(const Observed& lib, const Observed& ref) {
  EXPECT_EQ(lib.result.partition.plane_of, ref.result.partition.plane_of);
  EXPECT_EQ(lib.result.passes, ref.result.passes);
  EXPECT_EQ(lib.result.initial_cut, ref.result.initial_cut);
  EXPECT_EQ(lib.result.final_cut, ref.result.final_cut);
  EXPECT_EQ(lib.pass_costs, ref.pass_costs);
  EXPECT_EQ(lib.moves_tried, ref.moves_tried);
  EXPECT_EQ(lib.moves_accepted, ref.moves_accepted);
}

Netlist random_netlist(int gates, std::uint64_t seed) {
  RandomLogicParams p;
  p.name = "fm_rl";
  p.num_inputs = 12;
  p.num_outputs = 6;
  p.num_gates = gates;
  p.seed = seed;
  return map_to_sfq(build_random_logic(p));
}

TEST(FmKwayReference, MatchesOnSeededRandomLogic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Netlist netlist = random_netlist(12 * static_cast<int>(seed), seed);
    ASSERT_LE(netlist.num_partitionable_gates(), 200);
    for (const int k : {2, 3, 8}) {
      const std::vector<int> fixed = every_7th_pinned(netlist, k);
      const std::vector<int> warm = blocky_warm(netlist, k);
      for (int mode = 0; mode < 3; ++mode) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " k " +
                     std::to_string(k) + " mode " + std::to_string(mode));
        FmOptions options;
        options.seed = seed * 31 + static_cast<std::uint64_t>(k);
        if (mode >= 1) options.fixed = &fixed;
        if (mode == 2) options.warm = &warm;
        expect_same(run_library(netlist, k, options),
                    run_reference(netlist, k, options));
      }
    }
  }
}

TEST(FmKwayReference, TightBalanceSkipsInfeasibleTopMoves) {
  long long skips = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Netlist netlist = random_netlist(45, seed + 10);
    ASSERT_LE(netlist.num_partitionable_gates(), 200);
    for (const int k : {2, 3, 8}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " k " + std::to_string(k));
      FmOptions options;
      options.seed = seed;
      options.balance_tolerance = 0.01;
      const Observed ref = run_reference(netlist, k, options);
      skips += ref.infeasible_skips;
      expect_same(run_library(netlist, k, options), ref);
    }
  }
  // The case is only meaningful if the balance bound really turned away
  // higher-gain moves.
  EXPECT_GT(skips, 0);
}

TEST(FmKwayReference, EveryGatePinnedMovesNothing) {
  const Netlist netlist = random_netlist(30, 5);
  for (const int k : {2, 3, 8}) {
    std::vector<int> fixed(static_cast<std::size_t>(num_compact(netlist)));
    for (std::size_t i = 0; i < fixed.size(); ++i) {
      fixed[i] = static_cast<int>((i * 5) % static_cast<std::size_t>(k));
    }
    FmOptions options;
    options.fixed = &fixed;
    const Observed lib = run_library(netlist, k, options);
    expect_same(lib, run_reference(netlist, k, options));
    EXPECT_EQ(lib.result.passes, 1);
    EXPECT_EQ(lib.moves_tried, 0);
    EXPECT_EQ(lib.result.final_cut, lib.result.initial_cut);
    std::size_t i = 0;
    for (GateId g = 0; g < netlist.num_gates(); ++g) {
      if (!netlist.is_partitionable(g)) continue;
      EXPECT_EQ(lib.result.partition.plane(g), fixed[i++]);
    }
  }
}

// High-degree gates put candidates in the outer gain buckets: a hub DFF
// drives 40 gates (degree 41 with its own driver), chained in pairs, plus
// an unmapped random-logic netlist whose gates keep their raw fanout.
TEST(FmKwayReference, HighDegreeHub) {
  Netlist star(&default_sfq_library(), "star");
  const GateId root = star.add_gate_of_kind("root", CellKind::kDff);
  const GateId hub = star.add_gate_of_kind("hub", CellKind::kDff);
  star.connect(root, 0, hub, 0);
  std::vector<GateId> leaves;
  for (int g = 0; g < 40; ++g) {
    const GateId leaf = star.add_gate_of_kind("l" + std::to_string(g), CellKind::kAnd2);
    star.connect(hub, 0, leaf, 0);
    if (g % 2 == 1) star.connect(leaves.back(), 0, leaf, 1);
    leaves.push_back(leaf);
  }
  int hub_degree = 0;
  for (const Connection& e : star.unique_edges()) {
    hub_degree += (e.from == hub || e.to == hub) ? 1 : 0;
  }
  ASSERT_EQ(hub_degree, 41);
  RandomLogicParams raw;
  raw.num_inputs = 12;
  raw.num_outputs = 6;
  raw.num_gates = 120;
  raw.seed = 4;
  const Netlist unmapped = build_random_logic(raw);
  for (const Netlist* netlist : {static_cast<const Netlist*>(&star), &unmapped}) {
    for (const int k : {2, 3, 8}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(netlist->name() + " k " + std::to_string(k) + " seed " +
                     std::to_string(seed));
        FmOptions options;
        options.seed = seed;
        expect_same(run_library(*netlist, k, options),
                    run_reference(*netlist, k, options));
      }
    }
  }
}

TEST(FmKwayReference, DegreeZeroGate) {
  Netlist netlist = random_netlist(20, 9);
  const GateId lone = netlist.add_gate_of_kind("lone_dff", CellKind::kDff);
  const GateId lone2 = netlist.add_gate_of_kind("lone_jtl", CellKind::kJtl);
  for (const Connection& e : netlist.unique_edges()) {
    ASSERT_NE(e.from, lone);
    ASSERT_NE(e.to, lone);
    ASSERT_NE(e.from, lone2);
    ASSERT_NE(e.to, lone2);
  }
  for (const int k : {2, 3, 8}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("k " + std::to_string(k) + " seed " + std::to_string(seed));
      FmOptions options;
      options.seed = seed;
      expect_same(run_library(netlist, k, options),
                  run_reference(netlist, k, options));
    }
  }
  // A netlist of isolated gates only: every gain is 0, nothing improves.
  Netlist isolated(&default_sfq_library(), "isolated");
  for (int g = 0; g < 9; ++g) {
    isolated.add_gate_of_kind("g" + std::to_string(g), CellKind::kDff);
  }
  FmOptions options;
  const Observed lib = run_library(isolated, 3, options);
  expect_same(lib, run_reference(isolated, 3, options));
  EXPECT_EQ(lib.result.final_cut, 0);
}

}  // namespace
}  // namespace sfqpart
