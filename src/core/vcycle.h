// V-cycle partitioning — the library's one multilevel driver.
//
// The paper's soft-assignment descent materializes a dense W in [0,1]^{G x K}
// and pays O(G*K) per iteration, which caps it at ~10^4-gate circuits.
// The classic escape hatch (Karypis/Kumar, the paper's reference [18]) is
// multilevel: this driver runs a true coarsen -> optimize -> uncoarsen
// V-cycle on the shared level builder (core/coarsen.h):
//
//  1. Coarsen by heavy-edge matching in `order` until the graph is small
//     (<= coarse_target vertices), recording the explicit LevelStack.
//  2. Run the paper's gradient descent only on the coarsest problem,
//     where G*K is small and the relaxation is cheap.
//  3. Walk the stack back up: project labels onto each finer level and
//     polish them with one of the refiners of core/refine.h.
//
// Two registry engines drive it. "vcycle" (the million-gate path) uses
// the defaults: kDegreeSorted matching — level shape is a pure function
// of the graph — and banded parallel refinement, whose labels are
// bit-identical at 1, 2 or 64 threads (DESIGN.md section 7).
// "multilevel" is a preset: coarse_target 160, max_levels 20,
// kLegacyShuffle matching and the kGreedy refit, both drawing from one
// Rng(seed) in a fixed order, so its labels are pinned per seed.
#pragma once

#include "core/coarsen.h"
#include "core/solver.h"

namespace sfqpart {

namespace obs {
class SolverObserver;
}  // namespace obs

// Uncoarsening refinement flavor (core/refine.h): banded parallel
// propose/commit sweeps (the default); serial FM-style best-gain bucket
// moves — better final cost on boundary-heavy graphs, serial wall-clock,
// A/B'd in bench/capacity_bench; or greedy random-order sweeps over all
// planes, drawing from the driver Rng (the multilevel preset).
enum class VcycleRefineStyle {
  kBanded,
  kBuckets,
  kGreedy,
};

struct VcycleOptions {
  // Coarsen until at most this many vertices (never below 4*K); the
  // dense coarse solve costs O(coarse_target * K) per iteration.
  int coarse_target = 1024;
  // Safety cap on coarsening levels (2^64 vertices coarsen to anything
  // long before this).
  int max_levels = 64;
  // Heavy-edge match visit order. kLegacyShuffle draws from the driver
  // Rng(seed) before the kGreedy refits do.
  MatchOrder order = MatchOrder::kDegreeSorted;
  // Options for the coarse-level gradient-descent solve; num_planes,
  // seed, threads and the observer are overwritten by the driver.
  SolverConfig coarse;
  // Gain band of the banded and bucket refinement: a gate may move at
  // most this many planes away from its current plane per accepted move
  // (band <= 0: any plane). The greedy refit ignores it.
  int band = 1;
  // Pass caps of the per-level refinement (max_passes rounds; a level
  // stops early when a round commits fewer than min_moves_per_pass moves).
  RefineOptions refine;
  std::uint64_t seed = 1;
  // Worker threads for the coarse solve, the cost reductions and the
  // banded proposal sweeps (0 = all hardware threads, 1 = serial).
  // Results are identical at every value.
  int threads = 1;
  // Structured observability hook (not owned; may be null). Receives
  // run_start/run_end, the "coarsen" / "coarse_solve" / "uncoarsen"
  // stage timers, the coarse Solver's full event stream, two LevelEvents
  // per level (shape + coarsen_ms on the way down, projected/refined
  // cost + refine_ms + moves on the way up) and, for kGreedy, one
  // RefinePassEvent per refit pass tagged restart = -1.
  obs::SolverObserver* observer = nullptr;
  // Finest-level fixed planes (compact problem indices, -1 = free; not
  // owned). Pins propagate through coarsening, constrain the coarse solve
  // and are never moved by the refinement. Null = unconstrained
  // (bit-identical to the pre-constraint driver).
  const std::vector<int>* fixed = nullptr;
  // Finest-level warm-start labels (compact indices, -1 = unassigned; not
  // owned). Restricted down the level stack (first assigned fine label
  // per coarse parent wins) and handed to the coarse Solver as its warm
  // seed, so an ECO-style rerun descends from the prior solution instead
  // of a random draw. Null = cold, bit-identical to the pre-warm driver.
  const std::vector<int>* warm = nullptr;
  // Uncoarsening refinement flavor (see VcycleRefineStyle).
  VcycleRefineStyle refine_style = VcycleRefineStyle::kBanded;
};

struct VcycleResult {
  Partition partition;
  int levels = 0;            // coarsening levels actually used
  int coarse_gates = 0;      // vertex count of the coarsest graph
  long long refine_moves = 0;  // moves committed across all levels
  double discrete_total = 0.0;
};

VcycleResult vcycle_partition(const Netlist& netlist, int num_planes,
                              const VcycleOptions& options = {});

}  // namespace sfqpart
