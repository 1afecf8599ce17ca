// Discrete refinement of a hardened partition: single-gate moves that
// reduce the *discrete* weighted cost, scored by the incremental
// MoveEvaluator. Three refiners share MoveEvaluator::best_move:
//
//  * refine_partition — greedy sweeps in random gate order; the Solver's
//    optional post-hardening pass (off by default for paper fidelity,
//    ablation point A2 of DESIGN.md) and the V-cycle's kGreedy refit;
//  * banded_refine — parallel propose/commit rounds, the V-cycle default;
//  * bucket_refine — serial FM-style best-gain moves (V-cycle buckets
//    style, eco engine).
#pragma once

#include <vector>

#include "core/cost_model.h"
#include "core/move_eval.h"
#include "util/rng.h"

namespace sfqpart {

class ThreadPool;

namespace obs {
class TraceSink;
}  // namespace obs

struct RefineOptions {
  int max_passes = 8;
  // Stop a pass early once fewer than this many moves were applied.
  int min_moves_per_pass = 1;
};

struct RefineResult {
  int passes = 0;
  long long moves = 0;
  double initial_cost = 0.0;
  double final_cost = 0.0;
};

// Improves `labels` in place (compact indices, 0-based planes). When a
// TraceSink is supplied, one RefinePassEvent per pass is emitted, tagged
// with `restart` (restart < 0 marks refits outside the restart loop, e.g.
// the V-cycle's kGreedy projection refit). `fixed` (compact-indexed, -1 = free;
// null = unconstrained) marks gates the pass must not move — the null
// path is byte-identical to the pre-constraint code.
RefineResult refine_partition(const CostModel& model, std::vector<int>& labels,
                              Rng& rng, const RefineOptions& options = {},
                              obs::TraceSink* sink = nullptr, int restart = -1,
                              const std::vector<int>* fixed = nullptr);
// The same sweeps on a caller-owned evaluator, which keeps the labels.
RefineResult refine_partition(MoveEvaluator& eval, Rng& rng,
                              const RefineOptions& options,
                              obs::TraceSink* sink, int restart,
                              const std::vector<int>* fixed);

// Banded parallel refinement: each pass is a deterministic propose/commit
// round. A parallel sweep proposes every free gate's best move within
// +-`band` planes against the frozen pass-start labels (pure reads of
// `eval`, element-wise writes); a serial commit in ascending gate order
// then applies each proposal that still improves the evolving labels.
// Labels are bit-identical at any thread count of `pool` (null = serial).
// Stops after options.max_passes rounds or once a round commits fewer than
// options.min_moves_per_pass moves. `cost_before` is the current cost of
// `eval`: the result's initial_cost, and its final_cost when nothing moves.
RefineResult banded_refine(MoveEvaluator& eval, int band,
                           const RefineOptions& options, ThreadPool* pool,
                           double cost_before,
                           const std::vector<int>* fixed = nullptr);

struct BucketRefineStats {
  long long moves = 0;
  long long stale_pops = 0;   // lazy-queue entries discarded as outdated
  double cost_after = 0.0;    // exact re-evaluation of the final labels
};

// FM-style best-gain refinement: a lazy priority queue pops the single
// most-improving move in the whole (restricted) graph, re-validates it
// against the evolving labels, applies it and requeues the moved gate and
// its neighbors. Serial by construction and fully deterministic: the pop
// order is (gain, gate, target) lexicographic, independent of insertion
// order. `band` limits targets to +-band planes around a gate's current
// plane (band <= 0 lifts the limit); `fixed` (compact, -1 = free) marks
// immovable gates; `active` (optional) restricts the movable set to the
// listed compact indices — the eco engine's dirty region. Applied moves
// are capped at options.max_passes * movable-gate-count so a pathological
// gain surface cannot spin forever; each applied move strictly improves
// the cost, so the labels never regress.
BucketRefineStats bucket_refine(MoveEvaluator& eval, int band,
                                const RefineOptions& options,
                                const std::vector<int>* fixed = nullptr,
                                const std::vector<int>* active = nullptr);

}  // namespace sfqpart
