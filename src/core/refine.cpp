#include "core/refine.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <tuple>

#include "core/move_eval.h"
#include "obs/trace_sink.h"
#include "util/thread_pool.h"

namespace sfqpart {

RefineResult refine_partition(const CostModel& model, std::vector<int>& labels,
                              Rng& rng, const RefineOptions& options,
                              obs::TraceSink* sink, int restart,
                              const std::vector<int>* fixed) {
  MoveEvaluator eval(model, labels);
  const RefineResult result =
      refine_partition(eval, rng, options, sink, restart, fixed);
  labels = eval.labels();
  return result;
}

RefineResult refine_partition(MoveEvaluator& eval, Rng& rng,
                              const RefineOptions& options,
                              obs::TraceSink* sink, int restart,
                              const std::vector<int>* fixed) {
  RefineResult result;
  result.initial_cost = eval.current_cost();

  std::vector<int> order(static_cast<std::size_t>(eval.num_gates()));
  std::iota(order.begin(), order.end(), 0);
  for (int pass = 0; pass < options.max_passes; ++pass) {
    rng.shuffle(order);
    int moves_this_pass = 0;
    for (const int gate : order) {
      if (fixed != nullptr && (*fixed)[static_cast<std::size_t>(gate)] >= 0) {
        continue;
      }
      const MoveEvaluator::Move move = eval.best_move(gate, 0);
      if (move.target >= 0) {
        eval.apply(gate, move.target);
        ++moves_this_pass;
      }
    }
    result.moves += moves_this_pass;
    result.passes = pass + 1;
    if (sink != nullptr && sink->enabled()) {
      sink->refine_pass({restart, pass, moves_this_pass, eval.current_cost()});
    }
    if (moves_this_pass < options.min_moves_per_pass) break;
  }
  result.final_cost = eval.current_cost();
  return result;
}

namespace {

// Proposal grain: coarse levels collapse to one chunk (inline), only the
// 10^5+-gate levels actually fan out.
constexpr std::size_t kProposalGrain = 2048;
// Rough ns per gate of a proposal: a handful of delta() evaluations,
// each walking the gate's CSR neighbor range.
constexpr double kProposalItemCost = 60.0;

// One parallel proposal sweep: every free gate's best in-band move
// against the frozen pass-start labels. best_move() only reads the
// (const) evaluator state and proposal writes are element-wise, so the
// sweep is bit-identical at any thread count.
struct ProposalKernel {
  const MoveEvaluator* eval;
  std::int32_t* proposal;
  int band;
  const int* fixed;  // per-gate fixed plane (-1 = free); null when none

  void operator()(std::size_t, std::size_t begin, std::size_t end) const {
    for (std::size_t i = begin; i < end; ++i) {
      proposal[i] = fixed != nullptr && fixed[i] >= 0
                        ? -1
                        : eval->best_move(static_cast<int>(i), band).target;
    }
  }
};

// One queued candidate move of bucket_refine; the min-heap pops the
// lexicographically smallest (delta, gate, target), so ties in gain
// resolve by gate then target index — deterministic regardless of
// insertion order.
using QueuedMove = std::tuple<double, int, int>;

}  // namespace

// Proposals invalidated by an earlier commit of the same pass are skipped,
// so the applied delta sequence (hence the final labels) never depends on
// how the proposal sweep was chunked across threads.
RefineResult banded_refine(MoveEvaluator& eval, int band,
                           const RefineOptions& options, ThreadPool* pool,
                           double cost_before, const std::vector<int>* fixed) {
  const int n = eval.num_gates();
  RefineResult result;
  result.initial_cost = cost_before;
  result.final_cost = cost_before;
  std::vector<std::int32_t> proposal(static_cast<std::size_t>(n));
  ProposalKernel kernel{&eval, proposal.data(), band,
                        fixed != nullptr ? fixed->data() : nullptr};
  for (int pass = 0; pass < options.max_passes; ++pass) {
    parallel_chunks(pool, static_cast<std::size_t>(n), kProposalGrain, kernel,
                    kProposalItemCost);
    int moves = 0;
    for (int gate = 0; gate < n; ++gate) {
      const int target = proposal[static_cast<std::size_t>(gate)];
      if (target < 0) continue;
      if (eval.delta(gate, target) < MoveEvaluator::kImprovementThreshold) {
        eval.apply(gate, target);
        ++moves;
      }
    }
    result.moves += moves;
    result.passes = pass + 1;
    if (moves < options.min_moves_per_pass) break;
  }
  // Re-score the final labels instead of accumulating committed deltas
  // onto cost_before: summed deltas drift from the true cost in floating
  // point over many passes, and the level report must agree with what a
  // fresh evaluation of the labels says.
  if (result.moves > 0) result.final_cost = eval.current_cost();
  return result;
}

BucketRefineStats bucket_refine(MoveEvaluator& eval, int band,
                                const RefineOptions& options,
                                const std::vector<int>* fixed,
                                const std::vector<int>* active) {
  const int n = eval.num_gates();
  BucketRefineStats stats;

  // Scope mask: movable gates are those not pinned and (when an active
  // set is given) inside it.
  std::vector<char> movable(static_cast<std::size_t>(n),
                            active == nullptr ? 1 : 0);
  if (active != nullptr) {
    for (const int gate : *active) {
      movable[static_cast<std::size_t>(gate)] = 1;
    }
  }
  if (fixed != nullptr) {
    for (int gate = 0; gate < n; ++gate) {
      if ((*fixed)[static_cast<std::size_t>(gate)] >= 0) {
        movable[static_cast<std::size_t>(gate)] = 0;
      }
    }
  }

  // Best strictly-improving in-band move of one gate ({0, gate, -1} when
  // none).
  const auto best_move = [&eval, band](int gate) -> QueuedMove {
    const MoveEvaluator::Move move = eval.best_move(gate, band);
    return {move.delta, gate, move.target};
  };

  std::priority_queue<QueuedMove, std::vector<QueuedMove>,
                      std::greater<QueuedMove>>
      queue;
  long long movable_count = 0;
  for (int gate = 0; gate < n; ++gate) {
    if (!movable[static_cast<std::size_t>(gate)]) continue;
    ++movable_count;
    if (const QueuedMove move = best_move(gate); std::get<2>(move) >= 0) {
      queue.push(move);
    }
  }

  // Each applied move strictly improves the cost; the cap only guards
  // against pathologically long chains of ever-smaller gains.
  const long long move_cap =
      static_cast<long long>(options.max_passes) * std::max<long long>(
          movable_count, 1);
  while (!queue.empty() && stats.moves < move_cap) {
    const auto [delta, gate, target] = queue.top();
    queue.pop();
    // Lazy validation: re-derive the gate's current best move; a stale
    // entry (its gate moved, or a neighbor changed the gain surface) is
    // dropped and the fresh candidate requeued.
    const QueuedMove fresh = best_move(gate);
    if (std::get<2>(fresh) < 0) continue;
    if (std::get<0>(fresh) != delta || std::get<2>(fresh) != target) {
      ++stats.stale_pops;
      queue.push(fresh);
      continue;
    }
    eval.apply(gate, target);
    ++stats.moves;
    if (const QueuedMove next = best_move(gate); std::get<2>(next) >= 0) {
      queue.push(next);
    }
    const auto [begin, end] = eval.neighbors(gate);
    for (const std::int32_t* it = begin; it != end; ++it) {
      const int neighbor = *it;
      if (!movable[static_cast<std::size_t>(neighbor)]) continue;
      if (const QueuedMove move = best_move(neighbor);
          std::get<2>(move) >= 0) {
        queue.push(move);
      }
    }
  }
  stats.cost_after = eval.current_cost();
  return stats;
}

}  // namespace sfqpart
