#include "core/vcycle.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <vector>

#include "core/coarsen.h"
#include "core/move_eval.h"
#include "core/problem_view.h"
#include "core/refine.h"
#include "obs/trace_sink.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sfqpart {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

VcycleResult vcycle_partition(const Netlist& netlist, int num_planes,
                              const VcycleOptions& options) {
  assert(num_planes >= 2);
  // Drawn by the kLegacyShuffle matching, then by the kGreedy refits;
  // the other settings never touch it.
  Rng rng(options.seed);
  obs::TraceSink sink(options.observer);

  PartitionProblem finest = PartitionProblem::from_netlist(netlist, num_planes);

  if (sink.enabled()) {
    obs::RunInfo info;
    info.engine = "vcycle";
    info.num_planes = num_planes;
    info.restarts = options.coarse.restarts;
    info.seed = options.seed;
    info.refine = true;  // projection refinement always runs
    info.weights = options.coarse.weights;
    info.gradient_style = options.coarse.gradient_style;
    info.learning_rate = options.coarse.optimizer.learning_rate;
    info.max_iterations = options.coarse.optimizer.max_iterations;
    info.margin = options.coarse.optimizer.margin;
    info.normalize_step = options.coarse.optimizer.normalize_step;
    info.problem_gates = finest.num_gates;
    info.problem_edges = static_cast<long long>(finest.edges.size());
    sink.run_start(info);
  }

  LevelStack stack;
  {
    obs::ScopedTimer timer(&sink, "coarsen");
    if (sink.enabled()) {
      sink.level({0, finest.num_gates,
                  static_cast<long long>(finest.edges.size())});
    }
    CoarsenOptions coarsen_options;
    coarsen_options.coarse_target = options.coarse_target;
    coarsen_options.max_levels = options.max_levels;
    coarsen_options.order = options.order;
    Clock::time_point level_start = Clock::now();
    stack = build_level_stack(
        finest, coarsen_options, &rng,
        [&sink, &level_start](int level, const PartitionProblem& coarse) {
          const double elapsed = ms_since(level_start);
          level_start = Clock::now();
          if (sink.enabled()) {
            obs::LevelEvent event;
            event.level = level;
            event.num_vertices = coarse.num_gates;
            event.num_edges = static_cast<long long>(coarse.edges.size());
            event.coarsen_ms = elapsed;
            sink.level(event);
          }
        },
        options.fixed);
  }
  const PartitionProblem& coarsest = stack.coarsest(finest);

  // Restrict the warm start down the stack: a coarse vertex inherits the
  // first (lowest fine index) assigned label among its children. No Rng
  // draw, so the kLegacyShuffle sequence is untouched.
  std::vector<int> warm_restricted;
  const std::vector<int>* coarse_warm = options.warm;
  if (options.warm != nullptr) {
    warm_restricted = *options.warm;
    for (const CoarseLevel& level : stack.levels) {
      std::vector<int> next(static_cast<std::size_t>(level.problem.num_gates),
                            kUnassignedPlane);
      for (std::size_t f = 0; f < level.parent_of_fine.size(); ++f) {
        const int label = warm_restricted[f];
        const auto parent =
            static_cast<std::size_t>(level.parent_of_fine[f]);
        if (label != kUnassignedPlane && next[parent] == kUnassignedPlane) {
          next[parent] = label;
        }
      }
      warm_restricted = std::move(next);
    }
    coarse_warm = &warm_restricted;
  }

  VcycleResult result;
  result.levels = stack.num_levels();
  result.coarse_gates = coarsest.num_gates;

  // The paper's descent runs only here, where G*K is small. The coarse
  // Solver inherits the observer (its event stream lands in the same
  // report/trace) and the driver seed/threads.
  std::vector<int> labels;
  {
    obs::ScopedTimer timer(&sink, "coarse_solve");
    SolverConfig coarse_config = options.coarse;
    coarse_config.num_planes = num_planes;
    coarse_config.seed = options.seed;
    coarse_config.threads = options.threads;
    coarse_config.observer = options.observer;
    coarse_config.fixed_labels = stack.coarsest_fixed(options.fixed);
    coarse_config.warm_labels = coarse_warm;
    // Inputs were validated by the engine adapter; failure here is a
    // programmer bug.
    labels = Solver(coarse_config).solve(coarsest).value().labels;
  }

  // Uncoarsen: project, then refine per level. The pool is shared by the
  // proposal sweeps and the cost-model reductions; per the executor's
  // determinism contract it changes wall-clock only.
  const int threads = options.threads == 0 ? ThreadPool::hardware_concurrency()
                                           : std::max(1, options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  {
    obs::ScopedTimer timer(&sink, "uncoarsen");
    for (std::size_t i = stack.levels.size(); i-- > 0;) {
      const Clock::time_point level_start = Clock::now();
      const PartitionProblem& fine =
          i == 0 ? finest : stack.levels[i - 1].problem;
      const std::vector<int>* fine_fixed =
          i == 0 ? options.fixed
                 : (stack.levels[i - 1].fixed.empty()
                        ? nullptr
                        : &stack.levels[i - 1].fixed);
      std::vector<int> fine_labels = stack.levels[i].project(labels);

      // One shared CSR view per level: the cost model, the move
      // evaluator and (during coarsening) the matcher all read it.
      const ProblemView view(fine);
      CostModel model(view, options.coarse.weights,
                      options.coarse.gradient_style);
      model.set_thread_pool(pool.get());
      MoveEvaluator eval(model, std::move(fine_labels));
      const double projected_cost = eval.current_cost();
      RefineResult refined;
      switch (options.refine_style) {
        case VcycleRefineStyle::kBanded:
          refined = banded_refine(eval, options.band, options.refine,
                                  pool.get(), projected_cost, fine_fixed);
          break;
        case VcycleRefineStyle::kBuckets: {
          const BucketRefineStats bucket =
              bucket_refine(eval, options.band, options.refine, fine_fixed);
          refined.moves = bucket.moves;
          refined.final_cost = bucket.cost_after;
          break;
        }
        case VcycleRefineStyle::kGreedy:
          refined = refine_partition(eval, rng, options.refine, &sink, -1,
                                     fine_fixed);
          break;
      }
      result.refine_moves += refined.moves;
      labels = eval.labels();

      if (sink.enabled()) {
        obs::LevelEvent event;
        event.level = static_cast<int>(i);
        event.num_vertices = fine.num_gates;
        event.num_edges = static_cast<long long>(fine.edges.size());
        event.refine_ms = ms_since(level_start);
        event.projected_cost = projected_cost;
        event.refined_cost = refined.final_cost;
        event.refine_moves = static_cast<int>(refined.moves);
        sink.level(event);
      }
    }
  }

  result.partition = finest.to_partition(labels, netlist.num_gates());
  {
    CostModel model(finest, options.coarse.weights);
    model.set_thread_pool(pool.get());
    result.discrete_total =
        model.evaluate_discrete(labels).total(options.coarse.weights);
  }
  if (sink.enabled()) {
    sink.run_end({-1, result.discrete_total, 0, true});
  }
  return result;
}

}  // namespace sfqpart
