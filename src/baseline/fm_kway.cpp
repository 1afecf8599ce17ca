#include "baseline/fm_kway.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "baseline/random_partition.h"
#include "metrics/partition_metrics.h"
#include "obs/trace_sink.h"
#include "util/rng.h"

namespace sfqpart {

namespace {

constexpr int kAbsent = std::numeric_limits<int>::min();

// Bitset with a summary level per 64 words, so the next set bit at or
// after a position is found in a few word reads however sparse it is.
class LevelBitset {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  LevelBitset() = default;
  explicit LevelBitset(std::size_t bits) {
    std::size_t words = (bits + 63) / 64;
    do {
      levels_.emplace_back(words, 0);
      words = (words + 63) / 64;
    } while (levels_.back().size() > 8);
  }

  void clear_all() {
    for (std::vector<std::uint64_t>& level : levels_) {
      std::fill(level.begin(), level.end(), 0);
    }
  }
  void set(std::size_t bit) {
    for (std::vector<std::uint64_t>& level : levels_) {
      std::uint64_t& word = level[bit >> 6];
      const bool was_empty = word == 0;
      word |= std::uint64_t{1} << (bit & 63);
      if (!was_empty) return;
      bit >>= 6;
    }
  }
  void reset(std::size_t bit) {
    for (std::vector<std::uint64_t>& level : levels_) {
      std::uint64_t& word = level[bit >> 6];
      word &= ~(std::uint64_t{1} << (bit & 63));
      if (word != 0) return;
      bit >>= 6;
    }
  }
  // The first non-zero word of the bits at index >= `word`, or kNone.
  std::size_t next_word(std::size_t word) const {
    if (levels_.size() > 1) return next_in(1, word);
    const std::vector<std::uint64_t>& bits = levels_[0];
    for (; word < bits.size(); ++word) {
      if (bits[word] != 0) return word;
    }
    return kNone;
  }
  std::uint64_t word(std::size_t index) const { return levels_[0][index]; }

 private:
  // The first set bit >= `bit` of level `depth` (level depth + 1 has a
  // bit per non-zero word of level depth).
  std::size_t next_in(std::size_t depth, std::size_t bit) const {
    const std::vector<std::uint64_t>& level = levels_[depth];
    std::size_t word = bit >> 6;
    if (word >= level.size()) return kNone;
    if (const std::uint64_t rest = level[word] & (~std::uint64_t{0} << (bit & 63))) {
      return (word << 6) | static_cast<std::size_t>(std::countr_zero(rest));
    }
    if (depth + 1 == levels_.size()) {
      while (++word < level.size()) {
        if (level[word] != 0) {
          return (word << 6) | static_cast<std::size_t>(std::countr_zero(level[word]));
        }
      }
      return kNone;
    }
    word = next_in(depth + 1, word + 1);
    if (word == kNone) return kNone;
    return (word << 6) | static_cast<std::size_t>(std::countr_zero(level[word]));
  }

  std::vector<std::vector<std::uint64_t>> levels_;  // [0] = the bits
};

// The candidate moves of one FM pass in selection order.
//
// A pass takes, among the feasible moves (gate i unlocked, target t !=
// label(i)), the one least in (-gain, position of i in the pass's
// shuffled order, t). gain(i, t) = cnt[i][t] - cnt[i][label i] from
// per-gate neighbour counts by plane, so a move re-keys only the mover's
// and its neighbours' candidates.
//
// The candidates are gain buckets laid end to end in one bitset, highest
// gain first; within the bucket of gain g a candidate's bit is
// rank * K + t, rank being the gate's place in the shuffled order among
// the gates of degree >= |g| (|gain(i, t)| <= deg(i): unique_edges() has
// no duplicates or self-loops). So the bitset's order is the selection
// order, and the bucket of gain g spans K * #{gates with deg >= |g|}
// bits: K * (G + 4E) bits in all, whatever the largest degree.
// Feasibility depends on the global plane-bias totals, so selection walks
// the set bits from the top and skips infeasible ones.
class MoveIndex {
 public:
  struct Pick {
    int gate = -1;
    int target = -1;
    int gain = kAbsent;
  };

  // `offsets` is the CSR adjacency offsets, deg(i) = offsets[i+1] -
  // offsets[i]; not owned, it must outlive the index.
  MoveIndex(const std::vector<int>& offsets, int num_planes)
      : offsets_(offsets),
        k_(static_cast<std::size_t>(num_planes)),
        gain_((offsets.size() - 1) * k_, kAbsent),
        rank_(static_cast<std::size_t>(offsets.back()) + offsets.size() - 1) {
    const std::size_t num_gates = offsets.size() - 1;
    for (std::size_t i = 0; i < num_gates; ++i) {
      max_degree_ = std::max(max_degree_, offsets[i + 1] - offsets[i]);
    }
    // at_least[d] = gates of degree >= d; members_ holds them per degree
    // level d, in shuffled order.
    std::vector<std::size_t> at_least(static_cast<std::size_t>(max_degree_) + 2, 0);
    for (std::size_t i = 0; i < num_gates; ++i) {
      ++at_least[static_cast<std::size_t>(offsets[i + 1] - offsets[i])];
    }
    for (std::size_t d = at_least.size() - 1; d-- > 0;) at_least[d] += at_least[d + 1];
    level_begin_.assign(at_least.size(), 0);
    for (std::size_t d = 0; d + 1 < at_least.size(); ++d) {
      level_begin_[d + 1] = level_begin_[d] + at_least[d];
    }
    members_.resize(level_begin_.back());
    // Bucket of gain g (index max_degree - g) covers K * at_least[|g|] bits.
    const std::size_t buckets = 2 * static_cast<std::size_t>(max_degree_) + 1;
    bucket_begin_.assign(buckets + 1, 0);
    for (std::size_t b = 0; b < buckets; ++b) {
      bucket_begin_[b + 1] = bucket_begin_[b] + k_ * at_least[level_of(gain_at(b))];
    }
    bits_ = LevelBitset(bucket_begin_.back());
    next_rank_.resize(static_cast<std::size_t>(max_degree_) + 1);
  }

  // Refills the index for a pass: `order` is the shuffled gate order,
  // gain(i, t) reads the neighbour counts, locked gates get no candidates.
  template <typename GainFn>
  void build(const std::vector<int>& order, const std::vector<int>& label,
             const std::vector<char>& locked, GainFn gain) {
    std::fill(next_rank_.begin(), next_rank_.end(), 0);
    for (const int i : order) {
      const auto ui = static_cast<std::size_t>(i);
      for (std::size_t d = 0; d <= degree(ui); ++d) {
        const std::size_t rank = next_rank_[d]++;
        rank_[rank_base(ui) + d] = rank;
        members_[level_begin_[d] + rank] = i;
      }
    }
    bits_.clear_all();
    std::fill(gain_.begin(), gain_.end(), kAbsent);
    for (const int i : order) {
      const auto ui = static_cast<std::size_t>(i);
      if (locked[ui] != 0) continue;
      for (std::size_t t = 0; t < k_; ++t) {
        if (t != static_cast<std::size_t>(label[ui])) {
          rekey(i, static_cast<int>(t), gain(i, static_cast<int>(t)));
        }
      }
    }
  }

  // The gain candidate (i, t) holds; kAbsent when it is not indexed.
  int gain(int i, int t) const { return gain_[slot(i, t)]; }
  // Moves candidate (i, t) to the bucket of `gain` (kAbsent removes it).
  void rekey(int i, int t, int gain) {
    int& held = gain_[slot(i, t)];
    if (held != kAbsent) bits_.reset(bit_of(i, t, held));
    held = gain;
    if (gain != kAbsent) bits_.set(bit_of(i, t, gain));
  }
  // Removes every candidate of gate i (it has been locked).
  void remove(int i) {
    for (std::size_t t = 0; t < k_; ++t) rekey(i, static_cast<int>(t), kAbsent);
  }

  // The first candidate in selection order that feasible(i, t) accepts;
  // gate stays -1 when there is none.
  template <typename FeasibleFn>
  Pick best(FeasibleFn feasible) const {
    std::size_t bucket = 0;
    for (std::size_t w = bits_.next_word(0); w != LevelBitset::kNone;
         w = bits_.next_word(w + 1)) {
      for (std::uint64_t word = bits_.word(w); word != 0; word &= word - 1) {
        const std::size_t bit = (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
        if (bit >= bucket_begin_[bucket + 1]) {
          bucket = static_cast<std::size_t>(
              std::upper_bound(bucket_begin_.begin(), bucket_begin_.end(), bit) -
              bucket_begin_.begin() - 1);
        }
        const int gain = gain_at(bucket);
        const std::size_t local = bit - bucket_begin_[bucket];
        const int i = members_[level_begin_[level_of(gain)] + local / k_];
        const int t = static_cast<int>(local % k_);
        if (feasible(i, t)) return Pick{i, t, gain};
      }
    }
    return Pick{};
  }

 private:
  int gain_at(std::size_t bucket) const { return max_degree_ - static_cast<int>(bucket); }
  static std::size_t level_of(int gain) { return static_cast<std::size_t>(gain < 0 ? -gain : gain); }
  std::size_t degree(std::size_t i) const {
    return static_cast<std::size_t>(offsets_[i + 1] - offsets_[i]);
  }
  // rank_ holds deg(i) + 1 ranks per gate: Σ_{j<i} (deg(j) + 1) = offsets[i] + i.
  std::size_t rank_base(std::size_t i) const {
    return static_cast<std::size_t>(offsets_[i]) + i;
  }
  std::size_t slot(int i, int t) const {
    return static_cast<std::size_t>(i) * k_ + static_cast<std::size_t>(t);
  }
  std::size_t bit_of(int i, int t, int gain) const {
    const auto ui = static_cast<std::size_t>(i);
    return bucket_begin_[static_cast<std::size_t>(max_degree_ - gain)] +
           rank_[rank_base(ui) + level_of(gain)] * k_ + static_cast<std::size_t>(t);
  }

  const std::vector<int>& offsets_;
  std::size_t k_;
  int max_degree_ = 0;
  std::vector<int> gain_;                 // per (gate, target)
  std::vector<std::size_t> rank_;         // per (gate, degree level <= deg)
  std::vector<std::size_t> level_begin_;  // members_ range of degree level d
  std::vector<int> members_;              // gates by degree level, shuffled order
  std::vector<std::size_t> bucket_begin_; // bit range of each gain bucket
  std::vector<std::size_t> next_rank_;
  LevelBitset bits_;
};

}  // namespace

FmResult fm_kway_partition(const Netlist& netlist, int num_planes,
                           const FmOptions& options) {
  assert(num_planes >= 2);

  // Compact the problem: partitionable gates and their adjacency.
  std::vector<int> compact(static_cast<std::size_t>(netlist.num_gates()), -1);
  std::vector<GateId> gate_ids;
  std::vector<double> bias;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    if (!netlist.is_partitionable(g)) continue;
    compact[static_cast<std::size_t>(g)] = static_cast<int>(gate_ids.size());
    gate_ids.push_back(g);
    bias.push_back(netlist.bias_of(g));
  }
  const int num_gates = static_cast<int>(gate_ids.size());
  // CSR adjacency. unique_edges() has no duplicates and no self-loops, so
  // a gate's neighbour count on a plane is exactly what a move gains or
  // loses there.
  const std::vector<Connection> edges = netlist.unique_edges();
  std::vector<int> offsets(static_cast<std::size_t>(num_gates) + 1, 0);
  for (const Connection& edge : edges) {
    ++offsets[static_cast<std::size_t>(compact[static_cast<std::size_t>(edge.from)]) + 1];
    ++offsets[static_cast<std::size_t>(compact[static_cast<std::size_t>(edge.to)]) + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<int> neighbors(static_cast<std::size_t>(offsets.back()));
  {
    std::vector<int> fill(offsets.begin(), offsets.end() - 1);
    for (const Connection& edge : edges) {
      const int a = compact[static_cast<std::size_t>(edge.from)];
      const int b = compact[static_cast<std::size_t>(edge.to)];
      neighbors[static_cast<std::size_t>(fill[static_cast<std::size_t>(a)]++)] = b;
      neighbors[static_cast<std::size_t>(fill[static_cast<std::size_t>(b)]++)] = a;
    }
  }

  FmResult result;
  result.partition = random_partition(netlist, num_planes, options.seed);
  if (options.warm != nullptr) {
    // Warm seed replaces the random start where assigned; the fixed
    // override below still wins on pinned gates.
    const std::vector<int>& warm = *options.warm;
    for (int i = 0; i < num_gates; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (warm[ui] >= 0) {
        result.partition.plane_of[static_cast<std::size_t>(gate_ids[ui])] =
            warm[ui];
      }
    }
  }
  if (options.fixed != nullptr) {
    // Constrained start: pinned gates override the random assignment, so
    // the initial cut below already describes a feasible partition.
    const std::vector<int>& fixed = *options.fixed;
    for (int i = 0; i < num_gates; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (fixed[ui] >= 0) {
        result.partition
            .plane_of[static_cast<std::size_t>(gate_ids[ui])] = fixed[ui];
      }
    }
  }
  result.initial_cut = cut_count(netlist, result.partition);

  obs::TraceSink sink(options.observer);
  if (sink.enabled()) {
    obs::RunInfo info;
    info.engine = "fm_kway";
    info.num_planes = num_planes;
    info.seed = options.seed;
    info.max_iterations = options.max_passes;
    info.problem_gates = num_gates;
    info.problem_edges = static_cast<long long>(edges.size());
    sink.run_start(info);
    sink.restart_start({0});
  }
  obs::ScopedTimer fm_timer(&sink, "fm", 0);
  long long moves_tried = 0;
  long long moves_kept = 0;
  int current_cut = result.initial_cut;

  std::vector<int> label(static_cast<std::size_t>(num_gates));
  std::vector<double> plane_bias(static_cast<std::size_t>(num_planes), 0.0);
  for (int i = 0; i < num_gates; ++i) {
    label[static_cast<std::size_t>(i)] =
        result.partition.plane(gate_ids[static_cast<std::size_t>(i)]);
    plane_bias[static_cast<std::size_t>(label[static_cast<std::size_t>(i)])] +=
        bias[static_cast<std::size_t>(i)];
  }
  const double total_bias = std::accumulate(bias.begin(), bias.end(), 0.0);
  const double ideal = total_bias / num_planes;
  const double max_bias = ideal * (1.0 + options.balance_tolerance);
  const double min_bias = ideal * (1.0 - options.balance_tolerance);

  // Neighbour counts by plane: cnt[i*K + p] = neighbours of i on plane p.
  const std::size_t k = static_cast<std::size_t>(num_planes);
  std::vector<int> cnt(static_cast<std::size_t>(num_gates) * k);
  auto gain_of = [&](int i, int t) {
    const std::size_t row = static_cast<std::size_t>(i) * k;
    return cnt[row + static_cast<std::size_t>(t)] -
           cnt[row + static_cast<std::size_t>(label[static_cast<std::size_t>(i)])];
  };
  auto feasible = [&](int i, int t) {
    const auto ui = static_cast<std::size_t>(i);
    return plane_bias[static_cast<std::size_t>(t)] + bias[ui] <= max_bias &&
           plane_bias[static_cast<std::size_t>(label[ui])] - bias[ui] >= min_bias;
  };
  MoveIndex index(offsets, num_planes);
  std::vector<char> locked(static_cast<std::size_t>(num_gates));

  Rng rng(options.seed ^ 0x5bd1e995ULL);
  std::vector<int> order(static_cast<std::size_t>(num_gates));
  std::iota(order.begin(), order.end(), 0);

  // Move log for best-prefix rollback.
  struct Move {
    int gate;
    int from;
    int to;
  };
  std::vector<Move> moves;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    result.passes = pass + 1;
    rng.shuffle(order);
    for (int i = 0; i < num_gates; ++i) {
      locked[static_cast<std::size_t>(i)] =
          options.fixed != nullptr && (*options.fixed)[static_cast<std::size_t>(i)] >= 0;
    }
    std::fill(cnt.begin(), cnt.end(), 0);
    for (int i = 0; i < num_gates; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      for (int e = offsets[ui]; e < offsets[ui + 1]; ++e) {
        const int j = neighbors[static_cast<std::size_t>(e)];
        ++cnt[ui * k + static_cast<std::size_t>(label[static_cast<std::size_t>(j)])];
      }
    }
    index.build(order, label, locked, gain_of);

    moves.clear();
    int cumulative_gain = 0;
    int best_gain = 0;
    std::size_t best_prefix = 0;

    // Greedy FM pass: repeatedly apply the best feasible move among the
    // unlocked gates, even when its gain is negative -- hill climbing out
    // of local minima is the point of FM.
    for (int step = 0; step < num_gates; ++step) {
      const MoveIndex::Pick pick = index.best(feasible);
      if (pick.gate < 0) break;  // nothing movable
      const int gate = pick.gate;
      const auto ug = static_cast<std::size_t>(gate);
      const int from = label[ug];
      const int to = pick.target;
      index.remove(gate);
      plane_bias[static_cast<std::size_t>(from)] -= bias[ug];
      plane_bias[static_cast<std::size_t>(to)] += bias[ug];
      label[ug] = to;
      locked[ug] = 1;
      for (int e = offsets[ug]; e < offsets[ug + 1]; ++e) {
        const int j = neighbors[static_cast<std::size_t>(e)];
        const auto uj = static_cast<std::size_t>(j);
        --cnt[uj * k + static_cast<std::size_t>(from)];
        ++cnt[uj * k + static_cast<std::size_t>(to)];
        if (locked[uj] != 0) continue;
        const int lj = label[uj];
        for (int t = 0; t < num_planes; ++t) {
          if (t == lj) continue;
          const int gain = gain_of(j, t);
          if (gain != index.gain(j, t)) index.rekey(j, t, gain);
        }
      }
      moves.push_back(Move{gate, from, to});
      cumulative_gain += pick.gain;
      if (cumulative_gain > best_gain) {
        best_gain = cumulative_gain;
        best_prefix = moves.size();
      }
      // Deep negative streaks will not recover; stop the pass early.
      if (cumulative_gain < best_gain - 50) break;
    }

    // Roll back past the best prefix.
    for (std::size_t m = moves.size(); m > best_prefix; --m) {
      const Move& move = moves[m - 1];
      const auto ug = static_cast<std::size_t>(move.gate);
      plane_bias[static_cast<std::size_t>(move.to)] -= bias[ug];
      plane_bias[static_cast<std::size_t>(move.from)] += bias[ug];
      label[ug] = move.from;
    }
    moves_tried += static_cast<long long>(moves.size());
    if (best_gain > 0) {
      moves_kept += static_cast<long long>(best_prefix);
      current_cut -= best_gain;
    }
    if (sink.enabled()) {
      sink.iteration({0, pass, CostTerms{}, static_cast<double>(current_cut)});
    }
    if (best_gain <= 0) break;  // converged
  }

  for (int i = 0; i < num_gates; ++i) {
    result.partition.plane_of[static_cast<std::size_t>(gate_ids[static_cast<std::size_t>(i)])] =
        label[static_cast<std::size_t>(i)];
  }
  result.final_cut = cut_count(netlist, result.partition);
  if (sink.enabled()) {
    const bool converged = result.passes < options.max_passes;
    sink.counter("moves_tried", moves_tried);
    sink.counter("moves_accepted", moves_kept);
    sink.restart_end({0, CostTerms{}, CostTerms{},
                      static_cast<double>(result.final_cut), result.passes,
                      converged});
    sink.run_end({0, static_cast<double>(result.final_cut), result.passes,
                  converged});
  }
  return result;
}

}  // namespace sfqpart
