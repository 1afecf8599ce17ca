// Workload `daemon_mix`: an in-process sfqpartd (service::Daemon,
// workers=2, threads_per_job=1, certify on) driven as a closed loop by
// two client threads; each client waits for its reply before it sends
// the next sfqpart.job.v1 line.
//
// The line stream is made of rounds. A round holds every (Table I
// circuit, engine variant) pair once, in a seeded order, under a job
// seed of its own (so every round is fresh work), plus half as many
// repeats of keys from the previous round or sent earlier in this one: a
// third of all lines. A repeat finds its key cached (a hit) or still
// executing (coalesced onto the running job); every fresh line is a miss
// that maps, solves, certifies, serializes and inserts. Clients stop only
// at a round boundary, so every run measures whole rounds with the same
// make-up whatever the seed. This is the only workload that reaches the service
// layer, the per-miss SFQ mapping, and the multilevel / V-cycle /
// annealing / FM refiners (on small graphs).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/certify.h"
#include "core/engine.h"
#include "core/simd/dispatch.h"
#include "gen/suite.h"
#include "harness.h"
#include "service/daemon.h"
#include "sfq/mapper.h"
#include "util/hash.h"
#include "util/mem.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using namespace sfqpart;

constexpr std::uint64_t kOrderStream = 4;
constexpr std::uint64_t kJobSeedStream = 5;
constexpr int kSetupReps = 11;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kThreadsPerJob = 1;
constexpr int kHashedRounds = 4;  // rounds covered by the input hash

struct Variant {
  const char* label;   // metric name part
  const char* engine;  // registry name
  const char* extra;   // additional job options
};

constexpr Variant kVariants[] = {
    {"gradient", "gradient", ",\"refine\":true"},
    {"multilevel", "multilevel", ""},
    {"vcycle_banded", "vcycle", ",\"refine_style\":\"banded\""},
    {"vcycle_buckets", "vcycle", ",\"refine_style\":\"buckets\""},
    {"annealing", "annealing", ""},
    {"fm_kway", "fm_kway", ""},
};
constexpr int kNumVariants = static_cast<int>(std::size(kVariants));

struct Circuit {
  std::string name;
  int gates = 0;             // partitionable gates
  double f4_constant = 0.0;  // certified F4 of any one-hot labeling
};

// One distinct job key: (circuit, engine variant, job seed).
struct Key {
  int circuit = 0;
  int variant = 0;
  int round = 0;
};

struct Line {
  std::string text;
  std::string id;
  int key = 0;
};

// The seeded line stream, generated round by round on demand. Not
// thread-safe; the clients share it under their own mutex.
class Stream {
 public:
  Stream(std::uint64_t seed, const std::vector<Circuit>& circuits)
      : seed_(seed), circuits_(circuits) {}

  std::size_t fresh_per_round() const {
    return circuits_.size() * static_cast<std::size_t>(kNumVariants);
  }
  std::size_t round_size() const {
    return fresh_per_round() + fresh_per_round() / 2;
  }

  const Line& line(std::size_t index) {
    while (lines_.size() <= index) add_round();
    return lines_[index];
  }
  const Key& key(int k) const { return keys_[static_cast<std::size_t>(k)]; }
  const std::string& circuit_name(int c) const {
    return circuits_[static_cast<std::size_t>(c)].name;
  }

  std::uint64_t hash() {
    line(kHashedRounds * round_size() - 1);
    Fnv1a64 h;
    for (std::size_t i = 0; i < kHashedRounds * round_size(); ++i) {
      h.update(lines_[i].text);
    }
    return h.digest();
  }

 private:
  void add_round() {
    const int round = rounds_++;
    const std::uint64_t order_seed =
        derive_seed(seed_, kOrderStream, static_cast<std::uint64_t>(round));
    std::uint64_t draws = 0;
    auto below = [&](std::size_t n) {
      return static_cast<std::size_t>(derive_seed(order_seed, 0, draws++) % n);
    };
    const std::size_t fresh = fresh_per_round();
    const std::size_t total = round_size();

    std::vector<int> order(fresh);
    for (std::size_t i = 0; i < fresh; ++i) order[i] = static_cast<int>(i);
    for (std::size_t i = fresh; i-- > 1;) {
      std::swap(order[i], order[below(i + 1)]);
    }
    // Repeat slots: total - fresh of the positions 1 .. total-1, so every
    // repeat has at least one fresh line before it in its round.
    std::vector<std::size_t> slots(total - 1);
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i + 1;
    for (std::size_t i = slots.size(); i-- > 1;) {
      std::swap(slots[i], slots[below(i + 1)]);
    }
    std::vector<bool> repeat(total, false);
    for (std::size_t i = 0; i < total - fresh; ++i) repeat[slots[i]] = true;

    // Repeat candidates: the previous round's keys (cached by now, so
    // mostly plain hits) and this round's keys sent so far (which may
    // still be executing, so some repeats coalesce).
    std::vector<int> issued;
    for (std::size_t k = static_cast<std::size_t>(std::max(round - 1, 0)) * fresh;
         k < static_cast<std::size_t>(round) * fresh; ++k) {
      issued.push_back(static_cast<int>(k));
    }
    std::size_t next_fresh = 0;
    for (std::size_t pos = 0; pos < total; ++pos) {
      int key = 0;
      if (repeat[pos]) {
        key = issued[below(issued.size())];
      } else {
        const int pair = order[next_fresh++];
        key = static_cast<int>(keys_.size());
        keys_.push_back({pair / kNumVariants, pair % kNumVariants, round});
        issued.push_back(key);
      }
      const Key& k = keys_[static_cast<std::size_t>(key)];
      const Variant& v = kVariants[k.variant];
      const std::uint64_t job_seed =
          derive_seed(seed_, kJobSeedStream, static_cast<std::uint64_t>(k.round));
      Line line;
      line.id = str_format("r%d-%zu", round, pos);
      line.key = key;
      line.text = str_format(
          "{\"schema\":\"sfqpart.job.v1\",\"id\":\"%s\",\"circuit\":\"%s\","
          "\"engine\":\"%s\",\"options\":{\"planes\":%d,\"seed\":%llu%s}}",
          line.id.c_str(), circuits_[static_cast<std::size_t>(k.circuit)].name.c_str(),
          v.engine, kPlanes, static_cast<unsigned long long>(job_seed), v.extra);
      lines_.push_back(std::move(line));
    }
  }

  std::uint64_t seed_;
  const std::vector<Circuit>& circuits_;
  int rounds_ = 0;
  std::vector<Key> keys_;
  std::vector<Line> lines_;
};

// Counts the daemon's counter events (cache_hit, job_coalesced, ...).
class CounterObserver final : public obs::SolverObserver {
 public:
  void on_counter(const obs::CounterEvent& e) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    counts_[e.name] += e.delta;
  }
  long long count(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, long long> counts_;
};

double number_at(const Json& doc, const char* object, const char* name) {
  const Json* outer = doc.find(object);
  const Json* value = outer != nullptr ? outer->find(name) : nullptr;
  return value != nullptr && value->is_number() ? value->as_number() : -1.0;
}

// What one response said, reduced on the client thread as it arrives so
// the benchmark does not hold hundreds of full run reports: the report is
// kept as a hash of its bytes (hits must match their key's miss byte for
// byte) plus the fields the checks and metrics read.
struct Reply {
  std::size_t index = 0;  // position in the stream
  double latency_ms = 0.0;
  double done_s = 0.0;    // reply time, from the start of the phase
  std::string problem;    // first defect found in the response; empty if ok
  bool hit = false;
  std::uint64_t report_hash = 0;
  std::size_t report_size = 0;
  // Misses only: what the report says about the engine run.
  double certified = 0.0;
  double gates = 0.0;
  double discrete_total = 0.0;
  double icomp_frac = 0.0;
  double afs_frac = 0.0;
  LayerSample layers;
};

void summarize(const std::string& response, const Line& line, Reply& reply) {
  auto doc = Json::parse(response);
  if (!doc) {
    reply.problem = "response is not JSON: " + doc.status().message();
    return;
  }
  const Json* id = doc->find("id");
  const Json* status = doc->find("status");
  const Json* cache = doc->find("cache");
  const Json* report = doc->find("report");
  if (id == nullptr || id->as_string() != line.id) {
    reply.problem = "response carries another id";
    return;
  }
  if (status == nullptr || status->as_string() != "ok") {
    const Json* error = doc->find("error");
    reply.problem = "status " + (status ? status->as_string() : "?") + ": " +
                    (error ? error->as_string() : "");
    return;
  }
  const std::size_t at = response.find(",\"report\":");
  if (cache == nullptr || report == nullptr || at == std::string::npos ||
      (cache->as_string() != "hit" && cache->as_string() != "miss")) {
    reply.problem = "ok response without a cache outcome and a report";
    return;
  }
  // The daemon splices the report verbatim as the envelope's last member.
  const std::size_t begin = at + 10;
  reply.report_size = response.size() - begin - 1;
  reply.report_hash = Fnv1a64()
                          .update(response.data() + begin, reply.report_size)
                          .digest();
  reply.hit = cache->as_string() == "hit";
  if (reply.hit) return;
  reply.certified = number_at(*report, "counters", "daemon_certified");
  reply.gates = number_at(*report, "circuit", "gates");
  reply.discrete_total = number_at(*report, "result", "discrete_total");
  reply.icomp_frac = number_at(*report, "metrics", "icomp_frac");
  reply.afs_frac = number_at(*report, "metrics", "afs_frac");
  reply.layers = LayerSample::from_report(*report);
}

struct Phase {
  std::vector<Reply> replies;  // one per line sent, in reply order
  // When the clients stopped sending. Throughput counts the replies
  // received by then: the drain of the last in-flight jobs (up to one
  // multi-second FM run) would otherwise weigh on every run differently.
  double window_s = 0.0;
  long long engine_runs = 0;
};

std::unique_ptr<service::Daemon> make_daemon(obs::SolverObserver* observer) {
  service::DaemonOptions options;
  options.workers = kWorkers;
  options.threads_per_job = kThreadsPerJob;
  options.certify = true;
  options.observer = observer;
  // One LRU shard, so the default 256-entry bound is exact: the cache
  // always holds the last two rounds' keys (2 * 78), every repeat is a
  // hit or coalesces, and a second miss for a key is a defect. With the
  // default 8 shards of 32, hashing crowds some shard past 32 of those
  // keys in a few percent of runs and a repeat legitimately re-runs.
  options.cache_shards = 1;
  return std::make_unique<service::Daemon>(options);
}

// Closed loop: kClients threads, each sending its next line only after
// the previous reply. Lines are taken in stream order; the clients stop
// at the first round boundary reached after `seconds` (at least one
// whole round is always sent).
Phase run_phase(service::Daemon& daemon, Stream& stream, double seconds,
                SpanRecorder& spans) {
  Phase phase;
  std::mutex mutex;  // guards stream, next, stopped, phase
  std::size_t next = 0;
  bool stopped = false;
  const Clock::time_point start = Clock::now();

  auto take = [&](Line& line) -> std::optional<std::size_t> {
    const std::lock_guard<std::mutex> lock(mutex);
    if (stopped) return std::nullopt;
    const double elapsed_ms = ms_between(start, Clock::now());
    if (next > 0 && next % stream.round_size() == 0 &&
        elapsed_ms >= seconds * 1000.0) {
      stopped = true;
      phase.window_s = elapsed_ms / 1000.0;
      return std::nullopt;
    }
    line = stream.line(next);
    return next++;
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Line line;
      while (const std::optional<std::size_t> index = take(line)) {
        const double start_us = spans.now_us();
        const Clock::time_point t0 = Clock::now();
        const std::string response = daemon.submit(line.text).get();
        const Clock::time_point done = Clock::now();
        Reply reply;
        reply.index = *index;
        reply.latency_ms = ms_between(t0, done);
        reply.done_s = ms_between(start, done) / 1000.0;
        summarize(response, line, reply);
        const std::lock_guard<std::mutex> lock(mutex);
        if (spans.enabled()) {
          const Key& k = stream.key(line.key);
          spans.add(std::string("job ") + kVariants[k.variant].label + " " +
                        stream.circuit_name(k.circuit) +
                        (reply.hit ? " hit" : " miss"),
                    static_cast<long long>(*index), -1, c + 1, start_us,
                    reply.latency_ms * 1000.0);
        }
        phase.replies.push_back(std::move(reply));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  phase.engine_runs = daemon.engine_runs();
  return phase;
}

// What the checks of one phase measured.
struct Findings {
  std::vector<double> latency_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<std::vector<double>> variant_miss_ms =
      std::vector<std::vector<double>>(kNumVariants);
  std::vector<LayerSample> layers;  // one per miss
  long long answered_in_window = 0;
  long long gates_in_window = 0;  // partitionable gates of misses
  long long distinct_keys = 0;
  double cost_sum = 0.0;
  double icomp_sum = 0.0;
  double afs_sum = 0.0;
  int scored = 0;
};

// Checks every reply of a phase: exactly one per line sent, id echoed,
// status ok, each key answered by exactly one miss, every hit's report
// byte-identical to its key's miss, the daemon's certification frozen
// into the report, and the report describing the job's circuit.
Findings check_phase(const Phase& phase, Stream& stream,
                     const std::vector<Circuit>& circuits, double c4,
                     Outcome& out) {
  Findings found;
  std::vector<const Reply*> by_index(phase.replies.size(), nullptr);
  for (const Reply& r : phase.replies) {
    if (r.index < by_index.size()) by_index[r.index] = &r;
  }
  struct KeyState {
    const Reply* miss = nullptr;
    std::vector<const Reply*> hits;
  };
  std::map<int, KeyState> keys;

  for (std::size_t i = 0; i < by_index.size(); ++i) {
    out.attempt();
    const Reply* r = by_index[i];
    const Line& line = stream.line(i);
    const std::string what = "line " + line.id;
    if (r == nullptr) {
      out.fail(what + ": no reply");
      continue;
    }
    found.latency_ms.push_back(r->latency_ms);
    if (!r->problem.empty()) {
      out.fail(what + ": " + r->problem);
      continue;
    }
    KeyState& state = keys[line.key];
    const bool in_window = r->done_s <= phase.window_s;
    if (r->hit) {
      found.hit_ms.push_back(r->latency_ms);
      state.hits.push_back(r);
      if (in_window) ++found.answered_in_window;
      continue;
    }
    if (state.miss != nullptr) {
      out.fail(what + ": second engine run for one key");
      continue;
    }
    state.miss = r;
    const Key& key = stream.key(line.key);
    const Circuit& circuit = circuits[static_cast<std::size_t>(key.circuit)];
    if (r->certified != 1.0) {
      out.fail(what + ": report is not certified by the daemon");
      continue;
    }
    if (r->gates != circuit.gates) {
      out.fail(what + ": report describes another netlist than " + circuit.name);
      continue;
    }
    found.miss_ms.push_back(r->latency_ms);
    found.variant_miss_ms[static_cast<std::size_t>(key.variant)].push_back(r->latency_ms);
    found.layers.push_back(r->layers);
    if (in_window) {
      ++found.answered_in_window;
      found.gates_in_window += circuit.gates;
    }
    if (key.round == 0) {
      found.cost_sum += r->discrete_total - c4 * circuit.f4_constant;
      found.icomp_sum += 100.0 * r->icomp_frac;
      found.afs_sum += 100.0 * r->afs_frac;
      ++found.scored;
    }
  }
  for (const auto& [key, state] : keys) {
    for (const Reply* hit : state.hits) {
      if (state.miss == nullptr) {
        out.fail("line " + stream.line(hit->index).id + ": hit on a key with no miss");
      } else if (hit->report_hash != state.miss->report_hash ||
                 hit->report_size != state.miss->report_size) {
        out.fail("line " + stream.line(hit->index).id +
                 ": hit report differs from its key's miss");
      }
    }
  }
  found.distinct_keys = static_cast<long long>(keys.size());
  if (phase.engine_runs != found.distinct_keys) {
    out.fail(str_format("daemon ran %lld engines for %lld distinct keys",
                        phase.engine_runs, found.distinct_keys));
  }
  return found;
}

}  // namespace

int run_daemon_mix(const Args& args, Outcome& out, SpanRecorder& spans) {
  const std::vector<const SuiteEntry*> entries = suite_entries(args.tiny);

  // Set-up: build and map the circuits the jobs name (the benchmark's
  // reference for the gate count each report must carry), construct the
  // daemon and generate the first round of the stream. Repeated for a
  // median; each repetition must regenerate the identical stream.
  std::vector<Circuit> circuits;
  std::vector<Netlist> netlists;
  std::unique_ptr<service::Daemon> daemon;
  std::unique_ptr<Stream> stream;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> map_ms;
  std::uint64_t input_hash = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const Clock::time_point s0 = Clock::now();
    circuits.clear();
    netlists.clear();
    double gen = 0.0;
    double map = 0.0;
    for (const SuiteEntry* entry : entries) {
      const Clock::time_point t0 = Clock::now();
      const Netlist structural = entry->build_structural();
      const Clock::time_point t1 = Clock::now();
      netlists.push_back(map_to_sfq(structural));
      const Clock::time_point t2 = Clock::now();
      gen += ms_between(t0, t1);
      map += ms_between(t1, t2);
      circuits.push_back({entry->name, netlists.back().num_partitionable_gates()});
    }
    simd::dispatch_info();
    daemon = make_daemon(nullptr);
    stream = std::make_unique<Stream>(args.seed, circuits);
    stream->line(stream->round_size() - 1);
    setup_s.push_back(ms_between(s0, Clock::now()) / 1000.0);
    gen_ms.push_back(gen);
    map_ms.push_back(map);

    const std::uint64_t h = stream->hash();
    if (rep > 0 && h != input_hash) {
      out.fail("set-up repetition regenerated a different line stream");
    }
    input_hash = h;
  }
  if (args.input_hash_only) {
    std::printf("%s\n", hash_hex(input_hash).c_str());
    return kWorkers * kThreadsPerJob;
  }
  out.note("input_hash", Json::string(hash_hex(input_hash)));
  out.note("clients", Json::number(static_cast<long long>(kClients)));
  out.note("workers", Json::number(static_cast<long long>(kWorkers)));

  const CostWeights weights;
  const double c4 = weights.c4;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    circuits[i].f4_constant =
        build_certified_instance(netlists[i], kPlanes, weights).f4_constant;
  }

  if (!args.trace) {
    SpanRecorder off(false);
    const Phase phase = run_phase(*daemon, *stream, args.seconds, off);
    daemon.reset();
    const Findings found = check_phase(phase, *stream, circuits, c4, out);
    out.note("op_samples", Json::number(static_cast<long long>(phase.replies.size())));
    out.note("rounds", Json::number(static_cast<long long>(
                           phase.replies.size() / stream->round_size())));
    const double n = std::max(found.scored, 1);
    out.set("setup_s", quantile(setup_s, 0.5));
    out.set("op_p50_ms", quantile(found.latency_ms, 0.5));
    out.set("op_p90_ms", quantile(found.latency_ms, 0.9));
    out.set("ops_per_s", static_cast<double>(found.answered_in_window) / phase.window_s);
    out.set("gates_per_s", static_cast<double>(found.gates_in_window) / phase.window_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("cost", found.cost_sum / n);
    out.set("icomp_pct", found.icomp_sum / n);
    out.set("afs_pct", found.afs_sum / n);
    return kWorkers * kThreadsPerJob;
  }

  // Traced run: the same stream twice, each half of the time, first
  // against the untraced set-up daemon, then against a fresh daemon with
  // a counting observer and client spans. Both start cold, so the two
  // phases do the same work and their p50s give the tracing overhead.
  SpanRecorder off(false);
  const Phase plain = run_phase(*daemon, *stream, args.seconds / 2.0, off);
  daemon.reset();
  const Findings plain_found = check_phase(plain, *stream, circuits, c4, out);

  CounterObserver counters;
  daemon = make_daemon(&counters);
  const Phase traced = run_phase(*daemon, *stream, args.seconds / 2.0, spans);
  daemon.reset();  // joins the workers: every counter event has arrived
  const Findings found = check_phase(traced, *stream, circuits, c4, out);

  out.set("gen.build_ms", quantile(gen_ms, 0.5));
  out.set("sfq.map_ms", quantile(map_ms, 0.5));
  // The daemon builds problems, certifies and serializes reports inside
  // its workers; from outside only the run reports' own stage timers are
  // visible, so core.problem_ms / core.certify_ms / obs.report_ms stay 0
  // and core.unattributed_ms is the miss latency the stages leave over.
  LayerTotals layers;
  layers.samples = found.layers;
  layers.op_ms = found.miss_ms;
  layers.publish(out);
  for (int v = 0; v < kNumVariants; ++v) {
    out.set(std::string("service.engine.") + kVariants[v].label + ".p50_ms",
            quantile(found.variant_miss_ms[static_cast<std::size_t>(v)], 0.5));
  }
  const double answered = static_cast<double>(found.hit_ms.size() + found.miss_ms.size());
  out.set("service.hit_p50_ms", quantile(found.hit_ms, 0.5));
  out.set("service.miss_p50_ms", quantile(found.miss_ms, 0.5));
  out.set("service.hit_ratio",
          answered > 0.0 ? static_cast<double>(found.hit_ms.size()) / answered : 0.0);
  out.set("service.coalesced", static_cast<double>(counters.count("job_coalesced")));
  out.set("service.engine_runs", static_cast<double>(traced.engine_runs));
  out.set("service.useful_ratio",
          traced.engine_runs > 0 ? static_cast<double>(found.distinct_keys) /
                                       static_cast<double>(traced.engine_runs)
                                 : 0.0);
  out.set("service.rejected", static_cast<double>(counters.count("job_rejected")));
  out.set("obs.tracing_overhead_pct",
          tracing_overhead_pct(found.latency_ms, plain_found.latency_ms));
  return kWorkers * kThreadsPerJob;
}

}  // namespace perfbench
