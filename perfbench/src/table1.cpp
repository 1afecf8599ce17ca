// Workload `table1`: the paper's own path. Algorithm 1 (engine
// "gradient", K=5, restarts=3, threads=1) over the 13 Table I circuits,
// one op per (circuit, seed). Nearly all of its time is the eval+grad
// kernels; it reaches no coarsening, no refiner and no service layer.
//
// A run makes whole passes over the circuits. Pass p uses seed
// p mod kSeeds of the workload's seed list, so the first kSeeds passes
// fix every (circuit, seed) result and later passes must reproduce their
// label hashes exactly (the determinism contract). cost / icomp_pct /
// afs_pct are means over those first kSeeds passes, so they depend on
// the workload seed only, never on how many passes fit in the run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/simd/dispatch.h"
#include "gen/suite.h"
#include "harness.h"
#include "sfq/mapper.h"
#include "util/hash.h"
#include "util/mem.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using namespace sfqpart;

constexpr std::uint64_t kSeedStream = 1;
constexpr int kSeeds = 16;
constexpr int kSetupReps = 11;
constexpr int kThreads = 1;

struct Circuit {
  std::string name;
  Netlist netlist;
  int gates = 0;        // partitionable
  double bias_ma = 0.0; // B_cir
  double area_um2 = 0.0;
};

}  // namespace

int run_table1(const Args& args, Outcome& out, SpanRecorder& spans) {
  const std::vector<const SuiteEntry*> entries = suite_entries(args.tiny);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kSeeds; ++i) {
    seeds.push_back(derive_seed(args.seed, kSeedStream, static_cast<std::uint64_t>(i)));
  }

  // Set-up: generate and SFQ-map every circuit, resolve the engine and
  // the kernel tier. Repeated so the reported figure is a median; each
  // repetition must regenerate the identical input.
  std::vector<Circuit> circuits;
  std::unique_ptr<PartitionEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> map_ms;
  std::uint64_t input_hash = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point s0 = Clock::now();
    circuits.clear();
    double gen = 0.0;
    double map = 0.0;
    for (const SuiteEntry* entry : entries) {
      const Clock::time_point t0 = Clock::now();
      const Netlist structural = entry->build_structural();
      const Clock::time_point t1 = Clock::now();
      Netlist mapped = map_to_sfq(structural);
      const Clock::time_point t2 = Clock::now();
      gen += ms_between(t0, t1);
      map += ms_between(t1, t2);
      circuits.push_back({entry->name, std::move(mapped)});
    }
    auto created = EngineRegistry::create("gradient");
    if (created) engine = std::move(*created);
    simd::dispatch_info();
    setup_s.push_back(ms_between(s0, Clock::now()) / 1000.0);
    gen_ms.push_back(gen);
    map_ms.push_back(map);

    Fnv1a64 input;
    for (const std::uint64_t seed : seeds) input.update(&seed, sizeof(seed));
    for (const Circuit& c : circuits) {
      const std::uint64_t h = hash_netlist(c.netlist);
      input.update(&h, sizeof(h));
    }
    if (rep > 0 && input.digest() != input_hash) {
      out.fail("set-up repetition regenerated a different input");
    }
    input_hash = input.digest();
  }
  if (engine == nullptr) {
    out.fail("engine \"gradient\" is not registered");
    return kThreads;
  }
  for (Circuit& c : circuits) {
    c.gates = c.netlist.num_partitionable_gates();
    c.bias_ma = partitionable_bias(c.netlist);
    c.area_um2 = partitionable_area(c.netlist);
  }
  if (args.input_hash_only) {
    std::printf("%s\n", hash_hex(input_hash).c_str());
    return kThreads;
  }
  out.note("input_hash", Json::string(hash_hex(input_hash)));

  EngineContext ctx;
  ctx.num_planes = kPlanes;
  ctx.threads = kThreads;
  ctx.restarts = 3;
  ctx.certify = false;  // certified below, outside the engine

  std::vector<double> op_ms;         // untraced ops
  std::vector<double> traced_op_ms;  // traced ops
  LayerTotals layers;
  std::vector<std::uint64_t> label_hash(circuits.size() * kSeeds, 0);
  double cost_sum = 0.0;
  double icomp_sum = 0.0;
  double afs_sum = 0.0;
  int scored = 0;
  long long gates_done = 0;

  // Traced runs alternate traced and untraced passes so each seed is
  // traced once per 2 * kSeeds passes: the overhead compares like with
  // like.
  const int min_passes = args.trace ? 2 * kSeeds : kSeeds;
  const Clock::time_point start = Clock::now();
  int pass = 0;
  for (;; ++pass) {
    if (pass >= min_passes &&
        ms_between(start, Clock::now()) >= args.seconds * 1000.0) {
      break;
    }
    const int s = pass % kSeeds;
    const bool traced = args.trace && (pass + pass / kSeeds) % 2 == 1;
    ctx.seed = seeds[static_cast<std::size_t>(s)];
    for (std::size_t ci = 0; ci < circuits.size(); ++ci) {
      const Circuit& c = circuits[ci];
      const long long op = out.attempted();
      out.attempt();
      const std::string what = str_format("op %lld (%s, seed %llu)", op,
                                          c.name.c_str(),
                                          static_cast<unsigned long long>(ctx.seed));

      const CertifiedOp result =
          run_certified_op(*engine, c.netlist, ctx, c.name, op, traced,
                           args.tamper && op == 0, spans, layers);
      if (!result.run) {
        out.fail(what + ": engine: " + result.engine_error);
        continue;
      }
      (traced ? traced_op_ms : op_ms).push_back(result.ms);
      const CertifyReport& cert = result.cert;

      const std::uint64_t h = hash_labels(result.run->partition);
      std::uint64_t& expected = label_hash[ci * kSeeds + static_cast<std::size_t>(s)];
      if (pass < kSeeds) expected = h;
      if (!cert.valid()) {
        out.fail(what + ": certify " + certify_verdict_name(cert.verdict) +
                 ": " + cert.message);
        continue;
      }
      if (pass < kSeeds) {
        const CostWeights& w = ctx.weights;
        cost_sum += w.c1 * cert.terms.f1 + w.c2 * cert.terms.f2 + w.c3 * cert.terms.f3;
        icomp_sum += 100.0 * cert.icomp_ma / c.bias_ma;
        afs_sum += 100.0 * cert.afs_um2 / c.area_um2;
        ++scored;
      } else if (h != expected) {
        out.fail(what + ": labels hash " + hash_hex(h) + " differs from " +
                 hash_hex(expected) + " of the same (circuit, seed)");
        continue;
      }
      gates_done += c.gates;
    }
  }
  const double wall_s = ms_between(start, Clock::now()) / 1000.0;
  out.note("passes", Json::number(static_cast<long long>(pass)));
  out.note("op_samples", Json::number(static_cast<long long>(op_ms.size())));

  if (args.trace) {
    out.set("gen.build_ms", quantile(gen_ms, 0.5));
    out.set("sfq.map_ms", quantile(map_ms, 0.5));
    layers.publish(out);
    out.set("obs.tracing_overhead_pct", tracing_overhead_pct(traced_op_ms, op_ms));
    return kThreads;
  }
  const double ops = static_cast<double>(op_ms.size());
  out.set("setup_s", quantile(setup_s, 0.5));
  out.set("op_p50_ms", quantile(op_ms, 0.5));
  out.set("op_p90_ms", quantile(op_ms, 0.9));
  out.set("ops_per_s", ops / wall_s);
  out.set("gates_per_s", static_cast<double>(gates_done) / wall_s);
  out.set("peak_rss_mb", peak_rss_mb());
  const double n = std::max(scored, 1);
  out.set("cost", cost_sum / n);
  out.set("icomp_pct", icomp_sum / n);
  out.set("afs_pct", afs_sum / n);
  return kThreads;
}

}  // namespace perfbench
