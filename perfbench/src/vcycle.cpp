// Workload `vcycle_1m`: one 10^6-gate build_scaled netlist (Rent 0.65,
// generator seed from the workload seed) partitioned by engine "vcycle"
// (refine_style=banded, K=5, threads=2). Every op repeats the same cold
// solve, so every op must reproduce the first op's label hash. Most of
// its time is ProblemView construction, coarsening, the dense coarse
// solve, banded refinement and certifying 10^6 labels; it reaches no
// mapper (build_scaled emits a physical netlist directly), no service
// layer and no FM refiner.
//
// Two threads rather than four leave headroom on a shared 4-core box,
// where four-thread repeats spread far wider run to run.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/simd/dispatch.h"
#include "gen/scaled.h"
#include "harness.h"
#include "util/hash.h"
#include "util/mem.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using namespace sfqpart;

constexpr std::uint64_t kGeneratorStream = 2;
constexpr std::uint64_t kEngineStream = 3;
constexpr int kSetupReps = 3;
constexpr int kThreads = 2;
constexpr int kGates = 1000000;
constexpr int kTinyGates = 20000;

}  // namespace

int run_vcycle(const Args& args, Outcome& out, SpanRecorder& spans) {
  ScaledParams params;
  params.name = "scaled";
  params.num_gates = args.tiny ? kTinyGates : kGates;
  params.rent_exponent = 0.65;
  params.seed = derive_seed(args.seed, kGeneratorStream, 0);
  const std::uint64_t engine_seed = derive_seed(args.seed, kEngineStream, 0);

  // Set-up: generate the netlist (the only set-up work a user pays for
  // here) and resolve the engine, repeated for a median; each
  // repetition must regenerate the identical netlist.
  std::optional<Netlist> netlist;
  std::unique_ptr<PartitionEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::uint64_t input_hash = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    netlist.reset();  // never hold two 10^6-gate netlists at once
    const Clock::time_point s0 = Clock::now();
    netlist.emplace(build_scaled(params));
    gen_ms.push_back(ms_between(s0, Clock::now()));
    auto created = EngineRegistry::create("vcycle");
    if (created) engine = std::move(*created);
    simd::dispatch_info();
    setup_s.push_back(ms_between(s0, Clock::now()) / 1000.0);

    Fnv1a64 input;
    input.update(&engine_seed, sizeof(engine_seed));
    const std::uint64_t h = hash_netlist(*netlist);
    input.update(&h, sizeof(h));
    if (rep > 0 && input.digest() != input_hash) {
      out.fail("set-up repetition regenerated a different netlist");
    }
    input_hash = input.digest();
  }
  if (engine == nullptr) {
    out.fail("engine \"vcycle\" is not registered");
    return kThreads;
  }
  if (args.input_hash_only) {
    std::printf("%s\n", hash_hex(input_hash).c_str());
    return kThreads;
  }
  out.note("input_hash", Json::string(hash_hex(input_hash)));
  const int gates = netlist->num_partitionable_gates();
  const double bias_ma = partitionable_bias(*netlist);
  const double area_um2 = partitionable_area(*netlist);
  out.note("gates", Json::number(static_cast<long long>(gates)));

  EngineContext ctx;
  ctx.num_planes = kPlanes;
  ctx.threads = kThreads;
  ctx.seed = engine_seed;
  ctx.refine_style = "banded";
  ctx.certify = false;  // certified below, outside the engine

  std::vector<double> op_ms;
  std::vector<double> traced_op_ms;
  LayerTotals layers;
  std::uint64_t first_hash = 0;
  bool scored = false;
  double cost = 0.0;
  double icomp_pct = 0.0;
  double afs_pct = 0.0;
  long long gates_done = 0;

  // Traced runs alternate traced and untraced ops of the same solve.
  const int min_ops = args.trace ? 4 : 3;
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= min_ops && ms_between(start, Clock::now()) >= args.seconds * 1000.0) {
      break;
    }
    const long long op = out.attempted();
    out.attempt();
    const bool traced = args.trace && i % 2 == 1;
    const std::string what = str_format("op %lld", op);

    const CertifiedOp result =
        run_certified_op(*engine, *netlist, ctx, "vcycle", op, traced,
                         args.tamper && op == 0, spans, layers);
    if (!result.run) {
      out.fail(what + ": engine: " + result.engine_error);
      continue;
    }
    (traced ? traced_op_ms : op_ms).push_back(result.ms);
    const CertifyReport& cert = result.cert;

    const std::uint64_t h = hash_labels(result.run->partition);
    if (i == 0) first_hash = h;
    if (!cert.valid()) {
      out.fail(what + ": certify " + certify_verdict_name(cert.verdict) + ": " +
               cert.message);
      continue;
    }
    if (h != first_hash) {
      out.fail(what + ": labels hash " + hash_hex(h) +
               " differs from the first op's " + hash_hex(first_hash));
      continue;
    }
    if (!scored) {
      const CostWeights& w = ctx.weights;
      cost = w.c1 * cert.terms.f1 + w.c2 * cert.terms.f2 + w.c3 * cert.terms.f3;
      icomp_pct = 100.0 * cert.icomp_ma / bias_ma;
      afs_pct = 100.0 * cert.afs_um2 / area_um2;
      scored = true;
    }
    gates_done += gates;
  }
  const double wall_s = ms_between(start, Clock::now()) / 1000.0;
  out.note("op_samples", Json::number(static_cast<long long>(op_ms.size())));

  if (args.trace) {
    // build_scaled emits the physical netlist directly: there is no
    // separate mapping step on this path.
    out.set("gen.build_ms", quantile(gen_ms, 0.5));
    out.set("sfq.map_ms", 0.0);
    layers.publish(out);
    out.set("obs.tracing_overhead_pct", tracing_overhead_pct(traced_op_ms, op_ms));
    return kThreads;
  }
  out.set("cost", cost);
  out.set("icomp_pct", icomp_pct);
  out.set("afs_pct", afs_pct);
  out.set("setup_s", quantile(setup_s, 0.5));
  out.set("op_p50_ms", quantile(op_ms, 0.5));
  out.set("op_p90_ms", quantile(op_ms, 0.9));
  out.set("ops_per_s", static_cast<double>(op_ms.size()) / wall_s);
  out.set("gates_per_s", static_cast<double>(gates_done) / wall_s);
  out.set("peak_rss_mb", peak_rss_mb());
  return kThreads;
}

}  // namespace perfbench
