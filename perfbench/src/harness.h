// Shared pieces of the perfbench program: command-line arguments, seed
// derivation, order statistics, the metric tables, the run outcome, the
// in-memory span recorder with its Chrome trace-event export, and the
// per-layer figures read back from an sfqpart.run_report.v2 document.
//
// The benchmark drives sfqpart only through public entry points; every
// span and timer here lives in the benchmark, around calls into the
// library, never inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/certify.h"
#include "core/engine.h"
#include "core/partition.h"
#include "gen/suite.h"
#include "netlist/netlist.h"
#include "obs/observer.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline constexpr int kPlanes = 5;  // K of the paper's Table I

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test scale: a handful of small circuits / a 2*10^4-gate netlist.
  bool tiny = false;
  // Flip one label of the first op before certifying it, so the
  // correctness gate must fire (self-test only).
  bool tamper = false;
  // Print the workload's input hash for --seed and exit.
  bool input_hash_only = false;
  std::string trace_out;  // Chrome trace-event JSON path (traced runs)
  std::string source_id;  // git commit or source-tree hash, from run.py
};

// Seed `index` of stream `stream`, a pure function of the workload seed
// (splitmix64 finalizer). Results stay below 2^31 so they round-trip
// through JSON job options and every engine's seed type.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
// 100 * (p50(traced) / p50(untraced) - 1): obs.tracing_overhead_pct.
double tracing_overhead_pct(const std::vector<double>& traced_ms,
                            const std::vector<double>& untraced_ms);

// FNV-1a helpers for the determinism checks and input hashes.
std::uint64_t hash_labels(const sfqpart::Partition& partition);
std::uint64_t hash_netlist(const sfqpart::Netlist& netlist);

// Sum of bias [mA] / area [um^2] over the partitionable gates: B_cir and
// A_cir of the paper's Table I.
double partitionable_bias(const sfqpart::Netlist& netlist);
double partitionable_area(const sfqpart::Netlist& netlist);

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric tables BENCHMARK.json names: every untraced run prints each
// end-to-end metric, every traced run each per-layer metric.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();
// Certified result quality, printed by every untraced run beside the
// end-to-end metrics but left out of the result object: on vcycle_1m a
// run solves one 10^6-gate instance, and its quality varies from seed
// to seed by more than any regression bound could absorb (README.md).
const std::vector<MetricSpec>& quality_metrics();

// What one run found. Failures are counted per op and printed; they are
// never skipped.
class Outcome {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& what);
  void set(const std::string& name, double value) { values_[name] = value; }
  // Fingerprint extras (input hash, sample counts, threads).
  void note(const std::string& name, sfqpart::Json value) {
    notes_.emplace_back(name, std::move(value));
  }

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::map<std::string, double>& values() const { return values_; }
  const std::vector<std::pair<std::string, sfqpart::Json>>& notes() const {
    return notes_;
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, sfqpart::Json>> notes_;
};

// In-memory spans: name, start, end, parent; the spans of one op share
// its op id. Disabled recorders drop everything. Thread-safe.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Microseconds since the recorder was created.
  double now_us() const;
  // Opens a span; returns its id (-1 when disabled).
  int open(std::string name, long long op, int parent, int tid);
  void close(int id);
  // Records an already finished span.
  int add(std::string name, long long op, int parent, int tid,
          double start_us, double dur_us);
  std::size_t size() const;
  // Writes {"traceEvents": [...], "otherData": fingerprint}, loadable by
  // Perfetto and chrome://tracing. False when the file cannot be written.
  bool write_chrome(const std::string& path,
                    const sfqpart::Json& fingerprint) const;

 private:
  struct Span {
    std::string name;
    long long op = 0;
    int parent = -1;
    int tid = 0;
    double start_us = 0.0;
    double dur_us = -1.0;
  };

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Turns an engine's scoped stage timers ("run", "optimize", "coarsen",
// "coarse_solve", "uncoarsen", ...) and V-cycle level events into spans
// under the current op's engine span. The per-restart "gradient"/"step"
// totals are sums over many short intervals, not spans, and are skipped
// (the run report carries them).
class SpanObserver final : public sfqpart::obs::SolverObserver {
 public:
  explicit SpanObserver(SpanRecorder* recorder) : recorder_(recorder) {}
  void attach(long long op, int parent, int tid) {
    op_ = op;
    parent_ = parent;
    tid_ = tid;
  }
  void on_timer(const sfqpart::obs::TimerEvent& e) override;
  void on_level(const sfqpart::obs::LevelEvent& e) override;

 private:
  SpanRecorder* recorder_;
  long long op_ = 0;
  int parent_ = -1;
  int tid_ = 0;
};

// One engine run's layer figures, read from its run_report.v2 document
// (stages, counters, levels). Zero where the engine has no such stage.
struct LayerSample {
  double gradient_ms = 0.0;
  double step_ms = 0.0;
  double iterations = 0.0;
  double coarsen_ms = 0.0;
  double coarse_solve_ms = 0.0;
  double coarse_iterations = 0.0;
  double refine_ms = 0.0;
  double refine_last_level_ms = 0.0;
  double refine_moves = 0.0;
  double levels = 0.0;
  double coarse_vertices = 0.0;
  double last_shrink = 0.0;

  static LayerSample from_report(const sfqpart::Json& report);
};

// Per-op means of the core.* layer metrics over a run's traced ops.
// `problem_ms` / `certify_ms` / `op_ms` / `report_ms` are the benchmark's
// own spans around the public calls; the rest come from LayerSamples.
struct LayerTotals {
  std::vector<LayerSample> samples;
  std::vector<double> problem_ms;
  std::vector<double> certify_ms;
  std::vector<double> op_ms;
  std::vector<double> report_ms;

  // Sets every core.* and obs.report_ms metric on `out`.
  void publish(Outcome& out) const;
};

// The Table I circuits a workload runs: all 13, or ksa4 / ksa8 / mult4
// at self-test scale.
std::vector<const sfqpart::SuiteEntry*> suite_entries(bool tiny);

// One op of table1 / vcycle_1m: engine run + certify_partition against
// the engine's claimed terms, timed as one. A traced op first builds
// from_netlist + ProblemView under its own span (the stage the engine
// repeats inside), then runs with an obs::RunReport and a SpanObserver
// attached, and adds its problem / certify / report times and run-report
// layer figures to `layers`. With `tamper`, one label is flipped before
// certifying, so the verdict must come back invalid.
struct CertifiedOp {
  std::optional<sfqpart::EngineRun> run;  // empty when the engine failed
  std::string engine_error;
  sfqpart::CertifyReport cert;
  double ms = 0.0;
};
CertifiedOp run_certified_op(const sfqpart::PartitionEngine& engine,
                             const sfqpart::Netlist& netlist,
                             sfqpart::EngineContext context,
                             const std::string& label, long long op, bool traced,
                             bool tamper, SpanRecorder& spans, LayerTotals& layers);

// Environment fingerprint: CPU model, nproc, cpus_allowed, kernel tier
// and SFQPART_KERNELS, build type, compiler, threads, source id, plus
// the outcome's notes.
sfqpart::Json fingerprint(const Args& args, int threads,
                          const Outcome& outcome);

// Workloads. Each fills `out` with the end-to-end metrics (untraced) or
// the per-layer metrics (traced) and records spans into `spans`; returns
// the worker threads it used.
int run_table1(const Args& args, Outcome& out, SpanRecorder& spans);
int run_vcycle(const Args& args, Outcome& out, SpanRecorder& spans);
int run_daemon_mix(const Args& args, Outcome& out, SpanRecorder& spans);

}  // namespace perfbench
