#include "harness.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "core/problem_view.h"
#include "core/simd/dispatch.h"
#include "obs/run_report.h"
#include "util/hash.h"

namespace perfbench {

using sfqpart::Json;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                    (index + 1) * 0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return (z & 0x7fffffffull) + 1;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double tracing_overhead_pct(const std::vector<double>& traced_ms,
                            const std::vector<double>& untraced_ms) {
  const double untraced = quantile(untraced_ms, 0.5);
  return untraced > 0.0 ? 100.0 * (quantile(traced_ms, 0.5) / untraced - 1.0)
                        : 0.0;
}

std::uint64_t hash_labels(const sfqpart::Partition& partition) {
  sfqpart::Fnv1a64 h;
  h.update(&partition.num_planes, sizeof(partition.num_planes));
  h.update(partition.plane_of.data(), partition.plane_of.size() * sizeof(int));
  return h.digest();
}

std::uint64_t hash_netlist(const sfqpart::Netlist& netlist) {
  sfqpart::Fnv1a64 h;
  h.update(netlist.name());
  for (sfqpart::GateId g = 0; g < netlist.num_gates(); ++g) {
    const int cell = netlist.gate(g).cell;
    h.update(&cell, sizeof(cell));
  }
  for (const sfqpart::Connection& c : netlist.connections()) {
    h.update(&c.from, sizeof(c.from));
    h.update(&c.to, sizeof(c.to));
  }
  return h.digest();
}

double partitionable_bias(const sfqpart::Netlist& netlist) {
  double total = 0.0;
  for (sfqpart::GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) total += netlist.bias_of(g);
  }
  return total;
}

double partitionable_area(const sfqpart::Netlist& netlist) {
  double total = 0.0;
  for (sfqpart::GateId g = 0; g < netlist.num_gates(); ++g) {
    if (netlist.is_partitionable(g)) total += netlist.area_of(g);
  }
  return total;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},     {"op_p50_ms", "ms"},    {"op_p90_ms", "ms"},
      {"ops_per_s", "1/s"}, {"gates_per_s", "1/s"}, {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& quality_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"cost", "1"}, {"icomp_pct", "%"}, {"afs_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"gen.build_ms", "ms"},
      {"sfq.map_ms", "ms"},
      {"core.problem_ms", "ms"},
      {"core.certify_ms", "ms"},
      {"core.gradient_ms", "ms"},
      {"core.step_ms", "ms"},
      {"core.iterations", "count"},
      {"core.eval_grad_per_s", "1/s"},
      {"core.kernel_tier", "tier"},
      {"core.coarsen_ms", "ms"},
      {"core.levels", "count"},
      {"core.coarse_vertices", "count"},
      {"core.last_shrink", "1"},
      {"core.coarse_solve_ms", "ms"},
      {"core.coarse_iterations", "count"},
      {"core.refine_ms", "ms"},
      {"core.refine_last_level_ms", "ms"},
      {"core.refine_moves", "count"},
      {"core.unattributed_ms", "ms"},
      {"service.engine.gradient.p50_ms", "ms"},
      {"service.engine.multilevel.p50_ms", "ms"},
      {"service.engine.vcycle_banded.p50_ms", "ms"},
      {"service.engine.vcycle_buckets.p50_ms", "ms"},
      {"service.engine.annealing.p50_ms", "ms"},
      {"service.engine.fm_kway.p50_ms", "ms"},
      {"service.hit_p50_ms", "ms"},
      {"service.miss_p50_ms", "ms"},
      {"service.hit_ratio", "1"},
      {"service.coalesced", "count"},
      {"service.engine_runs", "count"},
      {"service.useful_ratio", "1"},
      {"service.rejected", "count"},
      {"obs.report_ms", "ms"},
      {"obs.tracing_overhead_pct", "%"},
  };
  return specs;
}

void Outcome::fail(const std::string& what) {
  ++failed_;
  // Every failure is counted; the first few are also printed in full.
  if (failed_ <= 20) std::printf("FAIL %s\n", what.c_str());
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int SpanRecorder::open(std::string name, long long op, int parent, int tid) {
  if (!enabled_) return -1;
  const double start = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), op, parent, tid, start, -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) {
  if (!enabled_ || id < 0) return;
  const double end = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur_us = end - span.start_us;
}

int SpanRecorder::add(std::string name, long long op, int parent, int tid,
                      double start_us, double dur_us) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), op, parent, tid, start_us, dur_us});
  return static_cast<int>(spans_.size() - 1);
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanRecorder::write_chrome(const std::string& path,
                                const Json& fingerprint) const {
  Json events = Json::array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.dur_us < 0.0) continue;  // never closed: not a span
      events.append(
          Json::object()
              .set("name", Json::string(span.name))
              .set("cat", Json::string("perfbench"))
              .set("ph", Json::string("X"))
              .set("ts", Json::number(span.start_us))
              .set("dur", Json::number(span.dur_us))
              .set("pid", Json::number(1LL))
              .set("tid", Json::number(static_cast<long long>(span.tid)))
              .set("args",
                   Json::object()
                       .set("op", Json::number(span.op))
                       .set("span", Json::number(static_cast<long long>(i)))
                       .set("parent", Json::number(
                                          static_cast<long long>(span.parent)))));
    }
  }
  const Json doc = Json::object()
                       .set("traceEvents", std::move(events))
                       .set("displayTimeUnit", Json::string("ms"))
                       .set("otherData", fingerprint);
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << doc.dump(0) << '\n';
  return static_cast<bool>(out);
}

void SpanObserver::on_timer(const sfqpart::obs::TimerEvent& e) {
  const std::string name = e.name;
  if (name == "gradient" || name == "step") return;
  const double end = recorder_->now_us();
  const double dur = e.elapsed_ms * 1000.0;
  // Restart-scoped stages run on the engine's pool threads; give each
  // restart its own track so concurrent restarts do not overlap.
  const int tid = e.restart >= 0 ? tid_ * 100 + 1 + e.restart : tid_;
  recorder_->add("stage." + name, op_, parent_, tid, end - dur, dur);
}

void SpanObserver::on_level(const sfqpart::obs::LevelEvent& e) {
  const double end = recorder_->now_us();
  const std::string level = "level" + std::to_string(e.level);
  if (e.coarsen_ms > 0.0) {
    recorder_->add(level + ".coarsen", op_, parent_, tid_,
                   end - e.coarsen_ms * 1000.0, e.coarsen_ms * 1000.0);
  }
  if (e.refine_ms > 0.0) {
    recorder_->add(level + ".refine", op_, parent_, tid_,
                   end - e.refine_ms * 1000.0, e.refine_ms * 1000.0);
  }
}

namespace {

double stage_total(const Json& report, const char* stage) {
  const Json* stages = report.find("stages");
  const Json* entry = stages != nullptr ? stages->find(stage) : nullptr;
  const Json* total = entry != nullptr ? entry->find("total_ms") : nullptr;
  return total != nullptr ? total->as_number() : 0.0;
}

double counter_value(const Json& report, const char* name) {
  const Json* counters = report.find("counters");
  const Json* value = counters != nullptr ? counters->find(name) : nullptr;
  return value != nullptr ? value->as_number() : 0.0;
}

double field(const Json& object, const char* name) {
  const Json* value = object.find(name);
  return value != nullptr ? value->as_number() : 0.0;
}

}  // namespace

LayerSample LayerSample::from_report(const Json& report) {
  LayerSample s;
  s.gradient_ms = stage_total(report, "gradient");
  s.step_ms = stage_total(report, "step");
  s.iterations = counter_value(report, "optimizer_iterations");
  s.coarsen_ms = stage_total(report, "coarsen");
  s.coarse_solve_ms = stage_total(report, "coarse_solve");
  // "uncoarsen" is the V-cycle's projection + refinement sweep; "refine"
  // the gradient engine's greedy post-pass.
  s.refine_ms = stage_total(report, "uncoarsen") + stage_total(report, "refine");
  const Json* levels = report.find("levels");
  if (levels != nullptr && levels->is_array() && levels->size() > 0) {
    s.coarse_iterations = s.iterations;
    s.levels = static_cast<double>(levels->size());
    double deepest = -1.0;
    for (std::size_t i = 0; i < levels->size(); ++i) {
      const Json& level = levels->at(i);
      const double index = field(level, "level");
      s.refine_moves += field(level, "refine_moves");
      if (index == 0.0) s.refine_last_level_ms = field(level, "refine_ms");
      if (index > deepest) {
        deepest = index;
        s.coarse_vertices = field(level, "vertices");
        s.last_shrink = field(level, "ratio");
      }
    }
  }
  return s;
}

void LayerTotals::publish(Outcome& out) const {
  auto avg = [this](double LayerSample::*member) {
    std::vector<double> values;
    for (const LayerSample& s : samples) values.push_back(s.*member);
    return mean(values);
  };
  double iterations = 0.0;
  double gradient_s = 0.0;
  for (const LayerSample& s : samples) {
    iterations += s.iterations;
    gradient_s += s.gradient_ms / 1000.0;
  }
  const double problem = mean(problem_ms);
  const double certify = mean(certify_ms);
  const double coarsen = avg(&LayerSample::coarsen_ms);
  const double coarse_solve = avg(&LayerSample::coarse_solve_ms);
  const double refine = avg(&LayerSample::refine_ms);
  out.set("core.problem_ms", problem);
  out.set("core.certify_ms", certify);
  out.set("core.gradient_ms", avg(&LayerSample::gradient_ms));
  out.set("core.step_ms", avg(&LayerSample::step_ms));
  out.set("core.iterations", avg(&LayerSample::iterations));
  out.set("core.eval_grad_per_s", gradient_s > 0.0 ? iterations / gradient_s : 0.0);
  out.set("core.kernel_tier",
          static_cast<double>(sfqpart::simd::dispatch_info().active));
  out.set("core.coarsen_ms", coarsen);
  out.set("core.levels", avg(&LayerSample::levels));
  out.set("core.coarse_vertices", avg(&LayerSample::coarse_vertices));
  out.set("core.last_shrink", avg(&LayerSample::last_shrink));
  out.set("core.coarse_solve_ms", coarse_solve);
  out.set("core.coarse_iterations", avg(&LayerSample::coarse_iterations));
  out.set("core.refine_ms", refine);
  out.set("core.refine_last_level_ms", avg(&LayerSample::refine_last_level_ms));
  out.set("core.refine_moves", avg(&LayerSample::refine_moves));
  if (!op_ms.empty()) {
    out.set("core.unattributed_ms",
            mean(op_ms) - (problem + coarsen + coarse_solve + refine + certify));
  }
  out.set("obs.report_ms", mean(report_ms));
}

std::vector<const sfqpart::SuiteEntry*> suite_entries(bool tiny) {
  std::vector<const sfqpart::SuiteEntry*> entries;
  for (const sfqpart::SuiteEntry& entry : sfqpart::benchmark_suite()) {
    if (!tiny || entry.name == "ksa4" || entry.name == "ksa8" ||
        entry.name == "mult4") {
      entries.push_back(&entry);
    }
  }
  return entries;
}

CertifiedOp run_certified_op(const sfqpart::PartitionEngine& engine,
                             const sfqpart::Netlist& netlist,
                             sfqpart::EngineContext context,
                             const std::string& label, long long op, bool traced,
                             bool tamper, SpanRecorder& spans, LayerTotals& layers) {
  sfqpart::obs::RunReport report;
  SpanObserver span_observer(&spans);
  sfqpart::obs::MulticastObserver observers;
  int op_span = -1;
  context.observer = nullptr;
  if (traced) {
    op_span = spans.open("op " + label, op, -1, 0);
    const Clock::time_point p0 = Clock::now();
    const int problem_span = spans.open("core.problem", op, op_span, 0);
    const sfqpart::PartitionProblem problem =
        sfqpart::PartitionProblem::from_netlist(netlist, context.num_planes);
    const sfqpart::ProblemView view(problem);
    spans.close(problem_span);
    layers.problem_ms.push_back(ms_between(p0, Clock::now()));
    observers.add(&report);
    observers.add(&span_observer);
    context.observer = &observers;
  }

  CertifiedOp result;
  const Clock::time_point t0 = Clock::now();
  const int engine_span =
      spans.open(std::string("engine.run ") + engine.name(), op, op_span, 0);
  span_observer.attach(op, engine_span, 0);
  auto run = engine.run(netlist, context);
  spans.close(engine_span);
  if (!run) {
    spans.close(op_span);
    result.engine_error = run.status().message();
    return result;
  }
  const Clock::time_point t1 = Clock::now();
  const int certify_span = spans.open("core.certify", op, op_span, 0);
  if (tamper) {
    for (int& plane : run->partition.plane_of) {
      if (plane != sfqpart::kUnassignedPlane) {
        plane = (plane + 1) % context.num_planes;
        break;
      }
    }
  }
  sfqpart::CertifyExpectation expect;
  expect.terms = run->discrete_terms;
  expect.total = run->discrete_total;
  result.cert = sfqpart::certify_partition(netlist, run->partition,
                                           context.num_planes, context.weights,
                                           &expect);
  spans.close(certify_span);
  const Clock::time_point t2 = Clock::now();
  spans.close(op_span);
  result.ms = ms_between(t0, t2);
  result.run = std::move(*run);

  if (traced) {
    layers.certify_ms.push_back(ms_between(t1, t2));
    layers.op_ms.push_back(result.ms);
    const Clock::time_point r0 = Clock::now();
    const std::string dumped = report.to_json().dump(0);
    layers.report_ms.push_back(ms_between(r0, Clock::now()));
    if (auto parsed = Json::parse(dumped)) {
      layers.samples.push_back(LayerSample::from_report(*parsed));
    }
  }
  return result;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string cpus_allowed(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    ++*count;
    if (!list.empty()) list += ',';
    list += std::to_string(cpu);
  }
  return list;
}

}  // namespace

Json fingerprint(const Args& args, int threads, const Outcome& outcome) {
  int allowed = 0;
  const std::string allowed_list = cpus_allowed(&allowed);
  const char* kernels_env = std::getenv("SFQPART_KERNELS");
  Json doc = Json::object()
                 .set("workload", Json::string(args.workload))
                 .set("seed", Json::number(static_cast<long long>(args.seed)))
                 .set("seconds", Json::number(args.seconds))
                 .set("trace", Json::boolean(args.trace))
                 .set("cpu_model", Json::string(cpu_model()))
                 .set("nproc", Json::number(static_cast<long long>(
                                   sysconf(_SC_NPROCESSORS_ONLN))))
                 .set("cpus_allowed", Json::number(static_cast<long long>(allowed)))
                 .set("cpus_allowed_list", Json::string(allowed_list))
                 .set("kernel_tier",
                      Json::string(sfqpart::simd::tier_name(
                          sfqpart::simd::dispatch_info().active)))
                 .set("sfqpart_kernels",
                      Json::string(kernels_env != nullptr ? kernels_env : ""))
                 .set("build_type", Json::string(PERFBENCH_BUILD_TYPE))
                 .set("compiler", Json::string(
#if defined(__clang__)
                                      "clang " __clang_version__
#elif defined(__GNUC__)
                                      "gcc " __VERSION__
#else
                                      "unknown"
#endif
                                      ))
                 .set("threads", Json::number(static_cast<long long>(threads)))
                 .set("source_id", Json::string(args.source_id));
  for (const auto& [name, value] : outcome.notes()) doc.set(name, value);
  return doc;
}

}  // namespace perfbench
