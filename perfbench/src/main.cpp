// perfbench — sfqpart's end-to-end benchmark program.
//
//   perfbench --workload table1|vcycle_1m|daemon_mix --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--source-id ID]
//             [--tiny] [--tamper] [--input-hash]
//
// Prints each metric on its own line as "<workload> <name> <value>
// <unit>" (with --trace 0 also the certified quality and failed_ratio),
// then one {"fingerprint": ...} line, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit
// code 0 when every op passed its correctness check, 1 when any failed,
// 2 on a usage error. README.md beside this file describes the workloads
// and metrics.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload table1|vcycle_1m|daemon_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--source-id ID] [--tiny] [--tamper] [--input-hash]\n",
               message);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  auto number = [&](const char* text, double& out) {
    char* end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
  };
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") { args.tiny = true; continue; }
    if (flag == "--tamper") { args.tamper = true; continue; }
    if (flag == "--input-hash") { args.input_hash_only = true; continue; }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    double parsed = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!number(value, parsed) || parsed < 0 || parsed > 9.0e15) {
        error = "bad --seed";
        return false;
      }
      args.seed = static_cast<std::uint64_t>(parsed);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!number(value, parsed) || !(parsed > 0.0) || parsed > 3600.0) {
        error = "bad --seconds";
        return false;
      }
      args.seconds = parsed;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        error = "--trace takes 0 or 1";
        return false;
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (args.workload.empty()) {
    error = "--workload is required";
    return false;
  }
  if (!args.input_hash_only && !(have_seed && have_seconds && have_trace)) {
    error = "--seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

// Shortest round-trip decimal form: every digit the measurement has.
std::string number_text(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string json_escape(const std::string& text) {
  return sfqpart::Json::string(text).dump(0);
}

int run(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) return usage(error.c_str());

  int (*workload)(const Args&, Outcome&, SpanRecorder&) = nullptr;
  if (args.workload == "table1") workload = run_table1;
  if (args.workload == "vcycle_1m") workload = run_vcycle;
  if (args.workload == "daemon_mix") workload = run_daemon_mix;
  if (workload == nullptr) return usage("unknown workload");

  Outcome out;
  SpanRecorder spans(args.trace);
  const int threads = workload(args, out, spans);
  if (args.input_hash_only) return 0;  // the workload printed the hash

  const std::vector<MetricSpec>& specs =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  const std::vector<MetricSpec> info =
      args.trace ? std::vector<MetricSpec>{} : quality_metrics();
  std::set<std::string> known;
  for (const MetricSpec& spec : specs) known.insert(spec.name);
  for (const MetricSpec& spec : info) known.insert(spec.name);
  // A metric the workload set but the table lacks is a benchmark bug;
  // so is an end-to-end metric a run without failures did not set.
  // Per-layer metrics of layers a workload never reaches read 0.
  for (const auto& [name, value] : out.values()) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s is not in the table\n",
                   name.c_str());
      return 3;
    }
  }
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = out.values().find(spec.name);
    if (it == out.values().end() && !args.trace && out.failed() == 0) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", spec.name);
      return 3;
    }
    const double value = it == out.values().end() ? 0.0 : it->second;
    std::printf("%-10s %-40s %s %s\n", args.workload.c_str(), spec.name,
                number_text(value).c_str(), spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += json_escape(spec.name) + ": {\"value\": " + number_text(value) +
               ", \"unit\": " + json_escape(spec.unit) + "}";
  }
  for (const MetricSpec& spec : info) {
    const auto it = out.values().find(spec.name);
    std::printf("%-10s %-40s %s %s\n", args.workload.c_str(), spec.name,
                number_text(it == out.values().end() ? 0.0 : it->second).c_str(),
                spec.unit);
  }
  const double failed_ratio =
      out.attempted() > 0 ? static_cast<double>(out.failed()) /
                                static_cast<double>(out.attempted())
                          : 1.0;
  std::printf("%-10s %-40s %s 1\n", args.workload.c_str(), "failed_ratio",
              number_text(failed_ratio).c_str());

  const sfqpart::Json print = fingerprint(args, threads, out);
  if (args.trace) {
    if (args.trace_out.empty()) {
      args.trace_out = "perfbench/out/trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json";
    }
    if (!spans.write_chrome(args.trace_out, print)) {
      out.fail("cannot write trace file " + args.trace_out);
    } else {
      std::printf("%-10s trace written to %s (%zu spans)\n",
                  args.workload.c_str(), args.trace_out.c_str(), spans.size());
    }
  }
  std::printf("{\"fingerprint\": %s}\n", print.dump(0).c_str());

  const bool correct = out.failed() == 0 && out.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted(), out.failed(),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
