#!/usr/bin/env python3
"""Self-test of the perfbench program on tiny inputs.

Run through `python3 perfbench/run.py --self-test` (which builds first),
or directly once perfbench/build/perfbench exists. It checks that:

  * every workload prints every metric BENCHMARK.json names, with its
    unit, in its table and in the last-line JSON object, for --trace 0
    (end-to-end) and --trace 1 (per-layer), and untraced runs also print
    the certified quality and failed_ratio;
  * every output carries the environment fingerprint;
  * a traced run writes a Chrome trace-event file that parses;
  * the correctness gate fires: one flipped label makes certification
    fail, the run reports correct=false with failed > 0, and exits 1;
  * the inputs are a pure function of --seed: the same seed gives the
    same input hash, a different seed a different one.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(HERE, "build", "perfbench")
FINGERPRINT_KEYS = ("cpu_model", "nproc", "cpus_allowed", "kernel_tier",
                    "sfqpart_kernels", "build_type", "compiler", "threads",
                    "source_id", "input_hash")

# Printed by untraced runs beside the end-to-end metrics, not bounded.
QUALITY = (("cost", "1"), ("icomp_pct", "%"), ("afs_pct", "%"))

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL " + message)
    return condition


def run(workload, *flags):
    command = [BINARY, "--workload", workload, "--tiny"] + list(flags)
    return subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)


def check_run(workload, trace, specs):
    out_path = os.path.join(HERE, "out", "selftest-%s.json" % workload)
    proc = run(workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--trace-out", out_path)
    tag = "%s --trace %d" % (workload, trace)
    if not check(proc.returncode == 0, "%s exited %d: %s" % (
            tag, proc.returncode, proc.stderr.strip()[-500:])):
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          tag + ": result keys " + str(sorted(result)))
    check(result["correct"] is True and result["failed"] == 0,
          tag + ": not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          tag + ": attempted " + str(result["attempted"]))
    check(list(result["metrics"]) == [s["name"] for s in specs],
          tag + ": metric names differ from BENCHMARK.json")
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            table[parts[1]] = parts[3]
    for spec in specs:
        name = spec["name"]
        metric = result["metrics"].get(name, {})
        check(metric.get("unit") == spec["unit"],
              "%s: %s unit %r, expected %r" % (tag, name, metric.get("unit"), spec["unit"]))
        value = metric.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              "%s: %s value %r" % (tag, name, value))
        check(table.get(name) == spec["unit"],
              "%s: table line for %s missing or without its unit" % (tag, name))
    check(table.get("failed_ratio") == "1", tag + ": no failed_ratio line")
    if not trace:
        for name, unit in QUALITY:
            check(table.get(name) == unit, "%s: no %s line in %s" % (tag, name, unit))
    prints = [json.loads(line)["fingerprint"] for line in lines
              if line.startswith('{"fingerprint"')]
    if check(len(prints) == 1, tag + ": no fingerprint line"):
        missing = [k for k in FINGERPRINT_KEYS if k not in prints[0]]
        check(not missing, tag + ": fingerprint lacks " + ", ".join(missing))
    if trace:
        with open(out_path) as handle:
            doc = json.load(handle)
        events = doc.get("traceEvents", [])
        check(len(events) > 0, tag + ": empty trace")
        check(all(e.get("ph") == "X" and e.get("dur", -1) >= 0 and "ts" in e
                  for e in events), tag + ": malformed trace event")
        check("kernel_tier" in doc.get("otherData", {}),
              tag + ": trace lacks the fingerprint")
        os.remove(out_path)


def check_tamper(workload):
    proc = run(workload, "--seed", "3", "--seconds", "1", "--trace", "0",
               "--tamper")
    tag = workload + " --tamper"
    check(proc.returncode == 1, "%s exited %d, expected 1" % (tag, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    check(result.get("correct") is False, tag + ": reported correct")
    check(result.get("failed", 0) >= 1, tag + ": failed is 0")
    check(any(line.startswith("FAIL") and "certify" in line for line in lines),
          tag + ": no certify failure printed")
    ratio = [line.split()[2] for line in lines
             if line.split()[:2] == [workload, "failed_ratio"]]
    check(ratio and float(ratio[0]) > 0.0, tag + ": failed_ratio not > 0")


def input_hash(workload, seed):
    proc = run(workload, "--seed", str(seed), "--input-hash")
    check(proc.returncode == 0, "%s --input-hash exited %d" % (workload, proc.returncode))
    return proc.stdout.strip()


def main():
    if not os.path.isfile(BINARY):
        print("selftest: %s not built; run python3 perfbench/run.py --self-test"
              % BINARY)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        print("selftest: " + workload, flush=True)
        check_run(workload, 0, bench["end_to_end"])
        check_run(workload, 1, bench["per_layer"])
        first, again, other = (input_hash(workload, 7), input_hash(workload, 7),
                               input_hash(workload, 8))
        check(first and first == again,
              "%s: seed 7 gave input hashes %s and %s" % (workload, first, again))
        check(first != other, "%s: seeds 7 and 8 gave the same input hash" % workload)
    for workload in ("table1", "vcycle_1m"):
        check_tamper(workload)
    print("selftest: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
