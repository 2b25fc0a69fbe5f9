#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

The seed defaults to 1 and the run length to BENCHMARK.json's
run_seconds.

Run from the repository root. The first run configures and builds
perfbench/ (and the simulator sources under src/) into .bench_build/;
later runs rebuild incrementally. The workload runs in its own
process, checks its outputs, and prints a table of every metric with
median, quartiles and sample count, then one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and a trace_event JSON file of
the run's spans is written under .bench_build/traces/. The exit status
is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def git_sha(root):
    """HEAD's commit from .git in the checkout, without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(root, bench_dir):
    build_dir = os.path.join(root, BUILD_DIR, "cmake")
    log_path = os.path.join(root, BUILD_DIR, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "olight_perfbench", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "olight_perfbench")


def summarize(values):
    """Median, first and third quartile (statistics.quantiles), n."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("run from the repository root (no BENCHMARK.json here)")
    if not os.path.exists(os.path.join(bench_dir, "..", "src",
                                       "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        fail("--seconds must be positive")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have: %s)" %
             (args.workload, ", ".join(names)))
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build(root, bench_dir)

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    results_dir = os.path.join(root, BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(results_dir, tag + ".json")
    scratch = os.path.join(root, BUILD_DIR, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_path, "--scratch", scratch]
    if args.trace:
        traces_dir = os.path.join(root, BUILD_DIR, "traces")
        os.makedirs(traces_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces_dir, tag + ".json")]
    if os.path.exists(out_path):
        os.remove(out_path)
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" %
             (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if rc not in (0, 1) or not os.path.exists(out_path):
        fail("workload %s exited with status %d" % (args.workload, rc))
    with open(out_path) as f:
        result = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    correct = rc == 0 and result["failed"] == 0 and not missing

    notes = result["notes"]
    notes["git_sha"] = git_sha(root)
    notes["run_seconds"] = repr(args.seconds)
    print("workload %s  seed %d  trace %d  git %s  hardware threads %s" %
          (args.workload, args.seed, args.trace, notes["git_sha"],
           notes.get("hardware_concurrency", "?")))
    for key in sorted(notes):
        if key not in ("workload", "seed", "git_sha",
                       "hardware_concurrency"):
            print("  %s: %s" % (key, notes[key]))
    print("%-26s %14s %14s %14s %6s %-6s %-6s %s" %
          ("metric", "median", "q1", "q3", "n", "unit", "better",
           "bound"))
    summary = {}
    for m in wanted:
        if m["name"] not in measured:
            continue
        values = measured[m["name"]]["values"]
        med, q1, q3, n = summarize(values)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": n,
                              "unit": m["unit"],
                              "better": m.get("better"),
                              "bound": m.get("bound")}
        print("%-26s %14.6g %14.6g %14.6g %6d %-6s %-6s %s" %
              (m["name"], med, q1, q3, n, m["unit"],
               m.get("better", ""), m.get("bound", "")))
    if not args.trace and "latency_samples" in notes:
        samples = int(notes["latency_samples"])
        beyond = samples // 100
        print("  latency_p99_ms: %d samples, %d beyond p99 (%s)" %
              (samples, beyond,
               "supported" if beyond >= 10 else "fewer than 10: "
               "read as the slowest samples, not a percentile"))
    if args.trace:
        layers = sorted(k for k in measured if k.startswith("self."))
        if layers:
            print("span self time (s, summed over the traced run):")
            for k in layers:
                print("  %-40s %12.6f" % (k[5:], measured[k]["values"][0]))
    print("checks: %d attempted, %d failed" %
          (result["attempted"], result["failed"]))
    for why in result["failures"]:
        print("  FAILED: " + why)
    for name in missing:
        print("  MISSING METRIC: " + name)

    with open(os.path.join(results_dir, tag + ".summary.json"), "w") as f:
        json.dump({"notes": notes, "metrics": summary,
                   "attempted": result["attempted"],
                   "failed": result["failed"]}, f, indent=1)

    line = {"correct": correct,
            "attempted": max(1, int(result["attempted"])),
            "failed": int(result["failed"]) + len(missing),
            "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                        for name, s in summary.items()}}
    print(json.dumps(line))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
