#!/usr/bin/env python3
"""Build and run the gmoms benchmark (see benchmark/README.md).

One workload, as a regression harness calls it:

    python3 benchmark/run.py --workload sim-ddr4-pagerank --seed 1 \
        --seconds 10 --trace 0

prints every metric by name and unit, then, as the last stdout line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1.

Every workload, each in its own process, with all metrics kept:

    python3 benchmark/run.py --seed 1 --out results.json [--trace-dir DIR]

--trace-dir writes one Chrome trace per workload (open in Perfetto).
--smoke runs the same code paths on the smallest inputs.

The script builds the benchmark (a CMake project that pulls in the
library from the parent directory) into .bench_build/ with every
GMOMS_* variable cleared, and writes nothing but that build tree,
--out and --trace-dir. It exits non-zero when a build step, a
correctness check or a metric-name check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOAD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment without GMOMS_* knobs, for the benchmark and the
    server it spawns: every run measures the library defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GMOMS_")}


def build(env):
    """Configure and build (both no-ops when up to date); returns (bench
    binary, server binary)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "gmoms_bench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            sys.exit(2)
    return (os.path.join(BUILD, "gmoms_bench"),
            os.path.join(BUILD, "gmoms", "tools", "gmoms_serve"))


def git_revision():
    """HEAD, with "-dirty" when the tree differs from it; "unknown"
    outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip()
    return (head or "unknown") + ("-dirty" if dirty else "")


def run_workload(name, args, binaries, env, traced):
    bench, server = binaries
    cmd = [bench, "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "1" if traced else "0",
           "--server", server]
    if args.trace_dir:
        cmd += ["--trace-file", os.path.join(args.trace_dir, name + ".json")]
    if args.smoke:
        cmd.append("--smoke")
    log("== %s (seed %d)" % (name, args.seed))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (name, WORKLOAD_TIMEOUT_S))
        return None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s printed no result (exit %d)" % (name, done.returncode))
        return None


def name_problems(record, spec):
    """Every listed metric must be emitted with its unit; nothing else
    may be."""
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if record.get("traced"):
        listed.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = record["metrics"]
    problems = []
    for name, unit in listed.items():
        if name not in emitted:
            problems.append("metric %s not emitted" % name)
        elif emitted[name]["unit"] != unit:
            problems.append("metric %s in %s, not %s"
                            % (name, emitted[name]["unit"], unit))
        elif emitted[name]["value"] is None:
            problems.append("metric %s is not a number" % name)
    for name in emitted:
        if name not in known:
            problems.append("metric %s is not listed" % name)
    return problems


def check(record, spec):
    """Fold the name check into the record; True when the run passed."""
    if record is None:
        return False
    problems = name_problems(record, spec)
    if problems:
        record["correct"] = False
        record["problems"] = record.get("problems", []) + problems
        for p in problems:
            log("CHECK FAILED: " + p)
    return record["correct"] and record["failed"] == 0


def print_metrics(record, names):
    for name in names:
        m = record["metrics"].get(name)
        if m is not None:
            print("%-28s %-44s %.6g %s" % (record["workload"], name,
                                            m["value"], m["unit"]))


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads,
                    help="one workload; default: all, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1: add the traced pass and report per-layer metrics")
    ap.add_argument("--trace-dir", help="write <workload>.json Chrome traces")
    ap.add_argument("--out", help="write the full results of every workload")
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs through the same code paths")
    args = ap.parse_args()
    if args.smoke:
        args.seconds = 0.5
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)

    env = clean_env()
    binaries = build(env)

    if args.workload:
        traced = args.trace == 1 or bool(args.trace_dir)
        record = run_workload(args.workload, args, binaries, env, traced)
        ok = check(record, spec)
        if record is None:
            sys.exit(1)
        names = per_layer if args.trace == 1 else e2e
        print_metrics(record, names)
        print(json.dumps({
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {n: record["metrics"][n] for n in names
                        if n in record["metrics"]},
        }))
        sys.exit(0 if ok else 1)

    # Every workload, traced unless --trace 0: one record each with the
    # end-to-end metrics of its untraced window and the per-layer ones.
    traced = args.trace != 0
    results = {
        "benchmark": "gmoms",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_revision": git_revision(),
        "workloads": {},
    }
    ok = True
    for name in workloads:
        record = run_workload(name, args, binaries, env, traced)
        ok = check(record, spec) and ok
        if record is None:
            record = {"workload": name, "correct": False, "attempted": 0,
                      "failed": 0, "metrics": {}, "problems": ["no result"]}
        for key in ("host_cpus", "compiler", "build_type"):
            if key in record:
                results[key] = record[key]
        results["workloads"][name] = record
        print_metrics(record, e2e + (per_layer if traced else []))
        for note in record.get("notes", []):
            log("  note: " + note)
        if record.get("latency_limit_ms"):
            log("  p99 latency limit %g ms: %s"
                % (record["latency_limit_ms"],
                   "met" if record.get("latency_limit_met") else "MISSED"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
    runs = results["workloads"].values()
    print(json.dumps({
        "correct": ok,
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(int(r["failed"]) for r in runs),
        "workloads": len(workloads),
    }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
