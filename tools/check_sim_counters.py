#!/usr/bin/env python3
"""Gate the deterministic simulator counters of a benchmark run.

    python3 benchmark/run.py --smoke --out benchmark_smoke.json
    python3 tools/check_sim_counters.py benchmark_smoke.json \\
        .github/sim_counters.json

Reads the --out file of benchmark/run.py and, for every sim-* workload,
compares the integer per-layer counters (simulated cycles, engine ticks
and wakes, PE/MOMS/DRAM counts, edge-section bytes and every stall.*
attribution) exactly against the baseline. They are pure functions of
the code and the seed, so any difference is a behaviour change. Wall
clock and float ratios depend on the host: they are printed, not gated.
Exits 1 on any difference.

--record writes the run's counters as the new baseline instead.
"""

import argparse
import json
import sys

GATED = [
    "sim.cycles",
    "engine.ticks_executed",
    "engine.wakes",
    "engine.cycles_skipped",
    "pe.edges_processed",
    "pe.raw_stalls",
    "moms.requests",
    "moms.secondary_misses",
    "moms.lines_from_mem",
    "mem.dram_bytes_read",
    "mem.dram_bytes_written",
    "graph.edge_section_bytes",
]


def gated(name):
    return name in GATED or name.startswith("stall.")


def counters(run):
    """{workload: {metric: value}} for the sim-* workloads of a run."""
    out = {}
    for workload, record in sorted(run["workloads"].items()):
        if not workload.startswith("sim-"):
            continue
        metrics = record["metrics"]
        out[workload] = {n: m["value"] for n, m in sorted(metrics.items())
                         if gated(n)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("run", help="benchmark/run.py --out file")
    ap.add_argument("baseline", help="committed counter baseline")
    ap.add_argument("--record", action="store_true",
                    help="overwrite the baseline with this run's counters")
    args = ap.parse_args()

    with open(args.run) as f:
        run = json.load(f)
    got = counters(run)
    if args.record:
        with open(args.baseline, "w") as f:
            json.dump({"seed": run["seed"], "smoke": run["smoke"],
                       "workloads": got}, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded %d workloads to %s" % (len(got), args.baseline))
        return 0

    with open(args.baseline) as f:
        base = json.load(f)
    diffs = []
    if (run["seed"], run["smoke"]) != (base["seed"], base["smoke"]):
        diffs.append("run is seed %s smoke %s, baseline seed %s smoke %s"
                     % (run["seed"], run["smoke"], base["seed"],
                        base["smoke"]))
    for workload in sorted(set(got) | set(base["workloads"])):
        want = base["workloads"].get(workload)
        have = got.get(workload)
        if want is None or have is None:
            diffs.append("%s: only in the %s" % (
                workload, "run" if want is None else "baseline"))
            continue
        for name in sorted(set(want) | set(have)):
            if want.get(name) != have.get(name):
                diffs.append("%s %s: baseline %s, run %s" % (
                    workload, name, want.get(name), have.get(name)))
        ungated = run["workloads"][workload]["metrics"]
        for name, m in sorted(ungated.items()):
            if not gated(name) and m["value"]:
                print("  %-24s %-28s %.6g %s (not gated)" % (
                    workload, name, m["value"], m["unit"]))
    for d in diffs:
        print("COUNTER DIFFERS: " + d)
    if diffs:
        return 1
    print("deterministic counters match on %d workloads" % len(got))
    return 0


if __name__ == "__main__":
    sys.exit(main())
