#!/usr/bin/env python3
"""Compare benchmark result files written by `run.py --out` (stdlib only).

Repeats of one code, e.g. two seed-1 sets and a seed-2 set:

    python3 benchmark/compare.py a.json b.json c.json

checks, per workload, that the deterministic counters are identical
across files of the same seed, and that every end-to-end metric of each
file lies within the metric's BENCHMARK.json bound of the files' median.

A change against its parent:

    python3 benchmark/compare.py --base p1.json p2.json --new c1.json c2.json

compares medians: a metric is "worse" when the new median is worse than
the base median by more than its bound, and "unresolved" when either
side's spread (interquartile range over median) exceeds the bound. The
deterministic counters are listed when they changed; give both sides
the same seeds.

One row per workload. Exit code 1 when a run is missing or incorrect, a
counter differs between repeats of one seed, a repeat strays beyond a
bound, or a metric got worse.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Counters the simulator reproduces exactly for a given seed.
EXACT = ("sim_gteps", "sim.cycles", "engine.ticks_executed", "engine.wakes",
         "moms.requests", "graph.edge_section_bytes")
EXACT_PREFIXES = ("stall.",)


def exact_names(metrics):
    return sorted(n for n in metrics
                  if n in EXACT or n.startswith(EXACT_PREFIXES))


def load(path):
    with open(path) as f:
        return json.load(f)


def spread(values):
    """Interquartile range over median; 0 for fewer than two values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def worse_by(base, new, better):
    """How much worse new is than base, as a share of base (negative =
    better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def values(runs, workload, name):
    out = []
    for r in runs:
        m = r["workloads"].get(workload, {}).get("metrics", {}).get(name)
        if m is not None and m["value"] is not None:
            out.append(m["value"])
    return out


def run_status(runs, workload, cells):
    """Append the runs' status to @cells; True when a run is missing or
    incorrect. A run whose load generator fell behind (valid = false)
    is noted but kept: its latencies are still timed from due times."""
    missing = incorrect = late = 0
    for r in runs:
        rec = r["workloads"].get(workload)
        if rec is None:
            missing += 1
        elif not rec.get("correct") or rec.get("failed"):
            incorrect += 1
        elif not rec.get("valid", True):
            late += 1
    if missing or incorrect:
        cells.append("runs missing %d, incorrect %d" % (missing, incorrect))
    if late:
        cells.append("note: load generator late in %d run(s)" % late)
    return bool(missing or incorrect)


def counter_mismatches(runs, workload):
    """Deterministic counters that differ between files of one seed."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r.get("seed"), []).append(r)
    bad = set()
    for group in by_seed.values():
        first = group[0]["workloads"].get(workload, {}).get("metrics", {})
        for name in exact_names(first):
            if len(set(values(group, workload, name))) > 1:
                bad.add(name)
    return sorted(bad)


def repeat_row(runs, workload, e2e):
    cells, failed = [], False
    for m in e2e:
        vals = values(runs, workload, m["name"])
        if not vals:
            cells.append("%s=n/a" % m["name"])
            failed = True
            continue
        med = statistics.median(vals)
        dev = max(abs(v - med) / abs(med) for v in vals) if med else 0.0
        mark = ""
        if dev > m["bound"]:
            mark, failed = " DIFFERS", True
        cells.append("%s %.1f%%%s" % (m["name"], 100 * dev, mark))
    mismatch = counter_mismatches(runs, workload)
    if mismatch:
        failed = True
        cells.append("counters differ: " + ",".join(mismatch))
    else:
        cells.append("counters identical")
    failed = run_status(runs, workload, cells) or failed
    return failed, cells


def regression_row(base, new, workload, e2e):
    cells, failed = [], False
    for m in e2e:
        b = values(base, workload, m["name"])
        n = values(new, workload, m["name"])
        if not b or not n:
            cells.append("%s=n/a" % m["name"])
            failed = True
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = worse_by(mb, mn, m["better"])
        if max(spread(b), spread(n)) > m["bound"]:
            mark = " unresolved"
        elif change > m["bound"]:
            mark, failed = " WORSE", True
        else:
            mark = ""
        rel = (mn - mb) / abs(mb) if mb else 0.0
        cells.append("%s %+.1f%%%s" % (m["name"], 100 * rel, mark))
    changed = []
    for name in exact_names(base[0]["workloads"].get(workload, {})
                            .get("metrics", {})):
        if set(values(base, workload, name)) != set(values(new, workload,
                                                            name)):
            changed.append(name)
    for r in (base, new):
        mismatch = counter_mismatches(r, workload)
        if mismatch:
            failed = True
            cells.append("counters differ between repeats: " +
                         ",".join(mismatch))
    cells.append("counters changed: " + ",".join(changed) if changed
                 else "counters identical")
    failed = run_status(base + new, workload, cells) or failed
    return failed, cells


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="*", help="repeats of one code")
    ap.add_argument("--base", nargs="+", help="results of the parent")
    ap.add_argument("--new", nargs="+", help="results of the change")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    if bool(args.base) != bool(args.new) or bool(args.files) == bool(args.base):
        ap.error("give either FILE... or --base FILE... --new FILE...")
    spec = load(args.spec)
    e2e = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]

    any_failed = False
    print("relative change of each end-to-end median, new against base"
          if args.base else
          "largest deviation of a repeat from the median, per metric")
    for w in workloads:
        if args.base:
            failed, cells = regression_row([load(p) for p in args.base],
                                           [load(p) for p in args.new], w, e2e)
        else:
            failed, cells = repeat_row([load(p) for p in args.files], w, e2e)
        any_failed = any_failed or failed
        print("%-24s %-4s %s" % (w, "FAIL" if failed else "ok",
                                 " | ".join(cells)))
    sys.exit(1 if any_failed else 0)


if __name__ == "__main__":
    main()
