#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py BASE.jsonl CHANGE.jsonl

Each file holds JSON lines written by `run.py --record` (untraced runs;
traced records are skipped). For every workload and end-to-end metric
it prints each side's median and quartiles (statistics.quantiles, n=4)
and a verdict against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the bound;
  better      the change beats the base in nine tenths of paired runs
              and the medians differ by more than the base's own
              quartile spread;
  unresolved  a side's quartile spread, as a share of its median, is
              wider than the bound, so the runs cannot tell (unless every
              change run beats, or loses to, every base run);
  unchanged   otherwise.

Runs pair up by seed where both sets ran the same seeds, else in seed
order. Simulated metrics (sim_*, latency_*) are deterministic per seed,
so for every seed both sets ran they must match exactly.

Exits non-zero when any verdict is worse or a simulated metric differs.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def simulated(metric):
    return metric.startswith("sim_") or metric.startswith("latency_")


def load(path):
    """workload -> seed -> metric -> value (untraced runs only)."""
    runs = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace", 0):
            continue
        metrics = rec["result"]["metrics"]
        runs[rec["workload"]][rec["seed"]] = {
            k: v["value"] for k, v in metrics.items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def paired(base, change):
    """(base, change) value pairs: by seed when both sets ran the same
    seeds, else in seed order."""
    if set(base) == set(change):
        return [(base[s], change[s]) for s in sorted(base)]
    return list(zip((base[s] for s in sorted(base)),
                    (change[s] for s in sorted(change))))


def verdict(spec, base, change):
    """base, change: seed -> value of one metric."""
    a, b = list(base.values()), list(change.values())
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    bound = spec["bound"]
    spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if spread_a > bound or spread_b > bound:
        if all(sign * y < sign * x for x in a for y in b):
            v = "better"
        elif all(sign * y > sign * x for x in a for y in b):
            v = "worse"
        else:
            v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        pairs = paired(base, change)
        wins = sum(1 for x, y in pairs if sign * y < sign * x)
        if (wins >= 0.9 * len(pairs)
                and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
            v = "better"
        else:
            v = "unchanged"
    return qa, qb, spread_a, spread_b, worse_by, v


def summary(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()

    spec = {m["name"]: m for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base, change = load(args.base), load(args.change)
    bad = False
    print(f"{'workload':<10} {'metric':<16} {'base median [q1, q3]':<36}"
          f"{'change median [q1, q3]':<36}{'spread':>13} {'worse by':>9}"
          f" {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:<10} only in one set")
            bad = True
            continue
        runs_a, runs_b = base[workload], change[workload]
        for metric, m in spec.items():
            qa, qb, sa, sb, worse_by, v = verdict(
                m, {s: r[metric] for s, r in runs_a.items()},
                {s: r[metric] for s, r in runs_b.items()})
            bad |= v == "worse"
            print(f"{workload:<10} {metric:<16} {summary(qa):<36}"
                  f"{summary(qb):<36}{100 * sa:5.1f}/{100 * sb:5.1f}%"
                  f" {100 * worse_by:+8.2f}% {100 * m['bound']:5.1f}%  {v}")
        seeds = sorted(set(runs_a) & set(runs_b))
        diffs = [(s, k) for s in seeds for k in spec if simulated(k)
                 and runs_a[s][k] != runs_b[s][k]]
        if diffs:
            bad = True
            print(f"{workload:<10} simulated metrics DIFFER: " +
                  ", ".join(f"seed {s} {k}" for s, k in diffs[:8]))
        else:
            print(f"{workload:<10} simulated metrics identical on "
                  f"{len(seeds)} common seeds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
