"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload, every reported metric's median over the runs of each
side, the change, and the base runs' quartile spread. The metrics named in
BENCHMARK.json's end_to_end get a verdict against their bound. Draw cost is reported apart from wall
time: a pure performance change leaves ``draws_per_estimate`` and
``coverage`` where they were, so a move in either is flagged as DRIFT, an
algorithm change. Estimates that both sides ran with the same seed must
agree exactly; otherwise the pooled means are compared. Exits 1 on a
regression or on drift.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

from measure import coverage, mean, median, quartile_spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def spread(values) -> float:
    return quartile_spread(values) if len(values) > 1 and median(values) else math.nan


def values(record) -> dict:
    """Every reported metric of a record, gated or not, by name."""
    return {**record["metrics"], **record["extra"]}


def compare_metrics(base, new, bounds) -> bool:
    """Print one line per metric; True when an end-to-end metric regressed."""
    regressed = False
    names = [n for n in values(base[0]) if all(n in values(r) for r in base + new)]
    for name in names:
        b = [values(r)[name]["value"] for r in base]
        n = [values(r)[name]["value"] for r in new]
        bm, nm = median(b), median(n)
        change = nm / bm - 1.0 if bm else math.nan
        verdict = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = change if better == "lower" else -change
            if worse > bound:
                verdict, regressed = "REGRESSION", True
            elif spread(b) > bound:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
        unit = values(base[0])[name]["unit"]
        print(
            f"  {name:<36} {bm:>12.6g} -> {nm:<12.6g} {unit:<6} {change:+8.2%}"
            f"  spread {spread(b):6.2%}  {verdict}"
        )
    return regressed


def draw_drift(base, new) -> bool:
    """Print the draw-cost comparison; True when draws or coverage moved."""
    b_est = [e for r in base for e in r["estimates"]]
    n_est = [e for r in new for e in r["estimates"]]
    if not b_est or not n_est:
        print("  draw cost: no estimates to compare")
        return False
    drift = False
    by_seed = {(e["case"], e["seed"]): e for e in b_est}
    shared = [(by_seed[(e["case"], e["seed"])], e) for e in n_est if (e["case"], e["seed"]) in by_seed]
    if shared:
        moved = [
            (b, n) for b, n in shared
            if (b["draws_total"], b["log_estimate"]) != (n["draws_total"], n["log_estimate"])
        ]
        print(f"  draw cost: {len(moved)} of {len(shared)} estimates with a shared seed changed output")
        drift = bool(moved)
    b_draws = mean(e["draws_total"] for e in b_est)
    n_draws = mean(e["draws_total"] for e in n_est)
    print(f"  draws_per_estimate (pooled) {b_draws:.6g} -> {n_draws:.6g}")
    if not shared:
        # No seed in common: compare against the base runs' own spread.
        noise = spread([mean(e["draws_total"] for e in r["estimates"]) for r in base if r["estimates"]])
        drift |= math.isfinite(noise) and abs(n_draws / b_draws - 1.0) > noise
    epsilon = base[0]["epsilon"]
    b_cov = coverage([e["log_estimate"] for e in b_est], [e["true_log_ratio"] for e in b_est], epsilon)
    n_cov = coverage([e["log_estimate"] for e in n_est], [e["true_log_ratio"] for e in n_est], epsilon)
    # Add-one smoothing keeps the noise above 0 when both sides read 1.0.
    pooled = (b_cov * len(b_est) + n_cov * len(n_est) + 1) / (len(b_est) + len(n_est) + 2)
    noise = 2.0 * math.sqrt(pooled * (1.0 - pooled) * (1 / len(b_est) + 1 / len(n_est)))
    print(f"  coverage (pooled)           {b_cov:.4f} -> {n_cov:.4f}  (2 s.e. {noise:.4f})")
    if abs(n_cov - b_cov) > noise:
        drift = True
    if drift:
        print("  DRIFT: draw cost or coverage changed; this is an algorithm change, not a pure perf one")
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)
    failing = False
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        print(f"{workload} trace {trace}: {len(base[key])} base runs, {len(new[key])} new runs")
        failing |= compare_metrics(base[key], new[key], bounds)
        failing |= draw_drift(base[key], new[key])
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]} trace {key[1]}: only on one side, not compared")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
