"""Per-model table from traced records written by ``run.py --trace 1 --out``.

    python3 perfbench/table.py RECORDS.jsonl

One row per (workload, model): seconds and oracle draws per estimate, as a
user's run_experiment call paid them, and the schedule and replicate stages
that make them up. Means over every traced estimate in the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from measure import mean

COLUMNS = (
    ("s/estimate", "cli.estimate_s", "{:.3g}"),
    ("draws/estimate", "draws_total", "{:,.0f}"),
    ("schedule s", "schedule.build_s", "{:.3g}"),
    ("schedule draws", "schedule.build_draws", "{:,.0f}"),
    ("replicates s", "estimators.replicates_s", "{:.3g}"),
    ("replicate draws", "estimators.replicates_draws", "{:,.0f}"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records")
    args = parser.parse_args(argv)
    rows = defaultdict(list)
    with open(args.records) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 1:
                for e in record["estimates"]:
                    rows[(record["workload"], e["case"])].append(e)
    print("| workload | model | estimates | " + " | ".join(c[0] for c in COLUMNS) + " |")
    print("| --- " * (3 + len(COLUMNS)) + "|")
    for (workload, case), estimates in rows.items():
        cells = [fmt.format(mean(e[key] for e in estimates)) for _, key, fmt in COLUMNS]
        print(f"| {workload} | {case} | {len(estimates)} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
