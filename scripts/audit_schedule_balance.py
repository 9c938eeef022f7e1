#!/usr/bin/env python3
"""Audit well-balanced schedule construction with the exact oracle.

Builds schedules repeatedly on an enumerable model, maps every schedule
point through ln Z, and reports how often the largest z-gap stays under
the eta target, plus the gap distribution summary.  Mixed-sign and
non-integer models are walked shifted, as the pipeline walks them, and
their z-gaps are measured on the shifted model that eta targets.

Usage: python3 scripts/audit_schedule_balance.py [--model cycle-4] [--beta 1.0]
       [--trials 200] [--seed 0]
"""

import argparse
import math

import numpy as np

from gibbs_partition import (
    exact_oracle,
    initial_estimate,
    log_partition_exact,
    prepare,
    select_params,
    stage_stream,
    well_balanced_schedule,
)
from gibbs_partition.cli import build_model


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", default="cycle-4")
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if not 0 < args.beta < math.inf:
        parser.error("--beta must be positive and finite")

    model = build_model(args.model)
    balanced = 0
    max_gaps = []
    lengths = []
    eta = None
    for trial in range(args.trials):
        work, regime, _ = prepare(exact_oracle(model), args.beta)
        rng = stage_stream(args.seed, "schedule-audit", trial)
        q_hat, _ = initial_estimate(work, args.beta, rng)
        params = select_params(q_hat, model.n_bound, regime, args.beta)
        sched, _ = well_balanced_schedule(work, args.beta, params, rng)
        zs = [log_partition_exact(work.model, b) for b in sched.betas]
        gap = float(np.max(np.abs(np.diff(zs))))
        max_gaps.append(gap)
        lengths.append(len(sched.betas))
        eta = params.eta
        if gap <= eta:
            balanced += 1

    print(f"model {args.model}  beta {args.beta}  regime {regime}")
    print(f"eta target          {eta:.4f}")
    print(f"balanced schedules  {balanced}/{args.trials}")
    print(f"max z-gap           mean {np.mean(max_gaps):.4f}  worst {np.max(max_gaps):.4f}")
    print(f"schedule points     mean {np.mean(lengths):.1f}")


if __name__ == "__main__":
    main()
