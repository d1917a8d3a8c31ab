#!/usr/bin/env python3
"""Stopping-boundary scatter data for the American put.

Trains the bagged stopper at two initial prices (one near, one away from the
exercise region), applies it to held-out paths, and writes the scatter plus
per-step summary CSVs.  Plot boundary_summary.csv column ``mean`` against
``n`` to see the estimated exercise boundary rise toward the strike;
stop_region.csv holds the rule's exact stop intervals per step.

    python scripts/put_boundary.py --k 50000 --out-dir boundary_runs
"""

import argparse
import os
from dataclasses import replace

from treestop.cli import run_experiment
from treestop.config import ExperimentConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=50000)
    ap.add_argument("--out-dir", default="boundary_runs")
    args = ap.parse_args()

    base = ExperimentConfig(kind="put", x0=85.0, mu=0.05, rate=0.05,
                            strike=100.0, sigma=0.2, maturity=1.0, steps=50,
                            k_train=args.k, k_test=args.k,
                            with_ls=True, with_boundary=True)
    for x0 in (85.0, 110.0):
        cfg = replace(base, x0=x0, out=os.path.join(args.out_dir, f"x{int(x0)}"))
        reports = run_experiment(cfg)
        print(f"x0={x0}: v_test={reports['v_test'].value:.3f} "
              f"(se {reports['v_test'].se:.3f}) -> {cfg.out}/")


if __name__ == "__main__":
    main()
