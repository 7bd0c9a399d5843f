#!/usr/bin/env python3
"""Estimate size and power curves for all four alternative scenarios.

For each scenario the three tests are evaluated with calibrated critical
values and with the closed-form ones (Bonferroni for the max statistics,
chi-square for the likelihood ratio), giving six curves per scenario; one
CSV per scenario/source pair is written, ready for any plotting tool.

Usage:
    python scripts/run_power_curves.py --out-dir power_out \
        --p 10 --T 100 --K 5 --reps 1000
"""

import argparse
import os

import numpy as np

from factorlens import FactorModelSpec, calibrate_many, run_power_study
from factorlens.powersim import ScenarioConfig
from factorlens.report import resolve_criticals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="power_curves")
    parser.add_argument("--p", type=int, default=10)
    parser.add_argument("--T", type=int, default=100)
    parser.add_argument("--K", type=int, default=5)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--calibration-reps", type=int, default=100_000)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    rho_grid = [round(x, 2) for x in np.arange(-0.5, 0.501, 0.05)]
    ktilde_grid = list(range(1, 11))

    tables = calibrate_many(
        ("T_el", "T_pr", "T_LR"),
        args.p,
        args.T,
        args.K,
        alphas=(args.alpha,),
        reps=args.calibration_reps,
        master_seed=args.seed,
    )
    model = FactorModelSpec(p=args.p, K=args.K, T=args.T)
    criticals = {
        "calibrated": resolve_criticals("calibrated", model, args.alpha, tables=tables),
        "closed_form": resolve_criticals("closed-form", model, args.alpha),
    }
    for scenario, grid in (
        ("s1", rho_grid),
        ("s2", rho_grid),
        ("s3", rho_grid),
        ("s4", ktilde_grid),
    ):
        cfg = ScenarioConfig(
            scenario=scenario,
            p=args.p,
            K=args.K,
            T=args.T,
            reps=args.reps,
            master_seed=args.seed,
            alpha=args.alpha,
        )
        for tag, resolved in criticals.items():
            curve = run_power_study(cfg, grid, resolved)
            path = os.path.join(args.out_dir, f"{scenario}_{tag}.csv")
            curve.to_csv(path)
            print(f"{scenario} [{tag}]: wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
