"""Command-line interface: test, calibrate, power, batch-test.

Outputs are written atomically (temp file + rename) with the permissions
the umask gives a new file. Exit codes: 0 on success, 1 on computational
errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from .calibrate import (
    DEFAULT_MASTER_SEED,
    STATISTICS,
    calibrate_many,
    load_tables_json,
    save_tables_json,
    tables_to_csv,
)
from .errors import FactorLensError
from .panel import ingest_csv
from .powersim import (
    CALIBRATED,
    CLOSED_FORM,
    ScenarioConfig,
    canonical_scenario,
    run_power_study,
)
from .report import REQUESTS, TESTS, batch_subset_test, calibrate_tests, run_tests
from .teststats import FactorModelSpec

_PROG = "factorlens"


def _atomic_write(path: str, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".factorlens-", suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        umask = os.umask(0)  # mkstemp made the file 0600; reading the umask sets it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _float_list(text: str) -> list[float]:
    return [float(item) for item in _csv_list(text)]


def _parse_grid(text: str, integer: bool = False) -> list:
    """Grid syntax: either 'a,b,c' or 'start:step:stop' (stop inclusive)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:step:stop")
        start, step, stop = (float(x) for x in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        values = []
        x = start
        while x <= stop + 1e-12:
            values.append(round(x, 12))
            x += step
    else:
        values = [float(x) for x in _csv_list(text)]
    if integer:
        for v in values:
            if not v.is_integer():
                raise ValueError(f"grid value {v:g} is not an integer")
        return [int(v) for v in values]
    return values


def _parsed(parser, flag: str, parse, text: str):
    """parse(text), with a malformed value reported as a usage error (exit 2)."""
    try:
        return parse(text)
    except ValueError as exc:
        parser.error(f"argument {flag}: {exc}")


def _add_panel_arguments(command) -> None:
    """The flags test and batch-test share: the panel and its critical values."""
    command.add_argument("--input", required=True, help="CSV file with header row")
    command.add_argument("--assets", required=True, help="comma-separated asset columns")
    command.add_argument("--factors", default="", help="comma-separated factor columns")
    command.add_argument("--demean", action="store_true", help="subtract column means")
    command.add_argument("--alpha", type=float, default=0.05)
    command.add_argument("--criticals", choices=REQUESTS, default="auto")
    command.add_argument("--reps", type=int, default=100_000, help="calibration replicates")
    command.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)


def _ingest(args):
    return ingest_csv(
        args.input, _csv_list(args.assets), _csv_list(args.factors), demean=args.demean
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and never modified after.

    An argparse parser is a graph of reference cycles (about 350 objects),
    so a parser built per call to main stays in memory until a full garbage
    collection; a process running many commands grew by about 2 MB.
    """
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description=(
            "Tests whether a set of observed factors explains all linear "
            "dependence among response series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run the three global tests on a CSV panel")
    _add_panel_arguments(test)
    test.add_argument(
        "--table",
        action="append",
        default=[],
        help="table JSON (repeatable); p-values need calibrate --keep-null-sample",
    )
    test.add_argument("--out", required=True, help="output report JSON")

    cal = sub.add_parser("calibrate", help="Monte-Carlo critical values")
    cal.add_argument("--p", type=int, required=True)
    cal.add_argument("--T", type=int, required=True)
    cal.add_argument("--K", type=int, required=True)
    cal.add_argument("--demeaned", action="store_true")
    cal.add_argument("--alphas", default="0.1,0.05,0.01,0.005")
    cal.add_argument("--reps", type=int, default=100_000)
    cal.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    cal.add_argument(
        "--statistics",
        default="T_el,T_pr,T_LR",
        help=f"comma-separated subset of {','.join(STATISTICS)}",
    )
    cal.add_argument(
        "--keep-null-sample", action="store_true", help="test --table needs it for p-values"
    )
    cal.add_argument("--out", required=True, help="output table JSON")
    cal.add_argument("--csv", default=None, help="optional flat CSV export")

    power = sub.add_parser("power", help="empirical size/power over a grid")
    power.add_argument("--scenario", required=True, choices=["s1", "s2", "s3", "s4"])
    power.add_argument("--p", type=int, required=True)
    power.add_argument("--T", type=int, required=True)
    power.add_argument("--K", type=int, required=True)
    power.add_argument("--rho-grid", default=None, help="a,b,c or start:step:stop")
    power.add_argument("--ktilde-grid", default=None, help="a,b,c or start:step:stop")
    power.add_argument("--reps", type=int, default=1000)
    power.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    power.add_argument("--alpha", type=float, default=0.05)
    power.add_argument(
        "--criticals", choices=["calibrated", "closed-form"], default="calibrated"
    )
    power.add_argument("--calibration-reps", type=int, default=100_000)
    power.add_argument("--calibration-seed", type=int, default=DEFAULT_MASTER_SEED)
    power.add_argument("--out", required=True, help="output CSV")

    batch = sub.add_parser("batch-test", help="test many random asset subsets")
    _add_panel_arguments(batch)
    batch.add_argument("--subset-size", type=int, required=True)
    batch.add_argument("--num-subsets", type=int, required=True)
    batch.add_argument("--subset-seed", type=int, default=DEFAULT_MASTER_SEED)
    batch.add_argument("--out", required=True, help="output CSV")

    return parser


def _cmd_test(args) -> int:
    tables = None
    if args.table:
        tables = {}
        for path in args.table:
            for table in load_tables_json(path):
                tables[table.statistic] = table
    report = run_tests(
        _ingest(args),
        alpha=args.alpha,
        critical_source=args.criticals,
        calibration_reps=args.reps,
        calibration_seed=args.seed,
        tables=tables,
    )
    doc = report.to_json_dict()

    def write(path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    _atomic_write(args.out, write)
    for name in TESTS:
        d = report.tests[name]
        print(
            f"{name}: statistic={d.statistic_value:.6g} critical={d.critical_value:.6g} "
            f"p={d.p_value:.6g} reject={d.reject}"
        )
    return 0


def _cmd_calibrate(args, parser) -> int:
    statistics = _csv_list(args.statistics)
    tables = calibrate_many(
        statistics,
        args.p,
        args.T,
        args.K,
        demeaned=args.demeaned,
        alphas=_parsed(parser, "--alphas", _float_list, args.alphas),
        reps=args.reps,
        master_seed=args.seed,
        keep_null_sample=args.keep_null_sample,
    )
    ordered = [tables[s] for s in statistics]
    _atomic_write(args.out, lambda path: save_tables_json(ordered, path))
    if args.csv:
        _atomic_write(args.csv, lambda path: tables_to_csv(ordered, path))
    for t in ordered:
        pairs = ", ".join(
            f"alpha={a:g}: {cv:.4f}" for a, cv in zip(t.alphas, t.critical_values)
        )
        print(f"{t.statistic}: {pairs}")
    return 0


def _cmd_power(args, parser) -> int:
    scenario = canonical_scenario(args.scenario)
    if scenario == "s4_extra_factors":
        if args.rho_grid is not None or args.ktilde_grid is None:
            parser.error("scenario s4 takes --ktilde-grid and no --rho-grid")
        grid = _parsed(parser, "--ktilde-grid", lambda text: _parse_grid(text, integer=True),
                       args.ktilde_grid)
    else:
        if args.ktilde_grid is not None or args.rho_grid is None:
            parser.error(f"scenario {args.scenario} takes --rho-grid and no --ktilde-grid")
        grid = _parsed(parser, "--rho-grid", _parse_grid, args.rho_grid)
    cfg = ScenarioConfig(
        scenario=scenario,
        p=args.p,
        K=args.K,
        T=args.T,
        reps=args.reps,
        master_seed=args.seed,
        alpha=args.alpha,
    )
    tables = None
    source = CALIBRATED if args.criticals == "calibrated" else CLOSED_FORM
    if source == CALIBRATED:
        model = FactorModelSpec(p=cfg.p, K=cfg.K, T=cfg.T)
        tables = calibrate_tests(model, cfg.alpha, args.calibration_reps, args.calibration_seed)
    curve = run_power_study(cfg, grid, critical_source=source, tables=tables)
    _atomic_write(args.out, curve.to_csv)
    for test in TESTS:
        rates = " ".join(f"{r:.3f}" for r in curve.rates[test])
        print(f"{test}: {rates}")
    return 0


def _cmd_batch(args) -> int:
    summary = batch_subset_test(
        _ingest(args),
        args.subset_size,
        args.num_subsets,
        alpha=args.alpha,
        critical_source=args.criticals,
        calibration_reps=args.reps,
        calibration_seed=args.seed,
        subset_seed=args.subset_seed,
    )
    _atomic_write(args.out, summary.to_csv)
    for test in TESTS:
        q = summary.quantiles[test]
        print(
            f"{test}: min={q['min']:.4f} q1={q['q1']:.4f} median={q['median']:.4f} "
            f"q3={q['q3']:.4f} max={q['max']:.4f}"
        )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args, parser)
        if args.command == "power":
            return _cmd_power(args, parser)
        if args.command == "batch-test":
            return _cmd_batch(args)
        parser.error(f"unknown command {args.command!r}")
    except FactorLensError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
