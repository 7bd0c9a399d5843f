import csv
import io
import json
import os
import shlex
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import chdtrc, fdtrc, ndtr

from factorlens import (
    SeedSpec,
    batch_subset_test,
    calibrate_many,
    ingest_csv,
    run_tests,
)
from factorlens.calibrate import default_chunk
from factorlens.cli import MAX_GRID_POINTS, _build_parser, _parse_grid, main
from factorlens.errors import DomainError, MissingCalibration
from factorlens.panel import ReturnsPanel
from factorlens.powersim import ScenarioConfig, generate_dataset
from factorlens.asymptotics import select_regime
from factorlens.report import TESTS, resolve_criticals
from factorlens.randmat import bartlett_factor, substreams
from factorlens.teststats import FactorModelSpec, stats_from_factors


def _null_panel(p=4, K=2, T=60, seed=5, rep=0) -> ReturnsPanel:
    cfg = ScenarioConfig(scenario="s1", p=p, K=K, T=T, master_seed=seed)
    X, F = generate_dataset(cfg, 0.0, rep_index=rep)
    values = np.hstack([X.T, F.T])
    labels = tuple(f"a{i}" for i in range(p)) + tuple(f"f{k}" for k in range(K))
    return ReturnsPanel(
        labels=labels,
        times=tuple(str(t) for t in range(T)),
        values=values,
        asset_columns=tuple(range(p)),
        factor_columns=tuple(range(p, p + K)),
    )


def _alternative_panel(p=6, K=1, T=80, rho=0.5, seed=17) -> ReturnsPanel:
    cfg = ScenarioConfig(scenario="s3", p=p, K=K, T=T, master_seed=seed)
    X, F = generate_dataset(cfg, rho, rep_index=0)
    values = np.hstack([X.T, F.T])
    labels = tuple(f"a{i}" for i in range(p)) + tuple(f"f{k}" for k in range(K))
    return ReturnsPanel(
        labels=labels,
        times=tuple(str(t) for t in range(T)),
        values=values,
        asset_columns=tuple(range(p)),
        factor_columns=tuple(range(p, p + K)),
    )


@pytest.fixture(scope="module")
def shared_tables():
    return calibrate_many(
        TESTS, 4, 60, 2, alphas=(0.05,), reps=2000, master_seed=7, keep_null_sample=True
    )


def test_run_tests_calibrated_consistency(shared_tables):
    report = run_tests(
        _null_panel(), alpha=0.05, critical_source="calibrated", tables=shared_tables
    )
    for name in TESTS:
        d = report.tests[name]
        assert d.source == "calibrated"
        assert d.reject == (d.statistic_value > d.critical_value)
        assert 0.0 <= d.p_value <= 1.0
    assert report.calibration == {"master_seed": 7, "reps": 2000}
    doc = report.to_json_dict()
    assert doc["schema"] == "factorlens/1"
    assert doc["model"]["p"] == 4


def test_run_tests_auto_uses_supplied_tables_beyond_the_calibration_budget():
    # T = 1000 > 200 (p + K): without tables auto would fall back to closed-form
    p, K, T = 3, 1, 1000
    tables = calibrate_many(
        TESTS, p, T, K, alphas=(0.05,), reps=1000, master_seed=3, keep_null_sample=True
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_tests(_null_panel(p=p, K=K, T=T), tables=tables)
    assert {d.source for d in report.tests.values()} == {"calibrated"}
    assert report.calibration == {"master_seed": 3, "reps": 1000}


def test_auto_beyond_the_calibration_budget_is_closed_form_and_holds_its_size():
    # T = 2201 > 200 (p + K): auto warns and takes the exact marginals, which
    # reject at most alpha + 3 se of exact null draws there; highdim's T_pr
    # rejected about 0.14 of them at alpha = 0.05
    p, T, K, alpha, reps = 10, 2201, 0, 0.05, 4000
    model = FactorModelSpec(p=p, K=K, T=T)
    with pytest.warns(UserWarning, match="closed-form"):
        criticals = resolve_criticals("auto", model, alpha)
    assert criticals.source == "closed-form"
    n = model.t_eff - K
    kernel = stats_from_factors(
        np.stack([bartlett_factor(p, n, rng) for rng in substreams(17, 0, reps)]), model.t_eff, K
    )
    bound = alpha + 3.0 * np.sqrt(alpha * (1.0 - alpha) / reps)
    for name in TESTS:
        size = np.mean(criticals.laws[name].read(kernel) > criticals.values[name])
        assert size <= bound, (name, size)


# The size map: each source's rejection rate of exact null draws, per test,
# in both regimes and at small and large p / (T - K). closed-form T_el and
# T_pr (exact marginals under Bonferroni) claim size control at every design
# and are asserted; every other cell is printed (pytest -s), not asserted.
# calibrated is exact by construction and not drawn here.
SIZE_MAP_ALPHA, SIZE_MAP_REPS = 0.05, 4000
SIZE_MAP_SEEDS = {  # (p, T, K): master seed of the null draws
    (10, 2201, 0): 2801,
    (20, 104, 1): 2802,
    (100, 518, 1): 2803,
    (30, 45, 1): 2804,
    (100, 140, 1): 2805,
}


@pytest.mark.parametrize("p, T, K", list(SIZE_MAP_SEEDS))
def test_size_map_on_exact_null_draws(p, T, K):
    model = FactorModelSpec(p=p, K=K, T=T)
    sources = {s: resolve_criticals(s, model, SIZE_MAP_ALPHA) for s in ("closed-form", "highdim")}
    rejections = {(s, name): 0 for s in sources for name in TESTS}
    chunk = default_chunk(p)
    for start in range(0, SIZE_MAP_REPS, chunk):
        rngs = substreams(SIZE_MAP_SEEDS[p, T, K], start, min(start + chunk, SIZE_MAP_REPS))
        factors = np.stack([bartlett_factor(p, model.t_eff - K, rng) for rng in rngs])
        kernel = stats_from_factors(factors, model.t_eff, K)
        for s, criticals in sources.items():
            for name, law in criticals.laws.items():
                rejections[s, name] += np.count_nonzero(law.read(kernel) > criticals.values[name])
    sizes = {cell: count / SIZE_MAP_REPS for cell, count in rejections.items()}
    for (s, name), size in sizes.items():
        print(f"SIZE p={p} T={T} K={K} {s} {name}: {size:.4f}")
    bound = SIZE_MAP_ALPHA + 3.0 * np.sqrt(SIZE_MAP_ALPHA * (1.0 - SIZE_MAP_ALPHA) / SIZE_MAP_REPS)
    for name in ("T_el", "T_pr"):
        assert sizes["closed-form", name] <= bound, (name, sizes["closed-form", name])


def test_run_tests_closed_form_sources():
    report = run_tests(_null_panel(), critical_source="closed-form")
    assert report.tests["T_el"].source == "bonferroni"
    assert report.tests["T_pr"].source == "bonferroni"
    assert report.tests["T_LR"].source == "chi2_asymptotic"


def test_run_tests_demeaned_consumes_one_observation():
    base = _null_panel(p=4, K=2, T=60, seed=6)
    panel = ReturnsPanel(
        labels=base.labels,
        times=base.times,
        values=base.values + 0.3,  # nonzero mean, the demeaned estimator's case
        asset_columns=base.asset_columns,
        factor_columns=base.factor_columns,
        demean=True,
    )
    report = run_tests(panel, critical_source="closed-form")
    assert report.model.demeaned
    assert report.model.dof_n == (60 - 1) - 2 - 4 + 1


def test_run_tests_highdim_sources():
    panel = _null_panel(p=10, K=2, T=200, seed=8)
    report = run_tests(panel, critical_source="highdim")
    assert report.regime["kind"] == "concentration_c"
    assert report.regime["tlr_sigma_convention"] == "variance"
    for name in TESTS:
        assert report.tests[name].source == "highdim_asymptotic"
        d = report.tests[name]
        assert d.reject == (d.statistic_value > d.critical_value)


@pytest.mark.parametrize(
    "p, T, K, demeaned, regime",
    [
        (2, 30, 0, False, "boundary_d"),  # p = 2: one pair
        (2, 300, 0, True, "concentration_c"),
        (10, 14, 3, False, "boundary_d"),  # dof_n = 2, boundary slack d = 1
        (30, 45, 0, False, "boundary_d"),
        (100, 140, 2, False, "concentration_c"),
        (6, 80, 1, True, "concentration_c"),
    ],
)
@pytest.mark.parametrize("source", ["closed-form", "highdim"])
def test_each_law_gives_alpha_at_its_own_critical_value(p, T, K, demeaned, regime, source):
    # the critical value and the p-value of a test come from one law, so the
    # p-value of a statistic at the critical value is alpha
    model = FactorModelSpec(p=p, K=K, T=T, demeaned=demeaned)
    for alpha in (0.1, 0.05, 0.01):
        if source == "highdim" and T - demeaned - K - p < 4:  # boundary slack below 4
            with pytest.warns(UserWarning, match="boundary slack d="):
                criticals = resolve_criticals(source, model, alpha)
        else:
            criticals = resolve_criticals(source, model, alpha)
        assert source == "closed-form" or criticals.regime.kind == regime
        for name in TESTS:
            at_critical = np.array([criticals.values[name]])
            p_value = criticals.laws[name].p_value(at_critical)
            assert_allclose(p_value, [alpha], rtol=1e-9, atol=0.0, err_msg=name)


def test_warnings_name_the_callers_line():
    # a boundary slack T - K - p of 3 warns in select_regime, and auto above
    # T = 200 (p + K) without tables warns in resolve_criticals; both name
    # the line here that called into the package
    small = _null_panel(p=8, K=1, T=12)
    calls = (
        lambda: run_tests(small, critical_source="highdim"),
        lambda: batch_subset_test(small, 8, 3, critical_source="highdim"),
        lambda: resolve_criticals("highdim", FactorModelSpec(p=8, K=1, T=12), 0.05),
        lambda: select_regime(8, 12, 1),
        lambda: run_tests(_null_panel(p=2, K=1, T=700)),
        lambda: resolve_criticals("auto", FactorModelSpec(p=2, K=1, T=700), 0.05),
    )
    for call in calls:
        with pytest.warns(UserWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__]


def test_run_tests_detects_alternative(shared_tables):
    report = run_tests(_alternative_panel(), critical_source="closed-form", alpha=0.05)
    assert report.tests["T_LR"].reject
    assert report.tests["T_LR"].p_value < 0.01


@pytest.mark.parametrize("source", ["highdim", "closed-form"])
def test_run_tests_reports_tiny_p_values(source):
    # residuals of assets 0 and 1 correlated at 0.6; 1 - cdf would round
    # every p-value below 1.1e-16 to 0
    p, K, T = 10, 2, 200
    rng = np.random.default_rng(1)
    F = rng.standard_normal((T, K))
    E = rng.standard_normal((T, p))
    E[:, 1] = 0.6 * E[:, 0] + 0.8 * E[:, 1]
    values = np.hstack([F @ rng.standard_normal((K, p)) + E, F])
    panel = ReturnsPanel(
        labels=tuple(f"a{i}" for i in range(p)) + tuple(f"f{k}" for k in range(K)),
        times=tuple(str(t) for t in range(T)),
        values=values,
        asset_columns=tuple(range(p)),
        factor_columns=tuple(range(p, p + K)),
    )
    report = run_tests(panel, critical_source=source)
    el, pr, lr = (report.tests[name] for name in TESTS)
    if source == "highdim":
        for d in (el, pr, lr):
            assert 0.0 < d.p_value < 1e-16
        assert_allclose(lr.p_value, float(ndtr(-lr.statistic_value)), rtol=1e-12)
    else:
        assert 0.0 < el.p_value < 1e-16 and 0.0 < pr.p_value < 1e-15
        dof_n, pairs = report.model.dof_n, p * (p - 1) / 2
        assert_allclose(el.p_value, pairs * fdtrc(1, dof_n, el.statistic_value), rtol=1e-12)
        assert_allclose(pr.p_value, p * fdtrc(p - 1, dof_n, pr.statistic_value), rtol=1e-12)
        assert_allclose(lr.p_value, chdtrc(pairs, lr.statistic_value), rtol=1e-12)


def test_import_loads_neither_scipy_integrate_nor_stats():
    # both cost import time on every command; nothing in the package needs them
    code = (
        "import sys, factorlens, factorlens.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'stats'])))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


_COMMANDS_WITHOUT_LINALG_OR_SPECIAL = """
import json, os, sys
import factorlens.calibrate as calibrate
from factorlens import cli

panel, out = sys.argv[1], sys.argv[2]
table = ["calibrate", "--p", "6", "--T", "80", "--K", "1", "--alphas", "0.05",
         "--reps", "2000", "--seed", "1", "--keep-null-sample"]
for name, processes in (("forked", 2), ("serial", 1)):
    calibrate._processes = lambda: processes
    assert cli.main(table + ["--out", f"{out}/{name}.json"]) == 0
assert cli.main(["test", "--input", panel, "--assets", "a0,a1,a2,a3,a4,a5", "--factors", "f0",
                 "--table", f"{out}/forked.json", "--out", f"{out}/report.json"]) == 0
loaded = sorted({"scipy.linalg", "scipy.special"} & set(sys.modules))
openblas = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        openblas = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
assert cli.main(sys.argv[3:]) == 0
print(json.dumps([loaded, openblas]))
"""


def test_calibrate_and_table_test_load_neither_scipy_linalg_nor_special(tmp_path):
    # together they were most of every command's start-up: the kernel calls
    # LAPACK through ctypes, and these commands evaluate no law of special;
    # that LAPACK is numpy's, so the process maps one OpenBLAS and not
    # scipy's (a closed-form power command maps it with scipy.special)
    panel = tmp_path / "panel.csv"
    _write_panel_csv(panel, _null_panel(p=6, K=1, T=80))
    power = ["power", "--scenario", "s1", "--p", "4", "--T", "40", "--K", "1",
             "--rho-grid=-0.5:0.5:0.5", "--reps", "200", "--seed", "1",
             "--criticals", "closed-form", "--out"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _COMMANDS_WITHOUT_LINALG_OR_SPECIAL, str(panel), str(tmp_path),
         *power, str(tmp_path / "power_child.csv")],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    loaded, openblas = json.loads(done.stdout.splitlines()[-1])
    assert loaded == []
    if openblas is not None:  # where /proc/self/maps exists
        assert len(openblas) == 1 and "scipy.libs" not in openblas[0], openblas
    assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "serial.json").read_bytes()
    assert json.loads((tmp_path / "report.json").read_text())["tests"]
    # special, loaded by the child on first use, gives what it gives here
    assert main(power + [str(tmp_path / "power.csv")]) == 0
    assert (tmp_path / "power_child.csv").read_bytes() == (tmp_path / "power.csv").read_bytes()


def test_run_tests_rejects_mismatched_table(shared_tables):
    panel = _null_panel(p=5, K=1, T=50, seed=9)
    with pytest.raises(MissingCalibration):
        run_tests(panel, critical_source="calibrated", tables=shared_tables)


def test_batch_subset_full_subset_is_deterministic(shared_tables):
    panel = _null_panel()
    summary = batch_subset_test(
        panel,
        subset_size=panel.p,
        num_subsets=2,
        critical_source="calibrated",
        calibration_reps=2000,
        calibration_seed=7,
    )
    for test in TESTS:
        q = summary.quantiles[test]
        assert q["min"] == q["max"]  # identical p-values across identical subsets


def test_batch_subset_uniformity_under_null():
    # median p-value near 1/2 and quartiles near 1/4, 3/4 over null subsets
    panel = _null_panel(p=8, K=1, T=120, seed=31)
    summary = batch_subset_test(
        panel,
        subset_size=4,
        num_subsets=60,
        critical_source="closed-form",
    )
    meds = [summary.quantiles[t]["median"] for t in TESTS]
    assert all(0.03 < m <= 1.0 for m in meds)


def test_batch_subset_alternative_all_zero_pvalues():
    panel = _alternative_panel(p=8, K=1, T=100, rho=0.4, seed=23)
    summary = batch_subset_test(
        panel,
        subset_size=6,
        num_subsets=25,
        critical_source="calibrated",
        calibration_reps=1500,
        calibration_seed=3,
    )
    assert summary.quantiles["T_LR"]["max"] == 0.0


def _write_panel_csv(path, panel):
    from factorlens import export_panel_csv

    export_panel_csv(panel, path)


def test_cli_calibrate_and_test_roundtrip(tmp_path):
    table_path = tmp_path / "table.json"
    rc = main(
        [
            "calibrate",
            "--p", "4", "--T", "60", "--K", "2",
            "--alphas", "0.1,0.05",
            "--reps", "2000",
            "--seed", "7",
            "--keep-null-sample",
            "--out", str(table_path),
            "--csv", str(tmp_path / "table.csv"),
        ]
    )
    assert rc == 0
    payload = json.loads(table_path.read_text())
    assert payload["schema"] == "factorlens/1"
    assert len(payload["tables"]) == 3
    assert (tmp_path / "table.csv").read_text().startswith("statistic,p,T,K,alpha")

    panel_path = tmp_path / "panel.csv"
    _write_panel_csv(panel_path, _null_panel())
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "test",
            "--input", str(panel_path),
            "--assets", "a0,a1,a2,a3",
            "--factors", "f0,f1",
            "--alpha", "0.05",
            "--criticals", "calibrated",
            "--table", str(table_path),
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["schema"] == "factorlens/1"
    for name in TESTS:
        entry = doc["tests"][name]
        assert entry["reject"] == (entry["statistic"] > entry["critical_value"])


def test_cli_outputs_honour_the_umask(tmp_path):
    out = tmp_path / "table.json"
    previous = os.umask(0o022)
    try:
        rc = main(
            [
                "calibrate",
                "--p", "3", "--T", "20", "--K", "1",
                "--reps", "1000",
                "--out", str(out),
            ]
        )
    finally:
        os.umask(previous)
    assert rc == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_cli_end_to_end_determinism(tmp_path):
    panel_path = tmp_path / "panel.csv"
    _write_panel_csv(panel_path, _null_panel())
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main(
            [
                "test",
                "--input", str(panel_path),
                "--assets", "a0,a1,a2,a3",
                "--factors", "f0,f1",
                "--criticals", "calibrated",
                "--reps", "1500",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_power_and_usage_error(tmp_path):
    out = tmp_path / "power.csv"
    rc = main(
        [
            "power",
            "--scenario", "s1",
            "--p", "4", "--T", "40", "--K", "1",
            "--rho-grid", "0:0.5:0.5",
            "--reps", "40",
            "--seed", "3",
            "--criticals", "closed-form",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 2

    with pytest.raises(SystemExit) as err:
        main(
            [
                "power",
                "--scenario", "s4",
                "--p", "4", "--T", "40", "--K", "1",
                "--rho-grid", "0:0.1:0.5",
                "--reps", "10",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["power", "--scenario", "s1", "--rho-grid=0.5:-0.25:-0.5"], "--rho-grid"),
        (["power", "--scenario", "s1", "--rho-grid", "0.1,abc"], "--rho-grid"),
        (["power", "--scenario", "s4", "--ktilde-grid", "1:x:3"], "--ktilde-grid"),
        (["calibrate", "--alphas", "0.05,x"], "--alphas"),
        # non-integer extra-factor counts are not rounded
        (["power", "--scenario", "s4", "--ktilde-grid", "0.4,1.6"], "--ktilde-grid"),
        (["power", "--scenario", "s4", "--ktilde-grid", "0:0.5:1"], "--ktilde-grid"),
        # rejected before expansion: an infinite stop used to expand forever
        (["power", "--scenario", "s1", "--rho-grid=0:0.1:inf"], "--rho-grid"),
        (["power", "--scenario", "s1", "--rho-grid=nan:0.1:0.5"], "--rho-grid"),
        (["power", "--scenario", "s1", "--rho-grid=0:1e-6:0.5"], "--rho-grid"),
    ],
)
def test_cli_malformed_grid_or_alphas_is_a_usage_error(tmp_path, capsys, argv, flag):
    dims = ["--p", "4", "--T", "40", "--K", "1", "--reps", "10"]
    with pytest.raises(SystemExit) as err:
        main([*argv, *dims, "--out", str(tmp_path / "x.out")])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def test_grid_point_bound():
    assert _parse_grid("-0.5:0.25:0.5") == [-0.5, -0.25, 0.0, 0.25, 0.5]
    assert len(_parse_grid(f"0:1:{MAX_GRID_POINTS - 1}", integer=True)) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than"):
        _parse_grid(f"0:1:{MAX_GRID_POINTS}", integer=True)


def _readme_commands() -> list[list[str]]:
    """Every factorlens command in the README's command-line block, as argv."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Command line"):]
    block = section.split("```")[1]
    joined = block.replace("\\\n", " ")
    return [
        shlex.split(line)[1:]
        for line in joined.splitlines()
        if line.startswith("factorlens ")
    ]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"test", "calibrate", "power", "batch-test"}
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits with status 2 on a usage error


def test_cli_power_calibrated_matches_library(tmp_path):
    from factorlens.powersim import run_power_study
    from factorlens.report import resolve_criticals

    out = tmp_path / "power.csv"
    rc = main(
        [
            "power",
            "--scenario", "s1",
            "--p", "4", "--T", "40", "--K", "2",
            "--rho-grid", "0,0.4",
            "--reps", "30",
            "--seed", "3",
            "--calibration-reps", "1000",
            "--calibration-seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    cfg = ScenarioConfig(scenario="s1", p=4, K=2, T=40, reps=30, master_seed=3)
    tables = calibrate_many(TESTS, 4, 40, 2, alphas=(0.05,), reps=1000, master_seed=5)
    expected = tmp_path / "expected.csv"
    criticals = resolve_criticals("calibrated", cfg.model, cfg.alpha, tables=tables)
    run_power_study(cfg, [0.0, 0.4], criticals).to_csv(expected)
    assert out.read_text() == expected.read_text()
    assert ",calibrated," in out.read_text()


def test_cli_batch_test(tmp_path):
    panel_path = tmp_path / "panel.csv"
    _write_panel_csv(panel_path, _null_panel(p=6, K=1, T=80, seed=13))
    out = tmp_path / "batch.csv"
    rc = main(
        [
            "batch-test",
            "--input", str(panel_path),
            "--assets", ",".join(f"a{i}" for i in range(6)),
            "--factors", "f0",
            "--criticals", "closed-form",
            "--subset-size", "4",
            "--num-subsets", "10",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "test,min,q1,median,q3,max"
    assert len(lines) == 4


def test_batch_subset_size_one_is_a_domain_error(tmp_path, capsys):
    panel = _null_panel(p=4, K=1, T=60, seed=17)
    with pytest.raises(DomainError, match=r"\[2, 4\]"):
        batch_subset_test(panel, 1, 2, critical_source="closed-form")
    panel_path = tmp_path / "panel.csv"
    _write_panel_csv(panel_path, panel)
    rc = main(
        [
            "batch-test",
            "--input", str(panel_path),
            "--assets", ",".join(f"a{i}" for i in range(4)),
            "--factors", "f0",
            "--criticals", "closed-form",
            "--subset-size", "1",
            "--num-subsets", "2",
            "--out", str(tmp_path / "batch.csv"),
        ]
    )
    assert rc == 1
    assert "[2, 4]" in capsys.readouterr().err


def test_cli_help_says_calibrated_pvalues_need_kept_sample(capsys):
    # a table written without --keep-null-sample cannot give calibrated p-values
    needs = {"test": "calibrate --keep-null-sample", "calibrate": "test --table"}
    for command, phrase in needs.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert phrase in " ".join(capsys.readouterr().out.split())


def test_cli_computational_error_exit_code(tmp_path):
    panel_path = tmp_path / "panel.csv"
    panel_path.write_text("a,b\n1,2\n3,4\n")
    rc = main(
        [
            "test",
            "--input", str(panel_path),
            "--assets", "a",
            "--factors", "b",
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 1  # too few rows -> computational error


@pytest.mark.parametrize(
    "table_text, message",
    [
        ("not json {", "not a JSON document"),
        ('[{"statistic": "T_el"}]', "expected a table object"),
        ('{"p": 4, "T": 60, "K": 1}', "has no 'statistic' entry"),
    ],
    ids=["not-json", "top-level-list", "no-statistic"],
)
def test_cli_bad_table_file_is_a_clean_error(tmp_path, capsys, table_text, message):
    panel_path = tmp_path / "panel.csv"
    _write_panel_csv(panel_path, _null_panel(p=4, K=1, T=60, seed=3))
    (tmp_path / "table.json").write_text(table_text)
    argv = [
        "test", "--input", str(panel_path), "--assets", "a0,a1,a2,a3", "--factors", "f0",
        "--table", str(tmp_path / "table.json"), "--out", str(tmp_path / "r.json"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("factorlens: error: ") and "table.json" in err and message in err
    assert not (tmp_path / "r.json").exists()


def test_cli_table_whose_critical_values_disagree_with_its_sample_is_an_error(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    argv = ["calibrate", "--p", "6", "--T", "80", "--K", "1", "--alphas", "0.05",
            "--reps", "1000", "--seed", "1", "--keep-null-sample", "--out", str(table_path)]
    assert main(argv) == 0
    panel_path = tmp_path / "panel.csv"
    _write_panel_csv(panel_path, _null_panel(p=6, K=1, T=80, seed=3))
    test_argv = [
        "test", "--input", str(panel_path), "--assets", ",".join(f"a{i}" for i in range(6)),
        "--factors", "f0", "--table", str(table_path), "--out", str(tmp_path / "r.json"),
    ]
    assert main(test_argv) == 0  # the table as calibrate wrote it loads
    payload = json.loads(table_path.read_text())
    for doc in payload["tables"]:
        doc["critical_values"] = [v / 2 for v in doc["critical_values"]]
    table_path.write_text(json.dumps(payload))
    (tmp_path / "r.json").unlink()
    assert main(test_argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("factorlens: error: ") and "table.json" in err
    assert "T_el critical value" in err and "alpha=0.05" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("statistics", ["", "T_el,T_el"])
def test_cli_calibrate_with_no_or_a_repeated_statistic_is_a_clean_error(
    tmp_path, capsys, statistics
):
    out = tmp_path / "tables.json"
    argv = ["calibrate", "--p", "3", "--T", "80", "--K", "1", "--reps", "1000",
            "--statistics", statistics, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("factorlens: error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # neither the table nor a temporary file


def test_cli_missing_input_is_a_clean_error(tmp_path, capsys):
    argv = [
        "test", "--input", str(tmp_path / "absent.csv"), "--assets", "a0,a1",
        "--criticals", "closed-form", "--out", str(tmp_path / "r.json"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("factorlens: error: ") and "absent.csv" in err


def test_cli_cell_over_the_csv_field_limit_is_a_clean_error(tmp_path, capsys):
    panel_path = tmp_path / "panel.csv"
    _write_panel_csv(panel_path, _null_panel(p=2, K=0, T=30, seed=3))
    lines = panel_path.read_text().splitlines(keepends=True)
    lines[4] = "d3," + "1" * (csv.field_size_limit() + 1) + ",0.5\n"
    panel_path.write_text("".join(lines))
    argv = [
        "test", "--input", str(panel_path), "--assets", "a0,a1",
        "--criticals", "closed-form", "--out", str(tmp_path / "r.json"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("factorlens: error: field larger than field limit (")
    assert err.endswith(" at row 5\n")
    assert not (tmp_path / "r.json").exists()


def test_cli_out_in_missing_directory_is_a_clean_error(tmp_path, capsys):
    argv = [
        "power", "--scenario", "s1", "--p", "4", "--T", "40", "--K", "1",
        "--rho-grid", "0", "--reps", "5", "--criticals", "closed-form",
        "--out", str(tmp_path / "absent" / "power.csv"),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("factorlens: error: ")


def test_cli_entrypoint_runs_as_module(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "factorlens.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "factorlens" in result.stdout


def test_warnings_under_python_m_name_a_file(tmp_path):
    # boundary slack d = T - K - p = 3 warns; runpy's frames name no file, so
    # the warning falls on the package's outermost frame, cli.py's entry line
    panel = tmp_path / "panel.csv"
    _write_panel_csv(panel, _null_panel(p=6, K=1, T=10))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "factorlens.cli", "test", "--input", str(panel),
         "--assets", ",".join(f"a{i}" for i in range(6)), "--factors", "f0",
         "--criticals", "highdim", "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert "UserWarning: boundary slack d=3" in result.stderr
    assert "<frozen" not in result.stderr
    assert os.path.join("factorlens", "cli.py") in result.stderr
