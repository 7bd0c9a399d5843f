import io
import json
import os
import shlex
import stat
import subprocess
import sys

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
from factorlens.cli import _build_parser, main
from factorlens.errors import DomainError, MissingCalibration
from factorlens.panel import ReturnsPanel
from factorlens.powersim import ScenarioConfig, generate_dataset
from factorlens.report import TESTS


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
    ],
)
def test_cli_malformed_grid_or_alphas_is_a_usage_error(tmp_path, capsys, argv, flag):
    dims = ["--p", "4", "--T", "40", "--K", "1", "--reps", "10"]
    with pytest.raises(SystemExit) as err:
        main([*argv, *dims, "--out", str(tmp_path / "x.out")])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


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
    from factorlens.powersim import CALIBRATED, run_power_study

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
    run_power_study(cfg, [0.0, 0.4], critical_source=CALIBRATED, tables=tables).to_csv(expected)
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


def test_cli_entrypoint_runs_as_module(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "factorlens.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "factorlens" in result.stdout
