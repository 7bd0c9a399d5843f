import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factorlens import build_sigma_u, calibrate_many, generate_dataset, run_power_study
from factorlens.errors import BadDimension, DomainError, MissingCalibration
from factorlens.powersim import ScenarioConfig, canonical_scenario
from factorlens.report import TESTS, resolve_criticals


def _closed_form(cfg):
    return resolve_criticals("closed-form", cfg.model, cfg.alpha)


def test_scenario_aliases():
    assert canonical_scenario("s1") == "s1_single_corr"
    assert canonical_scenario("s4_extra_factors") == "s4_extra_factors"
    with pytest.raises(DomainError):
        canonical_scenario("s9")


def test_config_validation():
    ScenarioConfig(scenario="s1", p=5, K=2, T=30)
    with pytest.raises(BadDimension):
        ScenarioConfig(scenario="s1", p=20, K=15, T=30)


@pytest.mark.parametrize("scenario, p, K, T", [("s1", 5, -1, 50), ("s4", 1, 1, 50)])
def test_config_takes_only_dimensions_its_model_accepts(scenario, p, K, T):
    # K < 0 used to fail later in generate_dataset, outside FactorLensError,
    # and p = 1 used to generate data that no test statistic is defined on
    with pytest.raises(BadDimension):
        ScenarioConfig(scenario, p=p, K=K, T=T)


def _sigma(scenario, p, rho):
    """C C^T for the factor C of build_sigma_u, which must be lower triangular."""
    c = build_sigma_u(scenario, p, rho)
    assert np.array_equal(c, np.tril(c)) and np.all(np.diagonal(c) > 0.0)
    return c @ c.T


def test_sigma_u_zero_rho_is_identity():
    for scenario in ("s1", "s2", "s3"):
        assert_allclose(_sigma(scenario, 6, 0.0), np.eye(6))


def test_sigma_u_s1():
    delta = _sigma("s1", 4, 0.35)
    expected = np.eye(4)
    expected[0, 1] = expected[1, 0] = 0.35
    assert_allclose(delta, expected, atol=1e-15)


def test_sigma_u_s2_first_row_of_inverse():
    # p=10, rho=0.5: inverse first-row entries are 0.5/sqrt(4.375)
    p, rho = 10, 0.5
    m = np.linalg.inv(_sigma("s2", p, rho))
    expected = rho / math.sqrt(1.0 + 3.0 * (p - 1) * rho**2 / 2.0)
    assert_allclose(expected, 0.239046, atol=1e-6)
    assert_allclose(m[0, 1:], np.full(p - 1, expected), rtol=1e-9)
    assert_allclose(np.diag(m), np.ones(p), rtol=1e-9)
    # entries away from the first row/column vanish
    off = m[1:, 1:] - np.diag(np.diag(m[1:, 1:]))
    assert np.abs(off).max() < 1e-9


def test_sigma_u_s2_sign_alternation_for_negative_rho():
    p, rho = 6, -0.4
    m = np.linalg.inv(_sigma("s2", p, rho))
    signs = np.sign(m[0, 1:])
    assert_allclose(signs, [-1.0, 1.0, -1.0, 1.0, -1.0])


def test_sigma_u_s2_diagonal_dominance_bound():
    # sum of squared first-row inverse entries stays below 2/3 on the grid
    for p in (5, 10, 50):
        for rho in np.arange(-0.5, 0.51, 0.05):
            rho = float(round(rho, 2))
            if rho == 0.0:
                continue
            m = np.linalg.inv(_sigma("s2", p, rho))  # positive definite, or _sigma raises
            total = float((m[0, 1:] ** 2).sum())
            assert total < 2.0 / 3.0


def test_sigma_u_s3_ar1():
    delta = _sigma("s3", 5, 0.5)
    assert_allclose(delta[0, 2], 0.25)
    assert_allclose(delta[0, 4], 0.5**4)
    assert_allclose(np.diag(delta), np.ones(5))
    neg = _sigma("s3", 4, -0.5)
    assert_allclose(neg[0, 1], -0.5)
    assert_allclose(neg[0, 2], 0.25)


def test_sigma_u_rejects_s4_and_large_rho():
    with pytest.raises(DomainError):
        build_sigma_u("s4", 5, 0.2)
    with pytest.raises(DomainError):
        build_sigma_u("s1", 5, 0.51)


def test_generate_dataset_shapes_and_determinism():
    cfg = ScenarioConfig(scenario="s3", p=4, K=2, T=25, master_seed=11)
    x1, f1 = generate_dataset(cfg, 0.3, rep_index=7)
    x2, f2 = generate_dataset(cfg, 0.3, rep_index=7)
    assert x1.shape == (4, 25) and f1.shape == (2, 25)
    assert np.array_equal(x1, x2) and np.array_equal(f1, f2)
    x3, _ = generate_dataset(cfg, 0.3, rep_index=8)
    assert not np.allclose(x1, x3)


def test_generate_dataset_s4_returns_fitted_factors_only():
    cfg = ScenarioConfig(scenario="s4", p=4, K=3, T=30, master_seed=2)
    x, f = generate_dataset(cfg, 5, rep_index=0)
    assert f.shape == (3, 30)
    assert x.shape == (4, 30)
    # zero omitted factors is the exact null case and is accepted
    x0, f0 = generate_dataset(cfg, 0, rep_index=0)
    assert x0.shape == (4, 30) and f0.shape == (3, 30)
    with pytest.raises(DomainError):
        generate_dataset(cfg, 11, rep_index=0)


def test_power_monotone_along_grid():
    cfg = ScenarioConfig(scenario="s1", p=5, K=2, T=60, reps=300, master_seed=24)
    curve = run_power_study(cfg, [0.3, 0.4, 0.5], _closed_form(cfg))
    for test in ("T_el", "T_pr"):
        r = curve.rates[test]
        se = np.sqrt(np.maximum(r * (1 - r), 1e-9) / cfg.reps)
        for k in range(2):
            assert r[k + 1] >= r[k] - 2.0 * float(se[k] + se[k + 1])


def test_power_study_size_at_null_point():
    # rho = 0 is the null: closed-form criticals keep size at or below alpha
    cfg = ScenarioConfig(scenario="s1", p=5, K=2, T=60, reps=400, master_seed=21)
    curve = run_power_study(cfg, [0.0], _closed_form(cfg))
    for test in ("T_el", "T_pr", "T_LR"):
        rate = curve.rates[test][0]
        assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 400) + 0.02


def test_power_study_monotone_and_symmetric_s1():
    cfg = ScenarioConfig(scenario="s1", p=5, K=2, T=60, reps=300, master_seed=22)
    curve = run_power_study(cfg, [-0.5, 0.0, 0.5], _closed_form(cfg))
    for test in ("T_el", "T_pr", "T_LR"):
        r = curve.rates[test]
        se = math.sqrt(max(r[0] * (1 - r[0]), 0.25) / cfg.reps)
        assert abs(r[0] - r[2]) <= 4.0 * se  # symmetry in rho -> -rho
        assert r[2] >= r[1] - 2.0 * se  # power above size


def test_power_study_resolved_calibration_matches_supplied_tables():
    cfg = ScenarioConfig(scenario="s1", p=5, K=2, T=60, reps=40, master_seed=3)
    tables = calibrate_many(TESTS, 5, 60, 2, alphas=(0.05,), reps=1000, master_seed=7)
    supplied = resolve_criticals("calibrated", cfg.model, cfg.alpha, tables=tables)
    calibrated = resolve_criticals(
        "calibrated", cfg.model, cfg.alpha, calibration_reps=1000, calibration_seed=7
    )
    assert calibrated.values == supplied.values
    want = run_power_study(cfg, [0.0, 0.4], supplied)
    got = run_power_study(cfg, [0.0, 0.4], calibrated)
    assert got.critical_source == want.critical_source == "calibrated"
    for test in TESTS:
        assert np.array_equal(got.rates[test], want.rates[test]), test


def test_power_study_rejects_mismatched_tables():
    cfg = ScenarioConfig(scenario="s1", p=5, K=2, T=60, reps=10)
    tables = calibrate_many(TESTS, 4, 60, 2, alphas=(0.05,), reps=1000)
    with pytest.raises(MissingCalibration):
        resolve_criticals("calibrated", cfg.model, cfg.alpha, tables=tables)
    # criticals resolved for another model or alpha, or from the limit laws
    other = ScenarioConfig(scenario="s1", p=4, K=2, T=60, reps=10)
    elsewhere = resolve_criticals("calibrated", other.model, 0.05, tables=tables)
    with pytest.raises(MissingCalibration):
        run_power_study(cfg, [0.1], elsewhere)
    with pytest.raises(MissingCalibration):
        run_power_study(cfg, [0.1], resolve_criticals("closed-form", cfg.model, 0.1))
    with pytest.raises(DomainError):
        run_power_study(cfg, [0.1], resolve_criticals("highdim", cfg.model, cfg.alpha))


def test_power_curve_csv(tmp_path):
    cfg = ScenarioConfig(scenario="s4", p=4, K=1, T=40, reps=50, master_seed=3)
    curve = run_power_study(cfg, [1, 3], _closed_form(cfg))
    path = tmp_path / "power.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scenario,grid_value,test,critical_source,power,mc_se"
    assert len(lines) == 1 + 3 * 2
    cells = lines[1].split(",")
    assert cells[0] == "s4_extra_factors"
    rate = float(cells[4])
    se = float(cells[5])
    assert_allclose(se, math.sqrt(rate * (1 - rate) / cfg.reps), atol=1e-12)
