"""run_power_study on s1-s4 against a plain loop over the per-dataset data path."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factorlens import calibrate_many, compute_all, generate_dataset, precision_stats_from_data
from factorlens import powersim
from factorlens.errors import DomainError, Singular
from factorlens.powersim import CALIBRATED, CLOSED_FORM, ScenarioConfig, run_power_study
from factorlens.report import (
    TESTS,
    calibrated_criticals,
    closed_form_criticals,
    observed_statistics,
)
from factorlens.teststats import FactorModelSpec, _stacked_cholesky

GRID = (-0.5, 0.0, 0.3, 0.5)
KTILDE_GRID = (0, 1, 3)


def _grid(scenario):
    return KTILDE_GRID if scenario == "s4" else GRID


def _reference(cfg, grid, criticals):
    """Observed statistics [grid point][test] -> array over replicates, and rejection counts."""
    stats = []
    for value in grid:
        rows = [
            observed_statistics(compute_all(precision_stats_from_data(X, F if cfg.K else None)))
            for X, F in (generate_dataset(cfg, value, rep) for rep in range(cfg.reps))
        ]
        stats.append({t: np.array([row[t] for row in rows]) for t in TESTS})
    counts = {t: np.array([np.count_nonzero(s[t] > criticals[t]) for s in stats]) for t in TESTS}
    return stats, counts


def _criticals(cfg, source, tables):
    model = FactorModelSpec(p=cfg.p, K=cfg.K, T=cfg.T)
    if source == CALIBRATED:
        return calibrated_criticals(tables, model, cfg.alpha)
    return closed_form_criticals(model, cfg.alpha)


def _record_observed(monkeypatch):
    """Record what the engine compares with the criticals, one dict per kernel run."""
    seen = []
    original = powersim.kernel_observed

    def recording(kernel):
        observed = original(kernel)
        seen.append({t: v.copy() for t, v in observed.items()})
        return observed

    monkeypatch.setattr(powersim, "kernel_observed", recording)
    return seen


@pytest.mark.parametrize(
    "scenario, p, K, T",
    [
        ("s1", 4, 2, 40),
        ("s2", 5, 2, 8),  # p + K = T - 1: dof_n = 2
        ("s3", 3, 0, 20),
        ("s2", 6, 0, 30),
        ("s3", 4, 0, 5),  # p + K = T - 1 with K = 0
        ("s1", 8, 3, 12),  # p + K = T - 1
        ("s2", 2, 0, 10),  # p = 2: one pair, T_LR near 0 at the null
        ("s4", 4, 1, 30),
        ("s4", 3, 0, 20),  # K = 0: nothing fitted
        ("s4", 5, 2, 8),  # p + K = T - 1, with up to 5 + 3 simulated factors
    ],
)
@pytest.mark.parametrize("source", [CLOSED_FORM, CALIBRATED])
def test_engine_matches_per_dataset_loop(monkeypatch, scenario, p, K, T, source):
    cfg = ScenarioConfig(scenario, p=p, K=K, T=T, reps=60, master_seed=17, alpha=0.2)
    tables = None
    if source == CALIBRATED:
        tables = calibrate_many(TESTS, p, T, K, alphas=(cfg.alpha,), reps=2000, master_seed=4)
    grid = _grid(scenario)
    seen = _record_observed(monkeypatch)
    curve = run_power_study(cfg, grid, critical_source=source, tables=tables)
    assert len(seen) == len(grid)  # one chunk: one kernel run per grid point

    stats, counts = _reference(cfg, grid, _criticals(cfg, source, tables))
    for test in TESTS:
        assert np.array_equal(curve.rates[test] * cfg.reps, counts[test]), test
        for gi in range(len(grid)):
            assert_allclose(seen[gi][test], stats[gi][test], rtol=1e-9, atol=0.0)
    # the alternatives are detected at all, so the counts compare something
    assert counts["T_LR"].sum() > 0


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_counts_do_not_depend_on_chunk_size(monkeypatch, chunk):
    for scenario in ("s3", "s4"):
        cfg = ScenarioConfig(scenario, p=5, K=1, T=30, reps=23, master_seed=8, alpha=0.1)
        whole = run_power_study(cfg, _grid(scenario), critical_source=CLOSED_FORM)
        with monkeypatch.context() as m:
            m.setattr(powersim, "_chunk_size", lambda p, K, T: chunk)
            chunked = run_power_study(cfg, _grid(scenario), critical_source=CLOSED_FORM)
        for test in TESTS:
            assert np.array_equal(whole.rates[test], chunked.rates[test]), (scenario, test)


def test_every_grid_value_is_checked_before_simulating(monkeypatch):
    def no_simulation(*args):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(powersim, "generate_dataset", no_simulation)
    monkeypatch.setattr(powersim, "_draw_replicate", no_simulation)
    for scenario, grid in (("s1", [0.0, 0.6]), ("s4", [0, 1, 11]), ("s4", [0, 1.5])):
        cfg = ScenarioConfig(scenario, p=4, K=1, T=30, reps=5)
        with pytest.raises(DomainError):
            run_power_study(cfg, grid, critical_source=CLOSED_FORM)


def test_stacked_pivot_rule_raises_singular():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((2, 4, 20))
    Y[1, 3] = Y[1, 2]  # second dataset: two identical rows
    scatters = Y @ np.swapaxes(Y, 1, 2)
    max_diag = np.diagonal(scatters, axis1=1, axis2=2).max(axis=1)
    L = _stacked_cholesky(scatters[:1], max_diag[:1])
    assert_allclose(L[0] @ L[0].T, scatters[0], rtol=1e-12)
    with pytest.raises(Singular):
        _stacked_cholesky(scatters, max_diag)
    with pytest.raises(Singular):  # a pivot factored elsewhere counts too
        _stacked_cholesky(scatters[:1], max_diag[:1], min_pivot=0.0)


def test_memory_stays_bounded_for_many_replicates():
    # 10 000 replicates of a 5-by-250 draw block are 100 MB at once; chunks
    # keep the engine's arrays near 16 MiB
    cfg = ScenarioConfig("s1", p=4, K=1, T=250, reps=10_000, master_seed=5)
    tracemalloc.start()
    try:
        run_power_study(cfg, (0.0, 0.5), critical_source=CLOSED_FORM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
