"""run_power_study on s1-s4 against a plain loop over the per-dataset data path."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factorlens import (
    ZjDensityParams,
    calibrate_many,
    compute_all,
    f_quantile,
    generate_dataset,
    marginal_power_Z,
    precision_stats_from_data,
)
from factorlens import powersim
from factorlens.calibrate import READERS
from factorlens.errors import DomainError, NotPositiveDefinite, Singular
from factorlens.powersim import ScenarioConfig, run_power_study
from factorlens.randmat import SeedSpec
from factorlens.report import TESTS, resolve_criticals
from factorlens.linalg import stacked_cholesky
from factorlens.teststats import FactorStats
from conftest import halve_v_of

GRID = (-0.5, 0.0, 0.3, 0.5)
KTILDE_GRID = (0, 1, 3)


def _grid(scenario):
    return KTILDE_GRID if scenario == "s4" else GRID


def _observed(stats):
    """The statistic each test compares with its critical value."""
    return {"T_el": stats.t_el, "T_pr": stats.t_pr, "T_LR": stats.t_lr}


def _reference(cfg, grid, criticals):
    """Observed statistics [grid point][test] -> array over replicates, and rejection counts."""
    stats = []
    for value in grid:
        rows = [
            _observed(compute_all(precision_stats_from_data(X, F if cfg.K else None)))
            for X, F in (generate_dataset(cfg, value, rep) for rep in range(cfg.reps))
        ]
        stats.append({t: np.array([row[t] for row in rows]) for t in TESTS})
    counts = {t: np.array([np.count_nonzero(s[t] > criticals[t]) for s in stats]) for t in TESTS}
    return stats, counts


def _closed_form(cfg):
    return resolve_criticals("closed-form", cfg.model, cfg.alpha)


def _recording(criticals):
    """criticals whose laws record what the engine compares, per test one array per kernel run."""
    seen = {test: [] for test in criticals.laws}

    def recording(test, read):
        def read_and_record(kernel):
            observed = read(kernel)
            seen[test].append(observed.copy())
            return observed

        return read_and_record

    laws = {
        test: dataclasses.replace(law, read=recording(test, law.read))
        for test, law in criticals.laws.items()
    }
    return dataclasses.replace(criticals, laws=laws), seen


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
@pytest.mark.parametrize("source", ["bonferroni_or_asymptotic", "calibrated"])
def test_engine_matches_per_dataset_loop(scenario, p, K, T, source):
    cfg = ScenarioConfig(scenario, p=p, K=K, T=T, reps=60, master_seed=17, alpha=0.2)
    if source == "calibrated":
        tables = calibrate_many(TESTS, p, T, K, alphas=(cfg.alpha,), reps=2000, master_seed=4)
        criticals = resolve_criticals("calibrated", cfg.model, cfg.alpha, tables=tables)
    else:
        criticals = _closed_form(cfg)
    grid = _grid(scenario)
    criticals, seen = _recording(criticals)
    curve = run_power_study(cfg, grid, criticals)
    # one chunk: s1-s3 make one kernel run over every grid point, its rows
    # grid-major; s4 one kernel run per grid point
    runs = len(grid) if scenario == "s4" else 1
    assert [len(seen[test]) for test in TESTS] == [runs] * len(TESTS)
    seen = {test: np.concatenate(r).reshape(len(grid), cfg.reps) for test, r in seen.items()}
    assert curve.critical_source == source

    stats, counts = _reference(cfg, grid, criticals.values)
    for test in TESTS:
        assert np.array_equal(curve.rates[test] * cfg.reps, counts[test]), test
        for gi in range(len(grid)):
            assert_allclose(seen[test][gi], stats[gi][test], rtol=1e-9, atol=0.0)
    # the alternatives are detected at all, so the counts compare something
    assert counts["T_LR"].sum() > 0


@pytest.mark.parametrize("chunk, group", [(1, 4), (3, 1), (7, 2), (23, 3)])
def test_counts_do_not_depend_on_chunk_size(monkeypatch, chunk, group):
    for scenario in ("s1", "s3", "s4"):
        cfg = ScenarioConfig(scenario, p=5, K=1, T=30, reps=23, master_seed=8, alpha=0.1)
        whole = run_power_study(cfg, _grid(scenario), _closed_form(cfg))
        with monkeypatch.context() as m:
            m.setattr(powersim, "_chunk_size", lambda p, K, T, points: (chunk, group))
            chunked = run_power_study(cfg, _grid(scenario), _closed_form(cfg))
        for test in TESTS:
            assert np.array_equal(whole.rates[test], chunked.rates[test]), (scenario, test)


@pytest.mark.parametrize(
    "scenario, p, K, T, start, stop",
    [
        ("s1", 4, 2, 40, 0, 5),
        ("s2", 5, 0, 12, 3, 6),  # K = 0: only the scales are skipped
        ("s3", 3, 1, 9, 2**32 - 2, 2**32 + 2),  # indices with a nonzero high word
        ("s1", 2, 0, 5, 2**40, 2**40 + 3),
    ],
)
def test_block_draw_matches_draw_replicate(scenario, p, K, T, start, stop):
    cfg = ScenarioConfig(scenario, p=p, K=K, T=T, reps=1, master_seed=2**63 + 5)
    block = powersim._draw_block(cfg, start, stop)
    assert block.shape == (stop - start, K + p, T)
    for i, rep in enumerate(range(start, stop)):
        rng = SeedSpec(cfg.master_seed, rep).generator()
        _, _, factors, shocks = powersim._draw_replicate(rng, p, K, T)
        assert np.array_equal(block[i, :K], factors)
        assert np.array_equal(block[i, K:], shocks)


def test_every_grid_value_is_checked_before_simulating(monkeypatch):
    def no_simulation(*args):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(powersim, "generate_dataset", no_simulation)
    monkeypatch.setattr(powersim, "_draw_replicate", no_simulation)
    monkeypatch.setattr(powersim, "_draw_block", no_simulation)
    for scenario, grid in (("s1", [0.0, 0.6]), ("s4", [0, 1, 11]), ("s4", [0, 1.5])):
        cfg = ScenarioConfig(scenario, p=4, K=1, T=30, reps=5)
        with pytest.raises(DomainError):
            run_power_study(cfg, grid, _closed_form(cfg))


def test_stacked_pivot_rule_raises_singular():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((2, 4, 20))
    Y[1, 3] = Y[1, 2]  # second dataset: two identical rows
    scatters = Y @ np.swapaxes(Y, 1, 2)
    L = stacked_cholesky(scatters[:1])
    assert_allclose(L[0] @ L[0].T, scatters[0], rtol=1e-12)
    with pytest.raises(Singular):
        stacked_cholesky(scatters)


def test_stacked_singular_names_the_first_failing_dataset():
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((4, 3, 20))
    good = Y @ np.swapaxes(Y, 1, 2)
    tiny = np.diag([1.0, 1.0, 1e-14])  # factors, but its last pivot fails the rule
    indefinite = -np.eye(3)  # the batched factorization raises for the whole stack
    for stack, first, pivot_rule in (
        ([good[0], good[1], tiny, good[2]], 2, True),
        ([good[0], indefinite, good[1], good[2]], 1, False),
        ([good[0], good[1], tiny, indefinite], 2, True),
        ([good[0], indefinite, tiny, good[1]], 1, False),
        ([indefinite], 0, False),
    ):
        with pytest.raises(Singular) as err:
            stacked_cholesky(np.array(stack))
        assert err.value.index == first
        assert ("pivot" in str(err.value)) == pivot_rule


def test_memory_stays_bounded_for_many_replicates():
    # 10 000 replicates of a 5-by-250 draw block are 100 MB at once; chunks
    # keep the engine's arrays near 16 MiB
    cfg = ScenarioConfig("s1", p=4, K=1, T=250, reps=10_000, master_seed=5)
    tracemalloc.start()
    try:
        run_power_study(cfg, (0.0, 0.5), _closed_form(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_memory_stays_bounded_for_a_long_grid():
    # one replicate's kernel rows over 200 grid points at p = 60 pass the
    # budget, so the grid runs in groups; 6 replicates of all 200 points at
    # once peak at about 120 MiB
    cfg = ScenarioConfig("s1", p=60, K=1, T=100, reps=6, master_seed=5)
    grid = np.linspace(-0.5, 0.5, 200)
    assert powersim._chunk_size(cfg.p, cfg.K, cfg.T, len(grid))[1] < len(grid)
    tracemalloc.start()
    try:
        run_power_study(cfg, grid, _closed_form(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


# The exact power oracle: single-coordinate rejection rates of the power
# engine's own kernels against the exact non-null marginal laws (Fisher's
# negative-binomial mixture of Beta laws, special.marginal_power_Z).
ORACLE_ALPHA, ORACLE_REPS = 0.05, 20_000
ORACLE_DIMS = {"p": 10, "K": 5, "T": 100}
ORACLE_SEEDS = {"s1": 7101, "s2": 7102, "s3": 7103}


def _engine_rates(scenario, grid, reads):
    """Rate of read(kernel) > crit per grid point on run_power_study's kernels, per named read."""
    cfg = ScenarioConfig(scenario, **ORACLE_DIMS, reps=ORACLE_REPS,
                         master_seed=ORACLE_SEEDS[scenario])
    corr = np.array([powersim.build_sigma_u(scenario, cfg.p, rho) for rho in grid])
    chunk, group = powersim._chunk_size(cfg.p, cfg.K, cfg.T, len(grid))
    counts = {name: np.zeros(len(grid)) for name in reads}
    for start in range(0, cfg.reps, chunk):
        stop = min(start + chunk, cfg.reps)
        for first, factors in powersim._grid_factors(cfg, grid, corr, start, stop, group):
            kernel = FactorStats(factors, cfg.model.t_eff, cfg.K)
            for name, (read, crit) in reads.items():
                rejected = read(kernel).reshape(-1, stop - start) > crit
                counts[name][first : first + len(rejected)] += np.count_nonzero(rejected, axis=1)
    return {name: c / cfg.reps for name, c in counts.items()}


def _assert_within_3_se(rate, exact, cell):
    se = math.sqrt(exact * (1.0 - exact) / ORACLE_REPS)
    assert abs(rate - exact) <= 3.0 * se, (cell, rate, exact, (rate - exact) / se)


# pair (2, 1)'s noncentrality lambda = g^2 / (1 - g^2), g its partial
# correlation: rho in s1; rho / sqrt(1 + rho^2) in s3, whose precision is
# tridiagonal, so lambda = rho^2. s1's grid adds rho = 0.3 for T_el.
PAIR_ORACLE = {
    "s1": (lambda rho: rho**2 / (1.0 - rho**2), (0.0, 0.2, 0.3, 0.4)),
    "s3": (lambda rho: rho**2, (0.0, 0.2, 0.4)),
}


@pytest.mark.parametrize("scenario", ["s1", "s3"])
def test_pair_and_t_el_rates_match_the_exact_law(scenario):
    lam, grid = PAIR_ORACLE[scenario]
    model = ScenarioConfig(scenario, **ORACLE_DIMS).model
    dof_n = model.dof_n
    crit = f_quantile(1.0 - ORACLE_ALPHA, 1, dof_n)
    el_crit = resolve_criticals("closed-form", model, ORACLE_ALPHA).values["T_el"]
    rates = _engine_rates(
        scenario, grid, {"T_ij_21": (READERS["T_ij_21"], crit), "T_el": (READERS["T_el"], el_crit)}
    )

    def exact(rho, at):
        return marginal_power_Z(at, ZjDensityParams(q=1, n=dof_n, lam=lam(rho)))

    for gi, rho in enumerate(grid):
        if rho != 0.3:
            _assert_within_3_se(rates["T_ij_21"][gi], exact(rho, crit), ("T_ij_21", rho))
    if scenario == "s1":
        # T_el rejects whenever pair (2, 1) does, and the other 44 pairs are null,
        # each exceeding the Bonferroni critical value with probability alpha / 45
        pi = exact(0.3, el_crit)
        assert pi <= rates["T_el"][grid.index(0.3)] <= pi + ORACLE_ALPHA


def test_s2_column_rate_matches_the_exact_law():
    # column 1 has squared multiple correlation S = (p - 1) a^2, a the
    # off-diagonal entry of s2's precision, so lambda = S / (1 - S)
    model = ScenarioConfig("s2", **ORACLE_DIMS).model
    p, dof_n = model.p, model.dof_n
    crit = f_quantile(1.0 - ORACLE_ALPHA, p - 1, dof_n)
    pr_crit = resolve_criticals("closed-form", model, ORACLE_ALPHA).values["T_pr"]
    grid = (0.0, 0.2)
    rates = _engine_rates(
        "s2", grid, {"T_j_1": (READERS["T_j_1"], crit), "T_pr": (READERS["T_pr"], pr_crit)}
    )
    for gi, rho in enumerate(grid):
        s = (p - 1) * rho**2 / (1.0 + 1.5 * (p - 1) * rho**2)
        law = ZjDensityParams(q=p - 1, n=dof_n, lam=s / (1.0 - s))
        _assert_within_3_se(rates["T_j_1"][gi], marginal_power_Z(crit, law), ("T_j_1", rho))
    # T_pr >= T_j_1, so its rate is at least column 1's at T_pr's critical value
    bound = marginal_power_Z(pr_crit, law)
    se = math.sqrt(bound * (1.0 - bound) / ORACLE_REPS)
    assert rates["T_pr"][1] >= bound - 3.0 * se, (rates["T_pr"][1], bound, se)


def test_power_refusal_of_v_names_the_replicate_and_grid_value(monkeypatch):
    # chunks of 4 replicates over both grid points, grid-major: kernel row 13 is
    # the second chunk's row 5, grid point 1 and replicate 4 + 1
    monkeypatch.setattr(powersim, "_chunk_size", lambda p, K, T, points: (4, points))
    halve_v_of(monkeypatch, 13)
    cfg = ScenarioConfig("s1", p=4, K=1, T=30, reps=10, master_seed=1)
    with pytest.raises(NotPositiveDefinite) as exc:
        run_power_study(cfg, [0.0, 0.2], resolve_criticals("closed-form", cfg.model, cfg.alpha))
    assert exc.value.index == 5
    assert str(exc.value) == (
        "grid value 0.2: diagonal product of V11 and its inverse fell below one in replicate 5"
    )
