import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import factorlens.calibrate
import factorlens.powersim
import factorlens.report
from factorlens import (
    ReturnsPanel,
    SeedSpec,
    batch_subset_test,
    f_cdf,
    run_power_study,
    simulate_null_statistics,
)
from factorlens.errors import BadDimension
from factorlens.powersim import ScenarioConfig
from factorlens.report import resolve_criticals
from factorlens.calibrate import STATISTICS
from factorlens.randmat import _bartlett_layout, bartlett_factor, substreams
from conftest import ks_asymptotic_pvalue, ks_statistic, null_kernel, plain_bartlett


def test_seedspec_determinism():
    a = SeedSpec(7, 3).generator().standard_normal(8)
    b = SeedSpec(7, 3).generator().standard_normal(8)
    assert_allclose(a, b)
    c = SeedSpec(7, 4).generator().standard_normal(8)
    assert not np.allclose(a, c)


def test_seedspec_validation():
    with pytest.raises(BadDimension):
        SeedSpec(-1, 0)
    with pytest.raises(BadDimension):
        SeedSpec(0, 2**64)


def _wishart(p: int, n: int, seed: SeedSpec) -> np.ndarray:
    """One draw from Wishart_p(n, I) through its Bartlett factor."""
    a = bartlett_factor(p, n, seed.generator())
    return a @ a.T


def test_wishart_fixed_seed_bit_identical():
    assert np.array_equal(_wishart(4, 9, SeedSpec(5, 1)), _wishart(4, 9, SeedSpec(5, 1)))


@pytest.mark.parametrize("p, n", [(1, 5), (2, 2), (5, 9), (20, 103)])
def test_bartlett_factor_matches_plain_draw(p, n):
    ref = plain_bartlett(p, n, SeedSpec(11, p).generator())
    assert np.array_equal(bartlett_factor(p, n, SeedSpec(11, p).generator()), ref)
    out = np.zeros((p, p))
    got = bartlett_factor(p, n, SeedSpec(11, p).generator(), out=out)
    assert got is out
    assert np.array_equal(out, ref)


def test_bartlett_layout_is_cached_and_read_only():
    layout = _bartlett_layout(6, 10)
    assert _bartlett_layout(6, 10) is layout
    diag, df, tril = layout
    # flat indices i*p + j into the row-major factor
    rows, cols = np.tril_indices(6, -1)
    assert np.array_equal(diag, np.ravel_multi_index(np.diag_indices(6), (6, 6)))
    assert np.array_equal(df, 10 - np.arange(6))
    assert np.array_equal(tril, np.ravel_multi_index((rows, cols), (6, 6)))
    for arr in layout:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize(
    "out",
    [np.zeros((4, 4), order="F"), np.zeros((4, 8))[:, ::2], np.zeros((4, 5))],
    ids=["fortran", "strided", "wrong-shape"],
)
def test_bartlett_factor_rejects_an_out_it_cannot_write_in_place(out):
    # a flat view of a non-C-contiguous array would be a copy, and the draw lost
    with pytest.raises(BadDimension, match="C-contiguous"):
        bartlett_factor(4, 9, SeedSpec(0, 0).generator(), out=out)
    assert not out.any()


def test_wishart_rejects_insufficient_dof():
    with pytest.raises(BadDimension):
        bartlett_factor(5, 4, SeedSpec(0, 0).generator())


def test_wishart_scalar_mean():
    # p = 1: W ~ chi-square_n, empirical mean near n
    n, reps = 12, 100_000
    rng = SeedSpec(11, 0).generator()
    draws = rng.chisquare(n, size=reps)  # scalar-case law, drawn directly
    single = np.array([_wishart(1, n, SeedSpec(11, r))[0, 0] for r in range(4000)])
    tol = 3.0 * math.sqrt(2.0 * n / reps) * n
    assert abs(draws.mean() - n) <= tol
    assert abs(single.mean() - n) <= 3.0 * math.sqrt(2.0 * n / single.size) * n


def test_wishart_mean_matrix():
    p, n, reps = 5, 20, 10_000
    acc = np.zeros((p, p))
    for r in range(reps):
        acc += _wishart(p, n, SeedSpec(3, r))
    mean = acc / reps
    # E[W] = n I; se of a diagonal entry is sqrt(2n/reps)
    tol = 4.0 * math.sqrt(2.0 * n / reps)
    assert np.abs(mean - n * np.eye(p)).max() <= 4.0 * tol


def test_wishart_marginal_variance():
    # W_11 ~ chi-square_n so its variance is 2n
    p, n, reps = 3, 10, 100_000
    w11 = np.empty(reps)
    for r in range(reps):
        rng = SeedSpec(17, r).generator()
        w11[r] = (bartlett_factor(p, n, rng)[0] ** 2).sum()
    var = w11.var()
    se = math.sqrt(8.0 * n * n / reps)  # var of chi2 sample variance ~ 2*(2n)^2/reps
    assert abs(var - 2.0 * n) <= 5.0 * se


def test_noncentral_chi_square_moments():
    # Y ~ N_p(mu, I): mean of Y'Y is p + mu'mu, variance 2(p + 2 mu'mu)
    p, reps = 6, 100_000
    mu = np.linspace(0.2, 1.2, p)
    lam = float(mu @ mu)
    rng = SeedSpec(23, 0).generator()
    y = rng.standard_normal((reps, p)) + mu
    z = (y * y).sum(axis=1)
    mean_se = math.sqrt(2.0 * (p + 2.0 * lam) / reps)
    assert abs(z.mean() - (p + lam)) <= 5.0 * mean_se
    var_target = 2.0 * (p + 2.0 * lam)
    var_se = var_target * math.sqrt(2.0 / reps) * 2.0
    assert abs(z.var() - var_target) <= 5.0 * var_se


def test_stream_independence():
    n = 100_000
    x = SeedSpec(9, 0).generator().standard_normal(n)
    y = SeedSpec(9, 1).generator().standard_normal(n)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01
    assert abs(np.corrcoef(x[:-1], y[1:])[0, 1]) < 0.01  # lag-1 cross-correlation


def test_v11_null_determinism_and_dof():
    ps1 = null_kernel(4, 20, 2, SeedSpec(1, 5))
    ps2 = null_kernel(4, 20, 2, SeedSpec(1, 5))
    assert np.array_equal(ps1.v[0], ps2.v[0])
    assert ps1.dof_n == 20 - 2 - 4 + 1
    e = ps1.L[0] @ ps1.L[0].T
    assert_allclose(ps1.v[0] @ e, np.eye(4), rtol=1e-9, atol=1e-9)


def test_v11_null_demeaned_uses_T_minus_one():
    # the engine draws demeaned data at T from the law of undemeaned data at T - 1
    demeaned = simulate_null_statistics(STATISTICS, 3, 21, 2, reps=5, master_seed=1, demeaned=True)
    plain = simulate_null_statistics(STATISTICS, 3, 20, 2, reps=5, master_seed=1)
    for s in STATISTICS:
        assert np.array_equal(demeaned[s], plain[s]), s
    ps = null_kernel(3, 21, 2, SeedSpec(1, 0), demeaned=True)
    assert ps.t_eff == 20
    assert ps.dof_n == 20 - 2 - 3 + 1


def test_v11_null_rejects_bad_dims():
    with pytest.raises(BadDimension):
        simulate_null_statistics(("T_el",), 10, 12, 2, reps=1, master_seed=0)


def test_v11_diagonal_reciprocal_is_chi_square():
    # p = 1: 1/v11 ~ chi-square with T-K degrees; mean T-K
    T, K, reps = 30, 5, 20_000
    m = T - K
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = bartlett_factor(1, m, SeedSpec(29, r).generator())[0, 0] ** 2
    assert abs(vals.mean() - m) <= 4.0 * math.sqrt(2.0 * m / reps)


def test_tij_null_law_ks():
    # T_21 from null draws follows the exact F law
    p, T, K, reps = 4, 24, 2, 4000
    dof = T - K - p + 1
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = null_kernel(p, T, K, SeedSpec(31, r)).t_ij[0, 0]
    d = ks_statistic(np.sort(vals), lambda x: np.array([f_cdf(v, 1, dof) for v in x]))
    assert ks_asymptotic_pvalue(d, reps) > 0.001



def _draws(rng: np.random.Generator) -> list:
    """A stream's first draws through the calls the package makes, and 32-bit draws."""
    # a float32 takes half of a 64-bit output and PCG64 buffers the other half,
    # so a stream must start, and the next one start again, with no half buffered
    return [
        rng.random(3, dtype=np.float32),
        rng.standard_normal(7),
        rng.chisquare(30.0 - np.arange(5)),
        rng.choice(50, 10, replace=False),
        rng.random(3, dtype=np.float32),
    ]


def _assert_same_draws(a: list, b: list) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize(
    "start, stop",
    [(0, 6), (2**32 - 3, 2**32 + 3), (2**64 - 2, 2**64)],
    ids=["first", "across-2**32", "last"],
)
def test_substreams_match_seedspec_generators(master_seed, start, stop):
    # across 2**32 the spawn key grows from one uint32 word to two
    block = [_draws(rng) for rng in substreams(master_seed, start, stop)]
    ref = [_draws(SeedSpec(master_seed, r).generator()) for r in range(start, stop)]
    assert len(block) == stop - start
    for got, want in zip(block, ref):
        _assert_same_draws(got, want)


@pytest.mark.parametrize("start", [0, 7, 2**64])
def test_substreams_empty_block(start):
    assert list(substreams(3, start, start)) == []


@pytest.mark.parametrize(
    "master_seed, start, stop",
    [(-1, 0, 1), (2**64, 0, 1), (0, -1, 1), (0, 0, 2**64 + 1), (0, 5, 4)],
)
def test_substreams_bounds_raise_at_the_call(master_seed, start, stop):
    with pytest.raises(BadDimension):
        substreams(master_seed, start, stop)


def test_substreams_reseat_one_generator():
    # every yielded generator is one object, re-seated as the block advances
    block = substreams(9, 4, 7)
    first = next(block)
    first.standard_normal(3)  # advancing one stream leaves the next one's seed alone
    second = next(block)
    assert second is first
    _assert_same_draws(_draws(second), _draws(SeedSpec(9, 5).generator()))
    assert next(block) is first
    with pytest.raises(StopIteration):
        next(block)


def _reference_substreams(master_seed, start, stop):
    return (SeedSpec(master_seed, r).generator() for r in range(start, stop))


def _hot_loop_outputs():
    """Outputs of the three loops that seed replicates through substreams."""
    null = simulate_null_statistics(
        ("T_el", "T_pr", "T_LR"), 5, 30, 1, reps=50, master_seed=2**32 + 5, chunk_size=16
    )
    cfg = ScenarioConfig("s1", p=4, K=1, T=30, reps=30, master_seed=8, alpha=0.2)
    criticals = resolve_criticals("closed-form", cfg.model, cfg.alpha)
    power = run_power_study(cfg, (-0.5, 0.0, 0.5), criticals)
    rng = np.random.default_rng(12)
    values = rng.standard_normal((60, 9))
    panel = ReturnsPanel(
        labels=tuple(f"c{i}" for i in range(9)),
        times=tuple(str(t) for t in range(60)),
        values=values,
        asset_columns=tuple(range(8)),
        factor_columns=(8,),
        demean=True,
    )
    batch = batch_subset_test(
        panel, 4, 40, critical_source="closed-form", subset_seed=2**64 - 1
    )
    return null, power.rates, batch.quantiles


def test_hot_loops_match_a_seedspec_reference_loop(monkeypatch):
    block = _hot_loop_outputs()
    for module in (factorlens.calibrate, factorlens.powersim, factorlens.report):
        monkeypatch.setattr(module, "substreams", _reference_substreams)
    ref = _hot_loop_outputs()
    for got, want in zip(block, ref):
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key], want[key]), key
