import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import chdtrc, fdtrc

from factorlens import (
    Regime,
    chi2_quantile,
    f_cdf,
    f_quantile,
    select_regime,
    tj_boundary_pvalue,
    tj_standardize,
    tlr_standardize,
)
from factorlens.asymptotics import (
    BOUNDARY,
    CONCENTRATION,
    lr_clt_mean,
    lr_clt_sigma,
    tj_mean_adjustment,
    tj_variance_adjustment,
)
from factorlens.errors import DegenerateDof, DomainError
from factorlens.report import resolve_criticals
from factorlens.teststats import FactorModelSpec


def _law(source, test, p, T, K=0):
    """One test's law under a source at (p, T, K), resolved at alpha 0.05."""
    return resolve_criticals(source, FactorModelSpec(p=p, K=K, T=T), 0.05).laws[test]


# the highdim T_el law at c = 0.2 and at boundary slack d = 5
EL_CONCENTRATION = _law("highdim", "T_el", 10, 50)
EL_BOUNDARY = _law("highdim", "T_el", 10, 15)


def test_regime_construction():
    r = Regime.concentration(0.2)
    assert r.kind == CONCENTRATION and r.c == 0.2 and r.d is None
    b = Regime.boundary(4.0)
    assert b.kind == BOUNDARY and b.d == 4.0 and b.c is None
    with pytest.raises(DomainError):
        Regime.concentration(1.2)
    with pytest.raises(DomainError):
        Regime.boundary(-1.0)
    with pytest.raises(DomainError):
        Regime(kind=CONCENTRATION, c=0.5, d=3.0)


def test_select_regime_cutoff():
    assert select_regime(100, 510, 10).kind == CONCENTRATION
    r = select_regime(200, 215, 10)
    assert r.kind == BOUNDARY and r.d == 5.0
    with pytest.warns(UserWarning):
        select_regime(200, 212, 10)  # d = 2 < 4 warns


def test_highdim_el_law_tail():
    assert EL_CONCENTRATION.tail(0.0) == 1.0
    assert_allclose(EL_CONCENTRATION.tail(chi2_quantile(0.95, 1)), 0.05, atol=1e-12)
    bd = _law("highdim", "T_el", 10, 19)  # d = 9
    assert_allclose(bd.tail(f_quantile(0.95, 1, 10)), 0.05, atol=1e-12)
    with pytest.raises(DomainError):
        EL_CONCENTRATION.tail(-1.0)


def test_highdim_el_law_tail_is_a_survival_function():
    # 1 - cdf would round these to 0; chdtrc(1, 100) = 1.52e-23
    for t in (0.5, 3.0, 40.0, 100.0, 300.0):
        assert_allclose(EL_CONCENTRATION.tail(t), float(chdtrc(1, t)), rtol=1e-12)
        assert_allclose(EL_BOUNDARY.tail(t), float(fdtrc(1, 6.0, t)), rtol=1e-12)
    assert 0.0 < EL_CONCENTRATION.tail(100.0) < 1e-22


def test_tij_f_limit_close_to_chi2_for_large_denominator():
    # F(1, n) and chi-square(1) tails differ by < 0.01 uniformly once n >= 400:
    # the highdim T_el limit against the exact closed-form marginal at dof_n = 400
    limit, exact = _law("highdim", "T_el", 10, 409), _law("closed-form", "T_el", 10, 409)
    for t in np.linspace(0.0, 30.0, 121):
        assert abs(limit.tail(float(t)) - exact.tail(float(t))) < 0.01


def test_tj_standardize_trivial_points():
    mu = tj_mean_adjustment(100, 500, 10)
    assert_allclose(tj_standardize(mu, 100, 500, 10), 0.0, atol=1e-12)


def test_tj_adjustment_values():
    # p=100, T=500, K=10: mu = 391/389, var = 2*488*391^2/(387*389^2)
    mu = tj_mean_adjustment(100, 500, 10)
    var = tj_variance_adjustment(100, 500, 10)
    assert_allclose(mu, 391.0 / 389.0, rtol=1e-15)
    assert_allclose(var, 2.0 * 488.0 * 391.0**2 / (387.0 * 389.0**2), rtol=1e-15)


def test_tj_standardize_agrees_with_the_limit_form_when_slack_large():
    # the limit form sqrt(p-1)(t_j - 1) sqrt((1-c)/2), c = p/(T-K), agrees
    # with the finite-sample form within 0.05 over the null bulk of t_j
    p, T, K = 25, 300, 10  # slack T-K-p = 265 >= 200
    c = p / (T - K)
    mu = tj_mean_adjustment(p, T, K)
    sd = math.sqrt(tj_variance_adjustment(p, T, K) / (p - 1))
    for t in np.linspace(mu - 2 * sd, mu + 2 * sd, 41):
        limit = math.sqrt(p - 1.0) * (t - 1.0) * math.sqrt((1.0 - c) / 2.0)
        assert abs(limit - tj_standardize(float(t), p, T, K)) <= 0.05


def test_tj_standardize_errors():
    with pytest.raises(DegenerateDof):
        tj_standardize(1.0, 10, 14, 1)  # slack 3: no finite null variance


def test_tj_boundary_pvalue_inversion():
    d = 4.0
    t = (d + 1.0) / chi2_quantile(0.05, d + 1.0)
    assert_allclose(tj_boundary_pvalue(t, d), 0.05, atol=1e-12)
    assert tj_boundary_pvalue(1e9, d) < 1e-6
    with pytest.raises(DomainError):
        tj_boundary_pvalue(0.0, d)


@pytest.mark.parametrize(
    "pvalue",
    [
        EL_CONCENTRATION.tail,
        EL_BOUNDARY.tail,
        lambda t: tj_boundary_pvalue(t, 5.0),
        lambda t: tj_boundary_pvalue(t, 0.5),
    ],
    ids=["tij-concentration", "tij-boundary", "tj-boundary-5", "tj-boundary-0.5"],
)
def test_pvalue_array_input_matches_scalar_calls(pvalue):
    t = np.concatenate([[1e-300, 0.01, 0.5, 1.0, 3.0, 40.0, 300.0, 1e6, np.inf],
                        np.random.default_rng(5).gamma(2.0, 2.0, 49)])
    got = pvalue(t)
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    want = [pvalue(float(v)) for v in t]
    assert all(isinstance(w, float) for w in want)
    assert got.tobytes() == np.array(want).tobytes()
    assert got.reshape(2, -1).tobytes() == pvalue(t.reshape(2, -1)).tobytes()
    assert isinstance(pvalue(np.float64(3.0)), float)
    for bad in (np.array([1.0, -1e-300, 2.0]), np.array([[3.0], [-2.0]])):
        with pytest.raises(DomainError):
            pvalue(bad)


def test_boundary_pvalue_rejects_a_zero_entry():
    with pytest.raises(DomainError):
        tj_boundary_pvalue(np.array([2.0, 0.0, 1.0]), 4.0)
    # a zero pair statistic is in the domain
    assert EL_CONCENTRATION.tail(np.array([0.0, 1.0]))[0] == 1.0


def test_lr_clt_constants_worked_example():
    # p=100, T-K=500 (K=10, T=510)
    mu = lr_clt_mean(100, 510, 10)
    sigma = lr_clt_sigma(100, 510, 10)
    assert_allclose(mu, (-399.5) * math.log(0.8) - (499.0 / 500.0) * 100.0, rtol=1e-12)
    assert_allclose(mu, -10.6545, atol=5e-4)  # quoted figure is a 4-dp display
    assert_allclose(sigma, -2.0 * (0.2 + math.log(0.8)), rtol=1e-12)
    assert_allclose(sigma, 0.0462867, atol=1e-6)  # quoted figure is a display rounding


def test_lr_clt_sigma_positive_on_unit_interval():
    # -x - ln(1-x) > 0 for all 0 < x < 1
    for n, T, K in [(500, 510, 10), (250, 260, 10)]:
        for p in range(1, n, 7):
            assert lr_clt_sigma(p, T, K) > 0.0


def test_tlr_standardize_conventions_differ_by_sqrt_sigma():
    # sigma is read as a variance; the literal reading as a deviation would
    # divide by sigma itself
    p, T, K = 100, 510, 10
    sigma = lr_clt_sigma(p, T, K)
    z_var = tlr_standardize(50.0, p, T, K)
    z_dev = ((2.0 / T) * 50.0 + lr_clt_mean(p, T, K)) / sigma
    assert_allclose(z_dev * math.sqrt(sigma), z_var, rtol=1e-12)
    with pytest.raises(DomainError):
        tlr_standardize(50.0, 600, 510, 10)


def test_tlr_standardize_vectorized():
    z = tlr_standardize(np.array([0.0, 10.0, 20.0]), 100, 510, 10)
    assert z.shape == (3,)
    assert np.all(np.diff(z) > 0)


def test_tj_boundary_critical_size():
    # the highdim T_pr critical value at boundary slack d = 6 over p = 10 columns
    d, p = 6.0, 10
    crit = resolve_criticals("highdim", FactorModelSpec(p=p, K=1, T=17), 0.05).values["T_pr"]
    assert_allclose(tj_boundary_pvalue(crit, d), 0.05 / p, atol=1e-12)


def test_tlr_standardized_null_sample_moments():
    # operational check of the log-determinant CLT at two concentrations
    from factorlens import simulate_null_statistics

    for p, T, K, seed in [(60, 310, 10, 5), (60, 177, 10, 6)]:
        out = simulate_null_statistics(
            ("T_LR_standardized",), p, T, K, reps=4000, master_seed=seed
        )
        z = out["T_LR_standardized"]
        assert abs(z.mean()) <= 0.08
        assert 0.9 <= z.var() <= 1.1
