import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import betaln, chdtrc, fdtrc, hyp2f1

from factorlens import (
    ZjDensityParams,
    chi2_cdf,
    chi2_quantile,
    density_Z,
    f_cdf,
    f_quantile,
    ln_gamma,
    marginal_power_Z,
    normal_cdf,
    normal_quantile,
)
from factorlens.errors import DomainError
from factorlens.special import chi2_sf, f_sf


# ---------------------------------------------------------------------------
# independent oracles (no factorlens code paths)
# ---------------------------------------------------------------------------

def _f_density_oracle(x, d1, d2):
    h1, h2 = d1 / 2.0, d2 / 2.0
    beta = math.gamma(h1) * math.gamma(h2) / math.gamma(h1 + h2)
    return (d1 / d2) ** h1 * x ** (h1 - 1.0) * (1.0 + d1 * x / d2) ** (-(h1 + h2)) / beta


def _f_quantile_oracle(p, d1, d2):
    # bisection on the quadrature of the density
    def cdf(x):
        return integrate.quad(_f_density_oracle, 0.0, x, args=(d1, d2), limit=200)[0]

    lo, hi = 0.0, 1.0
    while cdf(hi) < p:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ln_f_density_oracle(x, d1, d2):
    h1, h2 = d1 / 2.0, d2 / 2.0
    return (
        h1 * math.log(d1 / d2) + (h1 - 1.0) * math.log(x)
        - (h1 + h2) * math.log1p(d1 * x / d2) - betaln(h1, h2)
    )


def _paper_density_oracle(x, q, n, lam):
    # the paper's form: central F_{q,n} density * (1+lam)^(-m) * 2F1(m, m; q/2; w)
    m = (n + q) / 2.0
    w = q * x / (n + q * x) * lam / (1.0 + lam)
    scale = math.exp(_ln_f_density_oracle(x, q, n) - m * math.log1p(lam))
    return scale * hyp2f1(m, m, q / 2.0, w)


def _normal_quantile_oracle(p):
    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# ln_gamma
# ---------------------------------------------------------------------------

def test_ln_gamma_values():
    assert ln_gamma(1.0) == 0.0
    assert_allclose(ln_gamma(0.5), math.log(math.sqrt(math.pi)), atol=1e-14)
    assert_allclose(ln_gamma(11.0), math.log(3628800.0), atol=1e-12)


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-2.5)


# ---------------------------------------------------------------------------
# F / chi-square / normal cdfs and quantiles
# ---------------------------------------------------------------------------

def test_f_cdf_at_zero():
    assert f_cdf(0.0, 3.0, 7.0) == 0.0


def test_f_median_symmetric_dof():
    for d in (3.0, 11.0):
        assert_allclose(f_quantile(0.5, d, d), 1.0, rtol=1e-10)


def test_f_quantile_against_quadrature_oracle():
    v = f_quantile(0.95, 1, 10)
    assert_allclose(v, _f_quantile_oracle(0.95, 1.0, 10.0), rtol=1e-8)
    assert_allclose(f_cdf(v, 1, 10), 0.95, atol=1e-10)


def test_roundtrips_on_quantile_grid():
    grid = np.arange(0.01, 1.0, 0.01)
    for p in grid:
        p = float(p)
        assert abs(f_cdf(f_quantile(p, 4, 17), 4, 17) - p) <= 1e-8
        assert abs(chi2_cdf(chi2_quantile(p, 9), 9) - p) <= 1e-8
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-8


def test_chi2_exponential_special_case():
    for p in (0.1, 0.5, 0.95):
        assert_allclose(chi2_quantile(p, 2), -2.0 * math.log1p(-p), rtol=1e-12)


def test_chi2_cdf_at_zero():
    assert chi2_cdf(0.0, 5.0) == 0.0


def test_survival_functions_match_scipy_tails():
    for x in (0.0, 0.5, 3.0, 40.0, 100.0, 400.0):
        assert_allclose(chi2_sf(x, 1), float(chdtrc(1, x)), rtol=1e-15)
        assert_allclose(chi2_sf(x, 45), float(chdtrc(45, x)), rtol=1e-15)
        assert_allclose(f_sf(x, 1, 30), float(fdtrc(1, 30, x)), rtol=1e-15)
    # far in the tail, where 1 - cdf rounds to zero
    assert chi2_sf(200.0, 45) > 0.0
    assert 1.0 - chi2_cdf(200.0, 45) == 0.0
    with pytest.raises(DomainError):
        chi2_sf(-1.0, 3)
    with pytest.raises(DomainError):
        chi2_sf(1.0, 0)
    with pytest.raises(DomainError):
        f_sf(-1.0, 2, 5)
    with pytest.raises(DomainError):
        f_sf(1.0, 2, 0)


def test_normal_quantile_value():
    assert_allclose(normal_quantile(0.975), 1.959964, atol=5e-7)
    assert_allclose(normal_quantile(0.975), _normal_quantile_oracle(0.975), atol=1e-10)


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            f_quantile(bad, 2, 5)
        with pytest.raises(DomainError):
            chi2_quantile(bad, 3)
        with pytest.raises(DomainError):
            normal_quantile(bad)
    with pytest.raises(DomainError):
        f_cdf(-1.0, 2, 5)


@pytest.mark.parametrize(
    "cdf, dofs",
    [
        (f_cdf, (1, 418)), (f_cdf, (26, 2)), (chi2_cdf, (45,)), (chi2_cdf, (1.5,)),
        (f_sf, (1, 418)), (f_sf, (26, 2)), (chi2_sf, (45,)), (chi2_sf, (1.5,)),
    ],
)
def test_cdf_array_input_matches_scalar_calls(cdf, dofs):
    x = np.concatenate([[0.0, 1e-300, 0.5, 1.0, 20.0, 200.0, 1e6, np.inf],
                        np.random.default_rng(3).gamma(2.0, 5.0, 50)])
    got = cdf(x, *dofs)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    want = [cdf(float(v), *dofs) for v in x]
    assert all(isinstance(w, float) for w in want)
    assert got.tobytes() == np.array(want).tobytes()
    assert got.reshape(2, -1).tobytes() == cdf(x.reshape(2, -1), *dofs).tobytes()
    assert isinstance(cdf(np.float64(3.0), *dofs), float)
    for bad in (np.array([1.0, -1e-300, 2.0]), np.array([[3.0], [-2.0]]), [0.5, -1.0]):
        with pytest.raises(DomainError):
            cdf(bad, *dofs)


def test_normal_cdf_array_input_matches_scalar_calls():
    x = np.concatenate([[-np.inf, -40.0, -8.5, -1e-300, 0.0, 1.0, 40.0, np.inf],
                        np.random.default_rng(4).normal(0.0, 5.0, 50)])
    got = normal_cdf(x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    want = [normal_cdf(float(v)) for v in x]
    assert all(isinstance(w, float) for w in want)
    assert got.tobytes() == np.array(want).tobytes()
    assert got.reshape(2, -1).tobytes() == normal_cdf(x.reshape(2, -1)).tobytes()
    assert isinstance(normal_cdf(np.float64(-3.0)), float)


# ---------------------------------------------------------------------------
# density of the noncentral marginal statistic
# ---------------------------------------------------------------------------

def test_density_reduces_to_central_f_at_zero_lambda():
    params = ZjDensityParams(q=1, n=20, lam=0.0)
    xs = np.linspace(0.01, 8.0, 50)
    for x in xs:
        assert_allclose(
            density_Z(float(x), params), _f_density_oracle(float(x), 1.0, 20.0), rtol=1e-10
        )


def test_density_central_grid_multiple_q():
    for q, n in [(3, 15), (9, 40)]:
        params = ZjDensityParams(q=q, n=n, lam=0.0)
        for x in np.linspace(0.05, 5.0, 50):
            assert_allclose(
                density_Z(float(x), params),
                _f_density_oracle(float(x), float(q), float(n)),
                rtol=1e-10,
            )


def test_density_at_origin():
    assert density_Z(0.0, ZjDensityParams(q=3, n=10, lam=2.0)) == 0.0
    assert density_Z(0.0, ZjDensityParams(q=9, n=10, lam=0.5)) == 0.0
    assert math.isinf(density_Z(0.0, ZjDensityParams(q=1, n=10, lam=1.0)))
    # q = 2: central F density is 1 at 0; scaled by (1+lam)^(-(n+2)/2)
    val = density_Z(0.0, ZjDensityParams(q=2, n=10, lam=1.0))
    assert_allclose(val, 2.0 ** (-6.0), rtol=1e-12)


def test_density_integrates_to_one_grid():
    for q in (1, 5, 19):
        for n in (10, 50):
            for lam in (0.0, 1.0, 5.0):
                params = ZjDensityParams(q=q, n=n, lam=lam)
                total = marginal_power_Z(0.0, params)
                assert abs(total - 1.0) <= 1e-6, (q, n, lam, total)


def test_density_finite_where_2f1_factor_overflows():
    # 2F1(249.5, 249.5; 0.5; w) alone overflows a float here
    value = density_Z(40.0, ZjDensityParams(q=1, n=498, lam=20.0))
    assert math.isfinite(value) and value > 0.0
    assert_allclose(value, 1.6344863671744e-273, rtol=1e-12)


def test_density_far_tail_keeps_relative_accuracy():
    # past the negative-binomial truncation the Beta terms still grow with k
    q, n, lam = 99, 419, 0.02
    x = 10.0 * f_quantile(0.95, q, n)
    assert_allclose(
        density_Z(x, ZjDensityParams(q=q, n=n, lam=lam)),
        _paper_density_oracle(x, q, n, lam),
        rtol=1e-12,
    )


def test_density_rejects_bad_params():
    with pytest.raises(DomainError):
        ZjDensityParams(q=0, n=10, lam=0.0)
    with pytest.raises(DomainError):
        ZjDensityParams(q=1, n=0, lam=0.0)
    with pytest.raises(DomainError):
        ZjDensityParams(q=1, n=10, lam=-0.5)
    with pytest.raises(DomainError):
        density_Z(-0.1, ZjDensityParams(q=1, n=10, lam=0.0))


# ---------------------------------------------------------------------------
# marginal power
# ---------------------------------------------------------------------------

def test_power_at_zero_critical_is_one():
    assert_allclose(
        marginal_power_Z(0.0, ZjDensityParams(q=4, n=30, lam=2.0)), 1.0, atol=1e-7
    )


def test_power_size_equals_nominal_at_null():
    for q, n, alpha in [(1, 25, 0.05), (9, 16, 0.1)]:
        crit = f_quantile(1.0 - alpha, q, n)
        power = marginal_power_Z(crit, ZjDensityParams(q=q, n=n, lam=0.0))
        assert_allclose(power, alpha, atol=1e-7)


def test_power_monotone_in_lambda():
    crit = f_quantile(0.95, 1, 25)
    values = [
        marginal_power_Z(crit, ZjDensityParams(q=1, n=25, lam=l))
        for l in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.99


def test_power_matches_simulation_oracle():
    # exact-law oracle: W ~ Wishart(T-K, Omega^{-1}), statistics from W^{-1};
    # small-lambda setting keeps the power informative (not saturated)
    import factorlens as fl
    from factorlens.randmat import bartlett_factor
    from factorlens.teststats import PrecisionStats, stat_t_ij, stat_t_j

    p, T, K = 5, 30, 1
    dof = T - K - p + 1
    d = math.sqrt(0.3 / 1.3)  # lambda = 0.3
    lam = d * d / (1.0 - d * d)
    omega = np.eye(p)
    omega[0, 1] = omega[1, 0] = d
    chol = np.linalg.cholesky(np.linalg.inv(omega))
    reps = 20_000
    t12 = np.empty(reps)
    t1 = np.empty(reps)
    for r in range(reps):
        gen = fl.SeedSpec(2718, r).generator()
        a = bartlett_factor(p, T - K, gen)
        w = chol @ (a @ a.T) @ chol.T
        v11 = np.linalg.inv(w)
        ps = PrecisionStats(
            p=p, T=T, K=K, demeaned=False, dof_n=dof,
            V11=fl.SymMatrix(v11), V11_inv=fl.SymMatrix(w),
            diag_v11=np.diagonal(v11).copy(), diag_v11_inv=np.diagonal(w).copy(),
        )
        t12[r] = stat_t_ij(ps, 2, 1)
        t1[r] = stat_t_j(ps, 1)
    for sample, q in ((t12, 1), (t1, p - 1)):
        crit = f_quantile(0.95, q, dof)
        theory = marginal_power_Z(crit, ZjDensityParams(q=q, n=dof, lam=lam))
        mc = float(np.mean(sample > crit))
        se = math.sqrt(theory * (1.0 - theory) / reps)
        assert abs(mc - theory) <= 3.0 * se, (q, mc, theory)


# (q, n, lam) from the smallest degrees to the per-column and per-pair
# members at p = 100, T = 518, K = 1
MIXTURE_CASES = [
    (1, 2, 1.0),
    (1, 25, 0.3),
    (4, 25, 1.0),
    (19, 80, 0.5),
    (49, 200, 0.1),
    (99, 419, 0.02),
    (1, 418, 0.3),
]


@pytest.mark.parametrize("q,n,lam", MIXTURE_CASES)
def test_power_matches_2f1_density_quadrature(q, n, lam):
    crit = f_quantile(0.95, q, n)
    reference = integrate.quad(
        _paper_density_oracle, crit, np.inf, args=(q, n, lam),
        epsabs=1e-13, epsrel=1e-13, limit=500,
    )[0]
    assert_allclose(
        marginal_power_Z(crit, ZjDensityParams(q=q, n=n, lam=lam)), reference, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "q,n,lam,crit",
    [(4, 25, 1.0, f_quantile(0.95, 4, 25)), (1, 498, 20.0, 1.0e4)],
)
def test_density_integrates_to_power(q, n, lam, crit):
    # the second case sums about 10^4 mixture terms
    params = ZjDensityParams(q=q, n=n, lam=lam)
    tail = integrate.quad(
        density_Z, crit, np.inf, args=(params,), epsabs=1e-12, epsrel=1e-12, limit=500
    )[0]
    assert_allclose(tail, marginal_power_Z(crit, params), rtol=0, atol=1e-10)


def test_power_saturates_far_from_the_null():
    # lam = 20 puts the statistic near 10^4, far beyond the 5% point 3.86
    params = ZjDensityParams(q=1, n=498, lam=20.0)
    assert_allclose(marginal_power_Z(f_quantile(0.95, 1, 498), params), 1.0, rtol=0, atol=1e-12)


def test_power_and_density_reject_oversized_mixture():
    # lam * (n+q)/2 near 1e6 would need more than a million terms
    params = ZjDensityParams(q=1, n=500, lam=1e6)
    with pytest.raises(DomainError):
        marginal_power_Z(1.0, params)
    with pytest.raises(DomainError):
        density_Z(1.0, params)
    with pytest.raises(DomainError):
        marginal_power_Z(1.0, ZjDensityParams(q=1, n=500, lam=math.inf))


def test_power_domain():
    with pytest.raises(DomainError):
        marginal_power_Z(-1.0, ZjDensityParams(q=1, n=10, lam=0.0))
