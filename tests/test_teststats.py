import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dtrtri

from factorlens import (
    FactorModelSpec,
    FactorStats,
    SeedSpec,
    compute_all,
    precision_stats_from_data,
    stat_ln_t_lr_star,
    stats_from_precision,
)
from factorlens.errors import BadDimension, FactorLensError, NotPositiveDefinite, Singular
from factorlens.asymptotics import tlr_standardize
from factorlens.calibrate import MARGINAL_STATISTICS, READERS, STATISTICS, simulate_null_statistics
from factorlens.randmat import bartlett_factor
from factorlens import linalg
from factorlens.linalg import stacked_cholesky
from factorlens.teststats import residual_factors
from conftest import ks_asymptotic_pvalue, ks_statistic, null_kernel, rand_spd

# V11 = [[2,1],[1,2]] with dof_n = 11 (T=12, K=0) is the worked 2x2 case
V2 = np.array([[2.0, 1.0], [1.0, 2.0]])


def _ps2(T=12, K=0):
    return stats_from_precision(V2, T=T, K=K)


def _ps_from(v11, dof_n):
    # pick T = dof_n + p - 1, K = 0 so that T - K - p + 1 = dof_n
    v11 = np.asarray(v11)
    p = v11.shape[0]
    return stats_from_precision(v11, T=dof_n + p - 1, K=0)


def test_factor_model_spec_validation():
    spec = FactorModelSpec(p=10, K=5, T=30)
    assert spec.dof_n == 16
    assert FactorModelSpec(p=10, K=5, T=30, demeaned=True).dof_n == 15
    with pytest.raises(BadDimension):
        FactorModelSpec(p=1, K=0, T=10)
    with pytest.raises(BadDimension):
        FactorModelSpec(p=10, K=5, T=15)
    with pytest.raises(BadDimension):
        FactorModelSpec(p=2, K=-1, T=10)


def test_stats_from_precision_reads_upper_triangle():
    noisy = np.array([[2.0, 1.0], [999.0, 2.0]])
    assert np.array_equal(stats_from_precision(noisy, T=12, K=0).v, _ps2().v)


def test_stats_from_precision_rejects_nonsquare():
    for shape in ((2, 3), (3,), (0, 0), (1, 2, 2)):
        with pytest.raises(BadDimension):
            stats_from_precision(np.ones(shape), T=12, K=0)


@pytest.mark.parametrize("demeaned", [False, True])
def test_one_dataset_entry_points_share_the_dimension_check(demeaned):
    # p + K = T_eff would leave dof_n = 1: every entry point needs p + K < T_eff
    p, K = 5, 2
    T = p + K + int(demeaned)  # T_eff = p + K
    v11 = np.eye(p) + 0.1
    X, F = np.random.default_rng(3).standard_normal((2, 8, T + 1))
    with pytest.raises(BadDimension):
        stats_from_precision(v11, T=T, K=K, demeaned=demeaned)
    with pytest.raises(BadDimension):
        precision_stats_from_data(X[:p, :T], F[:K, :T], demeaned=demeaned)
    with pytest.raises(BadDimension):
        FactorModelSpec(p=p, K=K, T=T, demeaned=demeaned)
    with pytest.raises(BadDimension):
        stats_from_precision(v11, T=T + 10, K=-1, demeaned=demeaned)
    # one more observation gives dof_n = 2 at each of them
    assert stats_from_precision(v11, T=T + 1, K=K, demeaned=demeaned).dof_n == 2
    assert precision_stats_from_data(X[:p], F[:K], demeaned=demeaned).dof_n == 2
    assert FactorModelSpec(p=p, K=K, T=T + 1, demeaned=demeaned).dof_n == 2
    # one series has no pair: refused at every T, as a scalar precision block
    with pytest.raises(BadDimension):
        stats_from_precision(np.array([[2.0]]), T=T + 10, K=K, demeaned=demeaned)
    with pytest.raises(BadDimension):
        precision_stats_from_data(X[:1], F[:K], demeaned=demeaned)
    with pytest.raises(BadDimension):
        precision_stats_from_data(X[0], None, demeaned=demeaned)


@pytest.mark.parametrize(
    "shape, t_eff, K",
    [
        ((1, 1, 1), 1, 0),  # p = 1 at dof_n = 1
        ((1, 1, 1), 50, 2),  # p = 1 at dof_n = 48
        ((1, 2, 2), 0, -3),  # K < 0 at dof_n = 2
        ((1, 2, 2), 2, 1),  # dof_n = 0
        ((2, 2), 10, 0),  # not a stack
        ((1, 2, 3), 10, 0),  # not square
    ],
)
def test_kernel_refuses_what_no_statistic_is_defined_on(shape, t_eff, K):
    L = np.zeros(shape)
    L[..., range(min(shape[-2:])), range(min(shape[-2:]))] = 1.0
    with pytest.raises(BadDimension):
        FactorStats(L, t_eff, K)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 3),
    p=st.integers(0, 5),
    t_eff=st.integers(-2, 12),
    K=st.integers(-3, 4),
)
@example(seed=0, m=1, p=1, t_eff=50, K=0)  # p = 1: the kernel's pair arrays are empty
@example(seed=0, m=1, p=2, t_eff=0, K=-3)  # K < 0: T_LR divided by T_eff = 0
@example(seed=0, m=1, p=2, t_eff=2, K=0)  # the smallest kernel, dof_n = 1
def test_a_kernel_reads_every_statistic_of_what_it_accepts(seed, m, p, t_eff, K):
    rng = np.random.default_rng(seed)
    L = np.tril(rng.standard_normal((m, p, p)), -1)
    L[:, range(p), range(p)] = rng.uniform(0.5, 2.0, (m, p))
    try:
        kernel = FactorStats(L, t_eff, K)
    except BadDimension:
        assert p < 2 or K < 0 or t_eff - K - p + 1 < 1
        return
    for name in ("v_lower", "v", "diag_v", "t_ij", "t_el", "t_j", "ln_t_lr_star", "t_lr"):
        assert getattr(kernel, name).shape[0] == m, name
    for read in READERS.values():
        try:
            read(kernel)
        except FactorLensError:
            pass  # a named refusal: the log-determinant CLT needs p < T_eff - K
    if m:
        compute_all(kernel)


def test_t_ij_worked_example():
    ps = _ps2()
    assert ps.dof_n == 11
    assert_allclose(ps.t_ij[0, 0], 11.0 / 3.0, rtol=1e-14)


def test_t_ij_zero_for_diagonal():
    ps = _ps_from(np.diag([3.0, 1.0, 0.5]), dof_n=9)
    assert np.array_equal(ps.t_ij[0], np.zeros(3))  # pairs (2,1), (3,1), (3,2)


def test_t_el_worked_and_tie_break():
    ps = _ps2()
    stats = compute_all(ps)
    assert_allclose(stats.t_el, ps.t_ij[0, 0], rtol=1e-15)
    assert stats.t_el_argmax == (2, 1)
    stats = compute_all(_ps_from(np.diag([1.0, 2.0, 3.0]), dof_n=7))
    assert stats.t_el == 0.0 and stats.t_el_argmax == (2, 1)


def test_t_j_worked_example():
    ps = _ps2()
    # v_11 = 2, first diagonal of the inverse is 2/3
    assert_allclose(ps.t_j[0, 0], 11.0 * (2.0 * 2.0 / 3.0 - 1.0), rtol=1e-12)
    assert_allclose(ps.t_j[0, 0], 11.0 / 3.0, rtol=1e-12)


def test_t_j_equals_t_ij_for_p2():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ps = _ps_from(rand_spd(rng, 2), dof_n=int(rng.integers(2, 40)))
        tj = ps.t_j[0, 0]
        tij = ps.t_ij[0, 0]
        assert abs(tj - tij) <= 1e-12 * max(1.0, abs(tij))
        # both columns agree in the 2x2 case
        assert abs(ps.t_j[0, 1] - tj) <= 1e-10 * max(1.0, abs(tj))


def test_t_j_zero_iff_decoupled_row():
    m = np.eye(4)
    m[0, 1] = m[1, 0] = 0.4
    ps = _ps_from(m, dof_n=11)
    assert ps.t_j[0, 2] <= 1e-10
    assert ps.t_j[0, 3] <= 1e-10
    assert ps.t_j[0, 0] > 0.1


def test_t_pr_worked():
    stats = compute_all(_ps2())
    assert_allclose(stats.t_pr, 11.0 / 3.0, rtol=1e-12)
    assert stats.t_pr_argmax == 1  # tie between the two columns resolves to the smallest
    stats = compute_all(_ps_from(np.diag([2.0, 1.0]), dof_n=5))
    assert (stats.t_pr, stats.t_pr_argmax) == (0.0, 1)


def test_ln_t_lr_star_worked_2x2():
    ps = _ps2(T=13)
    # correlation determinant is 3/4; T_eff = 13
    assert_allclose(stat_ln_t_lr_star(ps), (13.0 / 2.0) * math.log(4.0 / 3.0), rtol=1e-12)
    assert_allclose(stat_ln_t_lr_star(ps), 1.86994, rtol=1e-5)


def test_ln_t_lr_star_zero_for_diagonal():
    ps = _ps_from(np.diag([0.2, 5.0, 1.0]), dof_n=20)
    assert stat_ln_t_lr_star(ps) == 0.0


def test_ln_t_lr_star_two_forms_agree(rng):
    # determinant-ratio form vs correlation-determinant form
    for _ in range(100):
        p = int(rng.integers(2, 8))
        ps = _ps_from(rand_spd(rng, p), dof_n=int(rng.integers(2, 30)))
        direct = stat_ln_t_lr_star(ps)
        e = ps.L[0] @ ps.L[0].T
        s = 1.0 / np.sqrt(np.diagonal(e))
        corr = e * np.outer(s, s)
        np.fill_diagonal(corr, 1.0)
        alt = -(ps.t_eff / 2.0) * np.linalg.slogdet(corr)[1]
        assert abs(direct - alt) <= 1e-9 * max(1.0, abs(direct))


def test_t_lr_rho_arithmetic():
    # p=20, T=104, K=1: rho = 1 - 45/618
    ps = null_kernel(20, 104, 1, SeedSpec(0, 0))
    rho = 1.0 - 45.0 / 618.0
    expected = 2.0 * rho * (103.0 / 104.0) * stat_ln_t_lr_star(ps)
    assert_allclose(ps.t_lr[0], expected, rtol=1e-12)
    assert_allclose(rho, 0.92718, atol=5e-6)


def test_t_lr_null_mean_matches_chi_square():
    # under the null the corrected statistic has mean near p(p-1)/2
    p, T, K, reps = 5, 100, 2, 10_000
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = null_kernel(p, T, K, SeedSpec(101, r)).t_lr[0]
    f = p * (p - 1) / 2.0
    se = math.sqrt(2.0 * f / reps)  # chi-square variance is 2f
    assert abs(vals.mean() - f) <= 3.0 * se


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8))
def test_scale_invariance_family(seed, p):
    # every statistic is invariant under V11 -> D V11 D with positive diagonal D
    rng = np.random.default_rng(seed)
    v11 = rand_spd(rng, p)
    d = rng.uniform(0.2, 5.0, p)
    dof = int(rng.integers(2, 30))
    base = compute_all(_ps_from(v11, dof))
    scaled = compute_all(_ps_from(v11 * np.outer(d, d), dof))
    assert_allclose(scaled.t_el, base.t_el, rtol=1e-10)
    assert_allclose(scaled.t_pr, base.t_pr, rtol=1e-10)
    assert_allclose(scaled.ln_t_lr_star, base.ln_t_lr_star, rtol=1e-10, atol=1e-10)
    assert_allclose(scaled.t_lr, base.t_lr, rtol=1e-10, atol=1e-10)
    assert scaled.t_el_argmax == base.t_el_argmax
    assert scaled.t_pr_argmax == base.t_pr_argmax


def test_compute_all_retains_marginals():
    ps = _ps2()
    stats = compute_all(ps)
    assert ps.t_ij[0].shape == (1,)
    assert ps.t_j[0].shape == (2,)
    assert_allclose(stats.t_el, ps.t_ij[0].max())
    assert_allclose(stats.t_pr, ps.t_j[0].max())


def test_pairwise_order_matches_argmax_convention():
    rng = np.random.default_rng(3)
    ps = _ps_from(rand_spd(rng, 5), dof_n=12)
    pairs = ps.t_ij[0]
    rows, cols = np.tril_indices(5, -1)
    k = int(np.argmax(pairs))
    stats = compute_all(ps)
    assert stats.t_el_argmax == (rows[k] + 1, cols[k] + 1)
    assert_allclose(stats.t_el, pairs[k])
    assert_allclose(ps.t_j[0].max(), stats.t_pr)


# ---------------------------------------------------------------------------
# precision stats from data
# ---------------------------------------------------------------------------

def test_from_data_demeaned_matches_direct_summation():
    rng = np.random.default_rng(12)
    p, K, T = 3, 2, 40
    X = rng.standard_normal((p, T)) + 0.7
    F = rng.standard_normal((K, T)) - 0.2
    Y = np.vstack([X, F])
    mean = Y.mean(axis=1, keepdims=True)
    s_tilde = sum(
        np.outer(Y[:, t] - mean[:, 0], Y[:, t] - mean[:, 0]) for t in range(T)
    ) / (T - 1)
    v_expected = np.linalg.inv((T - 1) * s_tilde)
    ps = precision_stats_from_data(X, F, demeaned=True)
    assert_allclose(ps.v[0], v_expected[:p, :p], rtol=1e-9)
    assert ps.dof_n == (T - 1) - K - p + 1


def test_from_data_rejects_dependent_columns():
    x = np.ones((3, 10))  # rank one
    with pytest.raises(Singular):
        precision_stats_from_data(x, None)


def test_from_data_rejects_small_T():
    rng = np.random.default_rng(13)
    with pytest.raises(BadDimension):
        precision_stats_from_data(rng.standard_normal((5, 6)), rng.standard_normal((2, 6)))


def test_from_data_null_law_ks():
    # simulated under the null: T_21 follows the exact F law downstream
    from factorlens import f_cdf

    p, K, T, reps = 3, 1, 20, 2500
    dof = T - K - p + 1
    vals = np.empty(reps)
    for r in range(reps):
        gen = SeedSpec(77, r).generator()
        b = gen.uniform(-1.0, 1.0, (p, K))
        f = gen.standard_normal((K, T))
        u = gen.uniform(1.0, 2.0, p)[:, None] * gen.standard_normal((p, T))
        ps = precision_stats_from_data(b @ f + u, f)
        vals[r] = ps.t_ij[0, 0]
    d = ks_statistic(np.sort(vals), lambda x: np.array([f_cdf(v, 1, dof) for v in x]))
    assert ks_asymptotic_pvalue(d, reps) > 0.001


def _reference_statistics(X, F, demeaned):
    # plain numpy: residual scatter from a least-squares regression, inverted
    # with np.linalg.inv, and the statistics written out from V11 = E^-1.
    # v_jj e_jj - 1 is written as q_j / (e_jj - q_j), q_j the part of e_jj
    # explained by the other assets (a Schur complement), so a small T_j keeps
    # its relative precision and p = 2, where T_1 = T_2 exactly, stays a tie.
    p, T = X.shape
    K = F.shape[0]
    if demeaned:
        X = X - X.mean(axis=1, keepdims=True)
        F = F - F.mean(axis=1, keepdims=True)
    t_eff = T - int(demeaned)
    resid = X
    if K:
        coef = np.linalg.lstsq(F.T, X.T, rcond=None)[0]
        resid = X - coef.T @ F
    e = resid @ resid.T
    v = np.linalg.inv(e)
    dof = t_eff - K - p + 1
    d = np.diag(v)
    rows, cols = np.tril_indices(p, -1)
    g2 = v[rows, cols] ** 2 / (d[rows] * d[cols])
    tij = dof * g2 / (1.0 - g2)
    q = np.empty(p)
    for j in range(p):
        o = np.arange(p) != j
        q[j] = e[j, o] @ np.linalg.solve(e[np.ix_(o, o)], e[o, j])
    tj = dof / (p - 1) * q / (np.diag(e) - q)
    ln_star = -(t_eff / 2.0) * (np.linalg.slogdet(e)[1] - np.log(np.diag(e)).sum())
    rho = 1.0 - (2.0 * p + 5.0) / (6.0 * (t_eff - K))
    return tij, tj, ln_star, 2.0 * rho * (t_eff - K) / t_eff * ln_star


def _assert_same_argmax(got, values, want):
    # equal locations, or a near-tie between them in the reference values
    if got != want:
        assert_allclose(values[got], values[want], rtol=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 8),
    K=st.integers(0, 3),
    slack=st.integers(0, 40),
    demeaned=st.booleans(),
)
@example(seed=1, p=2, K=0, slack=0, demeaned=False)
@example(seed=2, p=8, K=3, slack=0, demeaned=True)
@example(seed=6445, p=2, K=0, slack=7, demeaned=False)  # T_j near 1e-7, tied
def test_data_path_matches_numpy_reference(seed, p, K, slack, demeaned):
    # slack = 0 is the boundary p + K = T_eff - 1, where dof_n = 2
    T = p + K + 1 + slack + int(demeaned)
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((K, T)) + 0.5
    X = rng.uniform(-1.0, 1.0, (p, K)) @ F + rng.standard_normal((p, T)) + 0.3
    ps = precision_stats_from_data(X, F if K else None, demeaned=demeaned)
    got = compute_all(ps)
    tij, tj, ln_star, t_lr = _reference_statistics(X, F, demeaned)
    assert_allclose(ps.t_ij[0], tij, rtol=1e-7, atol=1e-9)
    assert_allclose(ps.t_j[0], np.maximum(tj, 0.0), rtol=1e-7, atol=1e-9)
    assert_allclose(got.ln_t_lr_star, max(ln_star, 0.0), rtol=1e-7, atol=1e-9)
    assert_allclose(got.t_lr, max(t_lr, 0.0), rtol=1e-7, atol=1e-9)
    rows, cols = np.tril_indices(p, -1)
    k = int(np.argmax(tij))
    pair_index = {(int(i) + 1, int(j) + 1): n for n, (i, j) in enumerate(zip(rows, cols))}
    _assert_same_argmax(pair_index[got.t_el_argmax], tij, k)
    _assert_same_argmax(got.t_pr_argmax - 1, tj, int(np.argmax(tj)))


@pytest.mark.parametrize("demeaned", [False, True])
def test_from_data_rejects_duplicated_asset(demeaned):
    rng = np.random.default_rng(14)
    X = rng.standard_normal((4, 30))
    X[2] = X[0]
    with pytest.raises(Singular):
        precision_stats_from_data(X, rng.standard_normal((2, 30)), demeaned=demeaned)


def test_from_data_rejects_constant_column_when_demeaned():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((4, 30))
    X[1] = 0.25
    F = rng.standard_normal((1, 30))
    precision_stats_from_data(X, F)  # a constant is a valid series without demeaning
    with pytest.raises(Singular):
        precision_stats_from_data(X, F, demeaned=True)


def _t_el_stacks(p, rng):
    m = 200
    random = np.tril(rng.standard_normal((m, p, p)))
    idx = np.arange(p)
    random[:, idx, idx] = np.abs(random[:, idx, idx]) + 0.1
    # a diagonal factor ties every pair at zero; rows alike below the first
    # tie the pairs (i, 1) at one positive value
    diagonal = np.zeros((m, p, p))
    diagonal[:, idx, idx] = 1.0 + rng.random((m, p))
    tied = np.broadcast_to(np.eye(p), (m, p, p)).copy()
    tied[:, 1:, 0] = 0.5
    # a near-zero last pivot drives some g^2 to 1 and, by rounding, above it
    near_singular = random.copy()
    near_singular[:, -1, -1] = 1e-9 * rng.random(m)
    return random, diagonal, tied, near_singular


@pytest.mark.parametrize("p", [2, 3, 20])
def test_t_el_equals_max_of_pair_statistics_bitwise(p):
    rng = np.random.default_rng(p)
    for L in _t_el_stacks(p, rng):
        kernel = FactorStats(L, 60, 2)
        with np.errstate(divide="ignore"):
            assert np.array_equal(kernel.t_el, kernel.t_ij.max(axis=1))


@pytest.mark.parametrize("p", [2, 5, 20])
def test_readers_take_the_kernel_entries_bitwise(p):
    # pair (i, j) sits at tril position (i-1)(i-2)/2 + j-1, bit for bit the pair
    # computed alone from v_ij, v_ii and v_jj, and column j at j-1, bit for bit
    # the column computed alone from v_jj and e_jj
    rng = np.random.default_rng(40 + p)
    T, K = 3 * p + 10, 2
    F = rng.standard_normal((K, T))
    X = rng.standard_normal((p, K)) @ F + rng.standard_normal((p, T))
    X[1:] += 0.4 * X[0]  # planted correlation, so no pair is zero
    s = precision_stats_from_data(X, F)
    for i in range(2, p + 1):
        for j in range(1, i):
            v_ij, v_ii, v_jj = s.v[0, i - 1, j - 1], s.diag_v[0, i - 1], s.diag_v[0, j - 1]
            g2 = v_ij * v_ij / (v_ii * v_jj)
            alone = s.dof_n * g2 / (1.0 - g2)
            assert s.t_ij[0, (i - 1) * (i - 2) // 2 + j - 1] == alone, (i, j)
    assert compute_all(s).t_el == s.t_ij[0].max()
    for j in range(1, p + 1):
        v_jj, e_jj = s.diag_v[0, j - 1], s.diag_e[0, j - 1]
        alone = (s.dof_n / (p - 1)) * max(v_jj * e_jj - 1.0, 0.0)
        assert s.t_j[0, j - 1] == alone, j


@pytest.mark.parametrize(
    "p, T, K, m",
    [(2, 5, 2, 500), (6, 40, 2, 200), (100, 518, 1, 20)],  # dof_n = 2, 33, 418
)
def test_kernel_matches_plain_numpy_inverse(p, T, K, m):
    L = np.stack(
        [bartlett_factor(p, T - K, SeedSpec(7, r).generator()) for r in range(m)]
    )
    kernel = FactorStats(L, T, K)
    v = np.linalg.inv(L @ np.swapaxes(L, 1, 2))
    diag_v = np.diagonal(v, axis1=1, axis2=2)
    rows, cols = np.tril_indices(p, -1)
    g2 = v[:, rows, cols] ** 2 / (diag_v[:, rows] * diag_v[:, cols])
    t_ij = kernel.dof_n * g2 / (1.0 - g2)
    diag_e = (L * L).sum(axis=2)
    t_j = kernel.dof_n / (p - 1) * np.maximum(diag_v * diag_e - 1.0, 0.0)

    assert np.array_equal(kernel.v, np.swapaxes(kernel.v, 1, 2))
    assert np.array_equal(kernel.diag_v, np.diagonal(kernel.v, axis1=1, axis2=2))
    assert_allclose(kernel.diag_v, diag_v, rtol=1e-10)
    assert_allclose(kernel.t_el, t_ij.max(axis=1), rtol=1e-10)
    assert_allclose(kernel.t_j, t_j, rtol=1e-10)
    # Entries near zero carry the inverse's rounding error relative to the
    # matrix, not to themselves: off-diagonal V is compared on the scale of
    # sqrt(v_ii v_jj), and t_ij, whose null law has mean near 1, with an
    # absolute term as well.
    scale = np.sqrt(diag_v[:, :, None] * diag_v[:, None, :])
    assert_allclose(kernel.v / scale, v / scale, rtol=1e-10, atol=1e-10)
    assert_allclose(kernel.t_ij, t_ij, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("entry", [0.0, -1.0, np.nan, 1e-300])
def test_kernel_rejects_unusable_diagonal(entry):
    L = np.broadcast_to(np.linalg.cholesky(2.0 * np.eye(3) + 0.5), (4, 3, 3)).copy()
    L[2, 1, 1] = entry
    with pytest.raises(NotPositiveDefinite, match="replicate 2"):
        FactorStats(L, 20, 1)


def test_kernel_names_a_factor_lapack_cannot_invert():
    # the constructor checks the factor before it takes a log, so a zero,
    # negative, NaN or subnormal pivot raises there and warns of nothing
    for entry in [0.0, -1.0, np.nan, 1e-300]:
        L = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
        L[1, 2, 2] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="replicate 1"):
                FactorStats(L, 20, 1)


def test_every_caller_reading_v_meets_the_kernels_own_check(monkeypatch):
    # V halved: v_jj e_jj falls to about 1/2, and every dataset fails the check
    from factorlens import teststats
    from factorlens.panel import ReturnsPanel
    from factorlens.powersim import ScenarioConfig, run_power_study
    from factorlens.report import batch_subset_test, resolve_criticals

    inverse_lower = teststats.inverse_lower
    monkeypatch.setattr(teststats, "inverse_lower", lambda L: 0.5 * inverse_lower(L))
    rng = np.random.default_rng(3)
    X, F = rng.standard_normal((4, 30)), rng.standard_normal((1, 30))
    panel = ReturnsPanel(
        labels=("a0", "a1", "a2", "a3", "f0"), times=tuple(map(str, range(30))),
        values=np.vstack([X, F]).T, asset_columns=(0, 1, 2, 3), factor_columns=(4,),
    )
    cfg = ScenarioConfig("s1", p=4, K=1, T=30, reps=10, master_seed=1)
    calls = {
        "precision_stats_from_data": lambda: precision_stats_from_data(X, F),
        "stats_from_precision": lambda: stats_from_precision(V2, T=12, K=0),
        "run_power_study": lambda: run_power_study(
            cfg, [0.0], resolve_criticals("closed-form", cfg.model, cfg.alpha)
        ),
        "batch_subset_test": lambda: batch_subset_test(
            panel, 3, 5, critical_source="closed-form"
        ),
        "simulate_null_statistics": lambda: simulate_null_statistics(
            ("T_el",), 4, 30, 1, reps=10, master_seed=1
        ),
    }
    for name, call in calls.items():
        with pytest.raises(NotPositiveDefinite, match="fell below one in replicate 0"):
            call()
    # ln T_LR* and T_LR read no V, so they pass where every V-reading statistic fails
    kernel = FactorStats(residual_factors(np.vstack([F, X])[None], 1), 30, 1)
    kernel.ln_t_lr_star, kernel.t_lr
    null = simulate_null_statistics(("ln_T_LR_star", "T_LR"), 4, 30, 1, reps=10, master_seed=1)
    assert all(np.isfinite(sample).all() for sample in null.values())
    for name in ("diag_v", "t_ij", "t_el", "t_j"):
        with pytest.raises(NotPositiveDefinite, match="replicate 0"):
            getattr(kernel, name)


def _reference_stats(L, t_eff, K):
    """V, t_ij, t_el and t_j of each factor, V from dtrtri and a full product.

    The product runs on one BLAS thread, as the kernel's dsyrk does: at
    p = 100 a two-thread product rounds differently.
    """
    p = L.shape[-1]
    dof_n = t_eff - K - p + 1
    v = np.empty(L.shape)
    for r, factor in enumerate(L):
        l_inv, info = dtrtri(factor, lower=1)
        assert info == 0
        with linalg.BLAS_PIN or linalg._UNPINNED:
            np.matmul(l_inv.T, l_inv, out=v[r])
    diag_v = np.diagonal(v, axis1=1, axis2=2)
    rows, cols = np.tril_indices(p, -1)
    g2 = v[:, rows, cols] ** 2 / (diag_v[:, rows] * diag_v[:, cols])
    t_ij = dof_n * g2 / (1.0 - g2)
    diag_e = np.einsum("rij,rij->ri", L, L)
    t_j = dof_n / (p - 1) * np.maximum(diag_v * diag_e - 1.0, 0.0)
    return v, t_ij, t_ij.max(axis=1), t_j


def _kernel_inputs(source, p, rng):
    """A kernel of factors of one layout, with the factors it ran on."""
    m = 12
    if source == "bartlett":  # C-contiguous, as the calibration engine draws them
        T, K = 2 * p + 8, 1
        L = np.stack([bartlett_factor(p, T - K, SeedSpec(11, r).generator()) for r in range(m)])
        return FactorStats(L, T, K), L
    T, K = 2 * p + 10, 2
    if source == "residual_factors":  # non-contiguous trailing blocks
        L = residual_factors(rng.standard_normal((m, K + p, T)), K)
        assert not L.flags.c_contiguous
        return FactorStats(L, T, K), L
    # asset subsets of a wider panel, their stacked scatters gathered from
    # the panel's, factor rows first, as batch_subset_test gathers them
    n = p + 5
    Y = rng.standard_normal((K + n, T))
    subsets = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :p], axis=1)
    rows = np.hstack([np.broadcast_to(np.arange(K), (m, K)), K + subsets])
    L = stacked_cholesky((Y @ Y.T)[rows[:, :, None], rows[:, None, :]])[:, K:, K:]
    return FactorStats(L, T, K), L


@pytest.mark.parametrize("source", ["bartlett", "residual_factors", "subset_stats"])
@pytest.mark.parametrize("p", [2, 6, 20, 37, 100])
def test_kernel_equals_full_product_reference_bitwise(source, p):
    # the kernel forms V's lower triangle by a symmetric rank-k update in
    # place; a full product of the same triangular inverse is its reference
    kernel, L = _kernel_inputs(source, p, np.random.default_rng(p))
    v, t_ij, t_el, t_j = _reference_stats(L, kernel.t_eff, kernel.K)
    lower = np.tril_indices(p)
    assert np.array_equal(kernel.v_lower[:, lower[0], lower[1]], v[:, lower[0], lower[1]])
    assert not np.triu(kernel.v_lower, 1).any()
    assert np.array_equal(kernel.t_ij, t_ij)
    assert np.array_equal(kernel.t_el, t_el)
    assert np.array_equal(kernel.t_j, t_j)
    # the public V is the lower triangle mirrored, so symmetric, and diag_v
    # its diagonal
    assert np.array_equal(kernel.v, np.tril(v) + np.swapaxes(np.tril(v, -1), 1, 2))
    assert np.array_equal(kernel.diag_v, np.diagonal(kernel.v, axis1=1, axis2=2))


def test_null_samples_at_p100_equal_the_reference_path_bitwise():
    # the golden hashes pin p <= 6; this pins every column at the paper's
    # high-dimensional design against the reference V on the same draws
    p, T, K, reps, seed = 100, 518, 1, 50, 1234
    statistics = STATISTICS + MARGINAL_STATISTICS
    samples = simulate_null_statistics(statistics, p, T, K, reps=reps, master_seed=seed)
    L = np.stack([bartlett_factor(p, T - K, SeedSpec(seed, r).generator()) for r in range(reps)])
    v, t_ij, t_el, t_j = _reference_stats(L, T, K)
    ln_det_e = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    diag_e = np.einsum("rij,rij->ri", L, L)
    ln_lr = np.maximum(-(T / 2.0) * (ln_det_e - np.log(diag_e).sum(axis=1)), 0.0)
    rho = 1.0 - (2.0 * p + 5.0) / (6.0 * (T - K))
    expected = {
        "T_el": t_el,
        "T_ij_21": t_ij[:, 0],
        "T_pr": t_j.max(axis=1),
        "T_j_1": t_j[:, 0],
        "ln_T_LR_star": ln_lr,
        "T_LR": 2.0 * rho * ((T - K) / T) * ln_lr,
        "T_LR_standardized": tlr_standardize(ln_lr, p, T, K),
    }
    for name in statistics:
        assert np.array_equal(samples[name], expected[name]), name
