"""The five test statistics, computed by one kernel over Cholesky factors.

All statistics are functions of the p-by-p leading block V11 of the inverse
scaled sample covariance of the stacked (responses, factors) data. Its
inverse is the residual scatter E of the responses on the factors, so a
lower factor L of E is all the kernel needs. Step one turns L into V's lower
triangle (V = L^-T L^-1, by linalg.inverse_lower's triangular inverse and
in-place rank-k update per factor), diag V, diag E and ln det E; step two applies the
formulas to those four arrays. Under the null, the Bartlett factor of an
identity-parameter Wishart draw is such a factor, so calibration and real
data share the kernel. Data reach it through one factorization: the
stacked scatter of [F; X], factor rows first, factored under the stacked
pivot rule (linalg.stacked_cholesky), whose trailing block factors E.
residual_factors does this for test and the power engine, and batch-test
applies the same factorization to subset blocks of the panel's stacked
scatter. FactorStats is the only statistics object:
precision_stats_from_data returns the kernel's statistics of one dataset
(m = 1), and compute_all only reads its row 0. Dimensions have one rule,
FactorModelSpec's: p >= 2, K >= 0 and p + K < T_eff. The kernel itself
needs p >= 2, K >= 0 and dof_n >= 1, which every statistic is defined on.
Argmax locations are 1-based, to match the usual (i, j) labelling of
matrix entries: pair (i, j), 1 <= j < i <= p, is entry (i-1)(i-2)/2 + j-1
of t_ij's last axis, and column j is entry j-1 of t_j's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BadDimension, NotPositiveDefinite
from .linalg import cholesky, inverse_lower, invert_spd, mirror_lower, scatter, stacked_cholesky


def denominator_dof(t_eff: int, K: int, p: int) -> int:
    """Denominator degrees of freedom dof_n of the marginal F laws."""
    return t_eff - K - p + 1


# Step two of the kernel: the formulas, over arrays with any leading batch axes.

@lru_cache(maxsize=64)
def _pair_layout(p: int):
    """Read-only (rows, cols, flat) of the pairs in tril order; v[i, j] at flat j*p + i of v^T."""
    rows, cols = np.tril_indices(p, -1)
    flat = cols * p + rows
    for arr in (rows, cols, flat):
        arr.flags.writeable = False
    return rows, cols, flat


def _pair_g2(v: np.ndarray, diag_v: np.ndarray) -> np.ndarray:
    """Squared partial correlations g^2 = v_ij^2 / (v_ii v_jj), pairs in tril order.

    The pairs are gathered by one flat take from the storage of v's
    transpose, which for the kernel's v_lower (Fortran-ordered per factor)
    is C-ordered, so the reshape is a view; any other layout is copied.
    """
    p = v.shape[-1]
    rows, cols, flat = _pair_layout(p)
    # takes, not fancy indexing, so that every operand is C-ordered; in place
    # on the gathered copies: the same operations, fewer temporaries
    g2 = np.take(np.swapaxes(v, -1, -2).reshape(v.shape[:-2] + (p * p,)), flat, axis=-1)
    g2 *= g2
    den = np.take(diag_v, rows, axis=-1)
    den *= np.take(diag_v, cols, axis=-1)
    g2 /= den
    return g2


def _pair_transform(g2, dof_n: int):
    """dof_n * x / (1 - x), the pair statistic of a squared partial correlation x.

    On [0, 1] this is monotone non-decreasing in floating point as well: each
    of its three operations is correctly rounded, and rounding preserves
    order, so x <= y gives fl(dof_n x) <= fl(dof_n y) and fl(1 - x) >=
    fl(1 - y) >= 0. Hence the transform of the largest x is bit for bit the
    largest transformed value. Above 1 (possible only through rounding, since
    g^2 <= 1 by Cauchy-Schwarz) the denominator turns negative and the order
    breaks.
    """
    return dof_n * g2 / (1.0 - g2)


def _column_formula(diag_v: np.ndarray, diag_e: np.ndarray, dof_n: int) -> np.ndarray:
    """dof_n / (p-1) * (v_jj e_jj - 1), clipped at zero against rounding."""
    p = diag_v.shape[-1]
    return (dof_n / (p - 1)) * np.maximum(diag_v * diag_e - 1.0, 0.0)


def _ln_lr_star_formula(diag_e: np.ndarray, ln_det_e, t_eff: int):
    """-(T_eff/2) * (ln det E - sum ln diag E), clipped at zero against rounding."""
    return np.maximum(-(t_eff / 2.0) * (ln_det_e - np.log(diag_e).sum(axis=-1)), 0.0)


def _t_lr_formula(ln_t_lr_star, p: int, t_eff: int, K: int):
    """2 * rho * ((T_eff - K)/T_eff) * ln T_LR* with rho = 1 - (2p+5)/(6(T_eff-K))."""
    # rho > 0 on every kernel: p >= 2 and dof_n >= 1 give 6(T_eff - K) >= 6p > 2p + 5
    rho = 1.0 - (2.0 * p + 5.0) / (6.0 * (t_eff - K))
    return 2.0 * rho * ((t_eff - K) / t_eff) * ln_t_lr_star


# A usable factor's diagonal entries are positive and their squares, the
# Cholesky pivots, are finite normal floats: a pivot that underflows (to zero
# or a subnormal) makes V overflow, and a NaN or negative entry has no log.
_DIAG_RANGE = np.sqrt([np.finfo(float).tiny, np.finfo(float).max])


def kernel_doubles(p: int) -> int:
    """Doubles per dataset that chunk budgets count: L, v_lower and four arrays of pairs."""
    return 2 * p * p + 2 * p * (p - 1)


class FactorStats:
    """The statistics kernel: m datasets, from lower factors L[m, p, p] of residual scatters.

    The stack must be square with p >= 2, K >= 0 and dof_n >= 1, and each
    factor's diagonal usable; anything else raises here, so no statistic
    fails later. V and the pair and column statistics are computed on first
    use and kept, so ln T_LR* costs no inverse. Every statistic reads only
    v_lower, V's lower triangle from linalg.inverse_lower; v mirrors it on
    first read. Pairs are ordered (2,1), (3,1), (3,2), ... on the last axis.
    """

    def __init__(self, L: np.ndarray, t_eff: int, K: int) -> None:
        if L.ndim != 3 or L.shape[1] != L.shape[2]:
            raise BadDimension(f"expected a stack of square factors, got shape {L.shape}")
        self.p = L.shape[-1]
        self.t_eff = t_eff
        self.K = K
        self.dof_n = denominator_dof(t_eff, K, self.p)
        if self.p < 2 or K < 0 or self.dof_n < 1:
            raise BadDimension(
                f"need p >= 2, K >= 0, dof_n >= 1; got p={self.p}, K={K}, dof_n={self.dof_n}"
            )
        self.L = L
        diag = np.diagonal(L, axis1=1, axis2=2)
        bad = np.argwhere(~((diag >= _DIAG_RANGE[0]) & (diag <= _DIAG_RANGE[1])))
        if bad.size:
            r, j = bad[0]
            raise NotPositiveDefinite(
                f"factor of replicate {r} has diagonal entry {float(diag[r, j])!r} at index "
                f"{j}, outside [{_DIAG_RANGE[0]:.3g}, {_DIAG_RANGE[1]:.3g}]"
            )
        # step one: factors -> (V, diag V, diag E, ln det E)
        self.diag_e = np.einsum("rij,rij->ri", L, L)
        self.ln_det_e = 2.0 * np.log(diag).sum(axis=1)
        self.ln_t_lr_star = _ln_lr_star_formula(self.diag_e, self.ln_det_e, t_eff)

    @cached_property
    def v_lower(self) -> np.ndarray:
        """V's lower triangle, diagonal included; the strict upper triangle is zero."""
        return inverse_lower(self.L)

    @cached_property
    def v(self) -> np.ndarray:
        """V, symmetric: a copy of v_lower mirrored onto its upper triangle."""
        return mirror_lower(self.v_lower)

    @cached_property
    def diag_v(self) -> np.ndarray:
        # a contiguous copy: the pair gathers read it p(p-1) times per replicate
        return np.diagonal(self.v_lower, axis1=1, axis2=2).copy()

    # step two
    @cached_property
    def _g2(self) -> np.ndarray:
        return _pair_g2(self.v_lower, self.diag_v)

    @cached_property
    def t_ij(self) -> np.ndarray:
        return _pair_transform(self._g2, self.dof_n)

    @cached_property
    def t_el(self) -> np.ndarray:
        """Largest pair statistic per dataset, equal bit for bit to t_ij.max(axis=1).

        The transform runs once per dataset, on the largest g^2. Where rounding
        pushed the largest g^2 above 1 the transform is not monotone, so that
        dataset takes the maximum over all its transformed pairs instead.
        """
        g2_max = self._g2.max(axis=1)
        t_el = _pair_transform(g2_max, self.dof_n)
        over = g2_max > 1.0
        if over.any():
            t_el[over] = _pair_transform(self._g2[over], self.dof_n).max(axis=1)
        return t_el

    @cached_property
    def t_j(self) -> np.ndarray:
        return _column_formula(self.diag_v, self.diag_e, self.dof_n)

    @property
    def t_lr(self) -> np.ndarray:
        """Bartlett-corrected likelihood ratio, asymptotically chi-square with p(p-1)/2 dof."""
        return _t_lr_formula(self.ln_t_lr_star, self.p, self.t_eff, self.K)


stats_from_factors = FactorStats


def residual_factors(Y: np.ndarray, K: int) -> np.ndarray:
    """Lower factors of the residual scatters of a stack Y[m, K+p, T], factors first.

    The trailing p-by-p block of the stacked scatter's Cholesky factor
    factors the residual scatter E of the last p rows on the first K. A
    dataset whose stacked scatter breaks the stacked pivot rule raises
    Singular.
    """
    return stacked_cholesky(scatter(Y))[:, K:, K:]


def stacked_data(X: np.ndarray, F: np.ndarray, demeaned: bool) -> np.ndarray:
    """The stacked data [F; X], factors first, each row centered when demeaned."""
    Y = np.vstack([F, X])
    return Y - Y.mean(axis=1, keepdims=True) if demeaned else Y


def _check_diagonal_product(diag_v: np.ndarray, diag_e: np.ndarray) -> None:
    """v_jj e_jj >= 1 in exact arithmetic; far below it the factor was not usable."""
    if np.any(diag_v * diag_e < 1.0 - 1e-10):
        raise NotPositiveDefinite(
            "diagonal product of V11 and its inverse fell below one"
        )


@dataclass(frozen=True)
class FactorModelSpec:
    """Dimensions of a factor-model test problem, the one check of (p, K, T, demeaned).

    p >= 2, K >= 0 and p + K < T_eff, so dof_n >= 2.
    """

    p: int
    K: int
    T: int
    demeaned: bool = False

    def __post_init__(self) -> None:
        if self.p < 2 or self.K < 0 or self.p + self.K >= self.t_eff:
            raise BadDimension(
                f"need p >= 2, K >= 0, p + K < T_eff; "
                f"got p={self.p}, K={self.K}, T_eff={self.t_eff}"
            )

    @property
    def t_eff(self) -> int:
        """Observations left for estimation; demeaning consumes one."""
        return self.T - 1 if self.demeaned else self.T

    @property
    def dof_n(self) -> int:
        return denominator_dof(self.t_eff, self.K, self.p)


@dataclass(frozen=True)
class TestStatistics:
    """All five statistics of one dataset, with argmax locations (1-based)."""

    t_el: float
    t_el_argmax: tuple[int, int]
    t_pr: float
    t_pr_argmax: int
    ln_t_lr_star: float
    t_lr: float


def precision_stats_from_data(
    X: np.ndarray, F: np.ndarray | None, demeaned: bool = False
) -> FactorStats:
    """The kernel's statistics of one dataset: X is p-by-T responses, F is K-by-T factors.

    The stacked covariance uses divisor T (population-mean-zero model) or,
    with demeaned=True, column-centered data with divisor T-1; the precision
    is the inverse of T_eff times that covariance. With the factors stacked
    first, the trailing p-by-p block of the scatter's Cholesky factor is a
    factor of the residual scatter E = V11^-1, so one factorization suffices.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if F is None:
        F = np.empty((0, X.shape[1]))
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    p, T = X.shape
    K = F.shape[0]
    if K and F.shape[1] != T:
        raise BadDimension(
            f"responses have T={T} observations but factors have {F.shape[1]}"
        )
    t_eff = FactorModelSpec(p=p, K=K, T=T, demeaned=demeaned).t_eff
    Y = stacked_data(X, F, demeaned)
    kernel = stats_from_factors(residual_factors(Y[None], K), t_eff, K)
    _check_diagonal_product(kernel.diag_v, kernel.diag_e)
    return kernel


def stats_from_precision(
    v11: np.ndarray, T: int, K: int, demeaned: bool = False
) -> FactorStats:
    """The kernel's statistics of a given precision block V11 (inverted once).

    Only the upper triangle of V11 is read, as the lower one of V11^T. The
    factor of E = V11^-1 comes from a Cholesky factorization of the inverse,
    so a diagonal V11 gives statistics that are exactly zero. Dimensions are
    checked as in precision_stats_from_data.
    """
    v11 = np.asarray(v11, dtype=np.float64)
    if v11.ndim != 2 or v11.shape[0] != v11.shape[1]:
        raise BadDimension(f"expected a square matrix, got shape {v11.shape}")
    t_eff = FactorModelSpec(p=v11.shape[0], K=K, T=T, demeaned=demeaned).t_eff
    L = cholesky(invert_spd(v11.T))
    kernel = stats_from_factors(L[None], t_eff, K)
    _check_diagonal_product(kernel.diag_v, kernel.diag_e)
    return kernel


def _argmax_smallest_index(values: np.ndarray) -> int:
    """First index attaining the maximum, treating 1-ulp near-ties as ties."""
    vmax = float(values.max())
    tol = 1e-12 * max(1.0, abs(vmax))
    return int(np.flatnonzero(values >= vmax - tol)[0])


# a function of its own only because perfbench/spans.py traces it (teststats.lr_star)
def stat_ln_t_lr_star(s: FactorStats) -> float:
    """Log of the likelihood-ratio statistic of the first dataset of s.

    Computed as -(T_eff/2) * (ln det E - sum ln diag E), which equals
    -(T_eff/2) * ln det R for the correlation matrix R of E. Nonnegative by
    Hadamard's inequality; the statistic itself is never exponentiated
    because it overflows for realistic T.
    """
    return float(s.ln_t_lr_star[0])


def compute_all(s: FactorStats) -> TestStatistics:
    """Every statistic of the first dataset of s, with argmax locations.

    Ties, up to 1-ulp near-ties, go to the smallest pair or column; pairs
    are scanned in lexicographic (i, j) order.
    """
    rows, cols, _ = _pair_layout(s.p)
    k = _argmax_smallest_index(s.t_ij[0])
    t_j = s.t_j[0]
    return TestStatistics(
        t_el=float(s.t_el[0]),
        t_el_argmax=(int(rows[k]) + 1, int(cols[k]) + 1),
        t_pr=float(t_j.max()),
        t_pr_argmax=_argmax_smallest_index(t_j) + 1,
        ln_t_lr_star=stat_ln_t_lr_star(s),
        t_lr=float(s.t_lr[0]),
    )
