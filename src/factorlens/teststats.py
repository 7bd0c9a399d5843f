"""The five test statistics, computed by one kernel over Cholesky factors.

All statistics are functions of the p-by-p leading block V11 of the inverse
scaled sample covariance of the stacked (responses, factors) data. Its
inverse is the residual scatter E of the responses on the factors, so a
lower factor L of E is all the kernel needs. Step one turns L into the
precision block V = L^-T L^-1, diag V, diag E and ln det E; step two applies
the formulas to those four arrays. Under the null, the Bartlett factor of an
identity-parameter Wishart draw is such a factor, so calibration and real
data share the kernel. Indices in the public API are 1-based to match the
usual (i, j) labelling of matrix entries; the pair statistic is defined for
1 <= j < i <= p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    BadDimension,
    BadIndex,
    DegenerateCorrection,
    NotPositiveDefinite,
    Singular,
)
from .linalg import PIVOT_RTOL, SymMatrix, invert_spd, log_det_spd


def effective_sample_size(T: int, demeaned: bool) -> int:
    """Observations left for estimation; demeaning consumes one."""
    return T - 1 if demeaned else T


def denominator_dof(t_eff: int, K: int, p: int) -> int:
    """Denominator degrees of freedom dof_n of the marginal F laws."""
    return t_eff - K - p + 1


# Step two of the kernel: the formulas, over arrays with any leading batch axes.

def _pair_g2(v: np.ndarray, diag_v: np.ndarray) -> np.ndarray:
    """Squared partial correlations g^2 = v_ij^2 / (v_ii v_jj), pairs in tril order."""
    rows, cols = np.tril_indices(v.shape[-1], -1)
    # in place on the gathered copies: the same operations, fewer temporaries
    g2 = v[..., rows, cols]
    g2 *= g2
    den = diag_v[..., rows]
    den *= diag_v[..., cols]
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


def _pair_formula(v: np.ndarray, diag_v: np.ndarray, dof_n: int) -> np.ndarray:
    """dof_n * g^2 / (1 - g^2) with g = v_ij / sqrt(v_ii v_jj), pairs in tril order."""
    return _pair_transform(_pair_g2(v, diag_v), dof_n)


def _column_formula(diag_v: np.ndarray, diag_e: np.ndarray, dof_n: int) -> np.ndarray:
    """dof_n / (p-1) * (v_jj e_jj - 1), clipped at zero against rounding."""
    p = diag_v.shape[-1]
    return (dof_n / (p - 1)) * np.maximum(diag_v * diag_e - 1.0, 0.0)


def _ln_lr_star_formula(diag_e: np.ndarray, ln_det_e, t_eff: int):
    """-(T_eff/2) * (ln det E - sum ln diag E), clipped at zero against rounding."""
    return np.maximum(-(t_eff / 2.0) * (ln_det_e - np.log(diag_e).sum(axis=-1)), 0.0)


def _t_lr_formula(ln_t_lr_star, p: int, t_eff: int, K: int):
    """2 * rho * ((T_eff - K)/T_eff) * ln T_LR* with rho = 1 - (2p+5)/(6(T_eff-K))."""
    rho = 1.0 - (2.0 * p + 5.0) / (6.0 * (t_eff - K))
    if rho <= 0.0:
        raise DegenerateCorrection(
            f"correction factor rho={rho:.4f} not positive for p={p}, "
            f"T_eff={t_eff}, K={K}"
        )
    return 2.0 * rho * ((t_eff - K) / t_eff) * ln_t_lr_star


class FactorStats:
    """Statistics of m datasets from lower factors L[m, p, p] of their residual scatters.

    The inverse, V and the pair and column statistics are computed on first
    use and kept, so ln T_LR* costs no inverse and the column statistics no
    p-by-p product. Pairs are ordered (2,1), (3,1), (3,2), ... on the last axis.
    """

    def __init__(self, L: np.ndarray, t_eff: int, K: int) -> None:
        self.p = L.shape[-1]
        self.t_eff = t_eff
        self.K = K
        self.dof_n = denominator_dof(t_eff, K, self.p)
        self.L = L
        # step one: factors -> (V, diag V, diag E, ln det E)
        self.diag_e = np.einsum("rij,rij->ri", L, L)
        self.ln_det_e = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        self.ln_t_lr_star = _ln_lr_star_formula(self.diag_e, self.ln_det_e, t_eff)

    @cached_property
    def _l_inv(self) -> np.ndarray:
        return np.linalg.solve(self.L, np.eye(self.p))

    @cached_property
    def diag_v(self) -> np.ndarray:
        return np.einsum("rkj,rkj->rj", self._l_inv, self._l_inv)

    @cached_property
    def v(self) -> np.ndarray:
        return np.matmul(np.swapaxes(self._l_inv, 1, 2), self._l_inv)

    # step two
    @cached_property
    def _g2(self) -> np.ndarray:
        return _pair_g2(self.v, self.diag_v)

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
        return _t_lr_formula(self.ln_t_lr_star, self.p, self.t_eff, self.K)


def stats_from_factors(L: np.ndarray, t_eff: int, K: int) -> FactorStats:
    """The statistics kernel: lower factors L[m, p, p] of E, computed lazily."""
    if L.ndim != 3 or L.shape[1] != L.shape[2]:
        raise BadDimension(f"expected a stack of square factors, got shape {L.shape}")
    dof_n = denominator_dof(t_eff, K, L.shape[-1])
    if dof_n < 1:
        raise BadDimension(f"dof_n must be >= 1, got {dof_n}")
    return FactorStats(L, t_eff, K)


def _stacked_cholesky(
    scatters: np.ndarray, max_diag: np.ndarray, min_pivot: float = np.inf
) -> np.ndarray:
    """Lower factors of a stack of scatters under the stacked pivot rule.

    A dataset fails, as its stacked scatter fails linalg.cholesky, when a
    Cholesky pivot is at or below PIVOT_RTOL times the stacked scatter's
    largest diagonal entry max_diag. min_pivot carries pivots factored
    elsewhere (the factor block's, when only the Schur complement is given).
    """
    try:
        L = np.linalg.cholesky(scatters)
    except np.linalg.LinAlgError:
        raise Singular("a stacked covariance is not positive definite") from None
    pivots = np.minimum(np.min(np.diagonal(L, axis1=1, axis2=2) ** 2, axis=1), min_pivot)
    bound = PIVOT_RTOL * max_diag
    bad = np.flatnonzero(pivots <= bound)
    if bad.size:
        raise Singular(
            f"a stacked covariance is not positive definite: Cholesky "
            f"pivot {pivots[bad[0]]:.3e} below tolerance {bound[bad[0]]:.3e}"
        )
    return L


def residual_factors(Y: np.ndarray, K: int) -> np.ndarray:
    """Lower factors of the residual scatters of a stack Y[m, K+p, T], factors first.

    The trailing p-by-p block of the stacked scatter's Cholesky factor
    factors the residual scatter E of the last p rows on the first K. A
    dataset whose stacked scatter breaks the stacked pivot rule raises
    Singular.
    """
    scatters = np.matmul(Y, np.swapaxes(Y, 1, 2))
    max_diag = np.diagonal(scatters, axis1=1, axis2=2).max(axis=1)
    return _stacked_cholesky(scatters, max_diag)[:, K:, K:]


def _check_diagonal_product(diag_v: np.ndarray, diag_e: np.ndarray) -> None:
    """v_jj e_jj >= 1 in exact arithmetic; far below it the factor was not usable."""
    if np.any(diag_v * diag_e < 1.0 - 1e-10):
        raise NotPositiveDefinite(
            "diagonal product of V11 and its inverse fell below one"
        )


@dataclass(frozen=True)
class FactorModelSpec:
    """Dimensions of a factor-model test problem."""

    p: int
    K: int
    T: int
    demeaned: bool = False

    def __post_init__(self) -> None:
        if self.p < 2:
            raise BadDimension(f"need at least two response series, got p={self.p}")
        if self.K < 0:
            raise BadDimension(f"K must be nonnegative, got {self.K}")
        if self.p + self.K >= self.t_eff:
            raise BadDimension(
                f"need p + K < effective sample size, got p={self.p}, K={self.K}, "
                f"T_eff={self.t_eff}"
            )

    @property
    def t_eff(self) -> int:
        return effective_sample_size(self.T, self.demeaned)

    @property
    def dof_n(self) -> int:
        return denominator_dof(self.t_eff, self.K, self.p)


@dataclass(frozen=True)
class PrecisionStats:
    """Per-dataset bundle: precision block, its inverse, and their diagonals."""

    p: int
    T: int
    K: int
    demeaned: bool
    dof_n: int
    V11: SymMatrix
    V11_inv: SymMatrix
    diag_v11: np.ndarray
    diag_v11_inv: np.ndarray
    # log det of V11_inv, set when the bundle was built from its factor
    ln_det_v11_inv: float | None = None

    def __post_init__(self) -> None:
        if self.dof_n < 1:
            raise BadDimension(f"dof_n must be >= 1, got {self.dof_n}")
        _check_diagonal_product(self.diag_v11, self.diag_v11_inv)
        for name in ("diag_v11", "diag_v11_inv"):
            # a copy, so that freezing it leaves the caller's array writeable
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def t_eff(self) -> int:
        return effective_sample_size(self.T, self.demeaned)

    @classmethod
    def from_v11(
        cls, v11: SymMatrix | np.ndarray, T: int, K: int, demeaned: bool = False
    ) -> "PrecisionStats":
        """Build the bundle from a given precision block (inverts it once)."""
        if not isinstance(v11, SymMatrix):
            v11 = SymMatrix(v11)
        inv = invert_spd(v11)
        return cls(
            p=v11.dim,
            T=T,
            K=K,
            demeaned=demeaned,
            dof_n=denominator_dof(effective_sample_size(T, demeaned), K, v11.dim),
            V11=v11,
            V11_inv=inv,
            diag_v11=v11.diag(),
            diag_v11_inv=inv.diag(),
        )

    @classmethod
    def from_factor(
        cls, L: np.ndarray, T: int, K: int, demeaned: bool = False
    ) -> "PrecisionStats":
        """Build the bundle from a lower factor L of V11_inv (the kernel's step one)."""
        kernel = stats_from_factors(L[None], effective_sample_size(T, demeaned), K)
        return cls(
            p=kernel.p,
            T=T,
            K=K,
            demeaned=demeaned,
            dof_n=kernel.dof_n,
            V11=SymMatrix(kernel.v[0]),
            V11_inv=SymMatrix(L @ L.T),
            diag_v11=kernel.diag_v[0],
            diag_v11_inv=kernel.diag_e[0],
            ln_det_v11_inv=float(kernel.ln_det_e[0]),
        )


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
) -> PrecisionStats:
    """Precision bundle from raw data: X is p-by-T responses, F is K-by-T factors.

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
    t_eff = effective_sample_size(T, demeaned)
    if p + K >= t_eff:
        raise BadDimension(f"need p + K < T_eff, got p={p}, K={K}, T_eff={t_eff}")
    Y = np.vstack([F, X])
    if demeaned:
        Y = Y - Y.mean(axis=1, keepdims=True)
    return PrecisionStats.from_factor(residual_factors(Y[None], K)[0], T, K, demeaned)


class ResidualScatter:
    """Residual scatter E of every response on the factors, for asset subsets.

    One factorization of the K-by-K factor scatter S_ff gives
    E = S_xx - W^T W with W = L_ff^-1 S_fx: the Schur complement that the
    stacked scatter's Cholesky factorization forms in its trailing block.
    For an asset subset S, E[S, S] is the residual scatter of those assets
    alone, so only the subsets drawn, not all p assets together, need a
    positive-definite stacked scatter. X is p-by-T, F is K-by-T with K >= 0.
    """

    def __init__(self, X: np.ndarray, F: np.ndarray, demeaned: bool = False) -> None:
        K = F.shape[0]
        self.t_eff = effective_sample_size(X.shape[1], demeaned)
        self.K = K
        Y = np.vstack([F, X])
        if demeaned:
            Y = Y - Y.mean(axis=1, keepdims=True)
        scatter = Y @ Y.T
        self._xx_diag = np.diagonal(scatter)[K:].copy()
        self._ff_max_diag = float(np.max(np.diagonal(scatter)[:K], initial=-np.inf))
        self._ff_min_pivot = np.inf
        self.e = scatter[K:, K:]
        if K:
            try:
                l_ff = np.linalg.cholesky(scatter[:K, :K])
            except np.linalg.LinAlgError:
                raise Singular("factor scatter is not positive definite") from None
            self._ff_min_pivot = float(np.min(np.diagonal(l_ff) ** 2))
            w = solve_triangular(l_ff, scatter[:K, K:], lower=True)
            self.e = self.e - w.T @ w

    def _factors(self, subsets: np.ndarray) -> np.ndarray:
        """Lower factors of E[S, S] for each row S of subsets (ascending indices).

        A subset fails by the stacked pivot rule, its K factor pivots included.
        """
        return _stacked_cholesky(
            self.e[subsets[:, :, None], subsets[:, None, :]],
            np.maximum(self._xx_diag[subsets].max(axis=1), self._ff_max_diag),
            self._ff_min_pivot,
        )

    def subset_stats(self, subsets: np.ndarray) -> FactorStats:
        """The statistics kernel over the subsets, one row of asset indices each."""
        kernel = stats_from_factors(self._factors(subsets), self.t_eff, self.K)
        _check_diagonal_product(kernel.diag_v, kernel.diag_e)
        return kernel


def pairwise_t_ij(ps: PrecisionStats) -> np.ndarray:
    """All p(p-1)/2 pair statistics, ordered (2,1), (3,1), (3,2), (4,1), ...

    The value for pair (i, j) is dof_n * g^2 / (1 - g^2) with
    g = v_ij / sqrt(v_ii v_jj).
    """
    if ps.p < 2:
        raise BadDimension("pair statistics need p >= 2")
    return _pair_formula(ps.V11.data, ps.diag_v11, ps.dof_n)


def stat_t_ij(ps: PrecisionStats, i: int, j: int) -> float:
    """Pair statistic for 1 <= j < i <= p (1-based indices)."""
    if not (1 <= j < i <= ps.p):
        raise BadIndex(f"need 1 <= j < i <= p, got i={i}, j={j}, p={ps.p}")
    pair = [j - 1, i - 1]  # the 2-by-2 block whose one pair is (i, j)
    block = ps.V11.data[np.ix_(pair, pair)]
    return float(_pair_formula(block, ps.diag_v11[pair], ps.dof_n)[0])


def _argmax_smallest_index(values: np.ndarray) -> int:
    """First index attaining the maximum, treating 1-ulp near-ties as ties."""
    vmax = float(values.max())
    tol = 1e-12 * max(1.0, abs(vmax))
    return int(np.flatnonzero(values >= vmax - tol)[0])


def stat_t_el(ps: PrecisionStats) -> tuple[float, tuple[int, int]]:
    """Maximum pair statistic and its (i, j) location, smallest pair on ties."""
    values = pairwise_t_ij(ps)
    k = _argmax_smallest_index(values)  # scan order is lexicographic in (i, j)
    rows, cols = np.tril_indices(ps.p, -1)
    return float(values.max()), (int(rows[k]) + 1, int(cols[k]) + 1)


def all_t_j(ps: PrecisionStats) -> np.ndarray:
    """All p column statistics dof_n / (p-1) * (v_jj v_jj^(inv) - 1)."""
    if ps.p < 2:
        raise BadDimension("column statistics need p >= 2")
    return _column_formula(ps.diag_v11, ps.diag_v11_inv, ps.dof_n)


def stat_t_j(ps: PrecisionStats, j: int) -> float:
    """Column statistic for 1 <= j <= p (1-based)."""
    if not 1 <= j <= ps.p:
        raise BadIndex(f"need 1 <= j <= p, got j={j}, p={ps.p}")
    return float(all_t_j(ps)[j - 1])


def stat_t_pr(ps: PrecisionStats) -> tuple[float, int]:
    """Maximum column statistic and its column (1-based), smallest j on ties."""
    values = all_t_j(ps)
    return float(values.max()), _argmax_smallest_index(values) + 1


def stat_ln_t_lr_star(ps: PrecisionStats) -> float:
    """Log of the likelihood-ratio statistic.

    Computed as -(T_eff/2) * (ln det V11_inv - sum ln diag(V11_inv)), which
    equals -(T_eff/2) * ln det R for the correlation matrix R of V11_inv.
    Nonnegative by Hadamard's inequality; the statistic itself is never
    exponentiated because it overflows for realistic T.
    """
    if ps.ln_det_v11_inv is not None:
        ln_det = ps.ln_det_v11_inv
    else:
        ln_det = log_det_spd(ps.V11_inv)
    return float(_ln_lr_star_formula(ps.diag_v11_inv, ln_det, ps.t_eff))


def stat_t_lr(ps: PrecisionStats) -> float:
    """Bartlett-corrected likelihood-ratio statistic, asymptotically chi-square.

    Equals 2 * rho * ((T_eff - K)/T_eff) * ln T_LR* with
    rho = 1 - (2p+5)/(6(T_eff-K)); the reference law has p(p-1)/2 degrees
    of freedom.
    """
    return float(_t_lr_formula(stat_ln_t_lr_star(ps), ps.p, ps.t_eff, ps.K))


def compute_all(ps: PrecisionStats) -> TestStatistics:
    """Evaluate every statistic once."""
    t_el, el_arg = stat_t_el(ps)
    t_pr, pr_arg = stat_t_pr(ps)
    ln_star = stat_ln_t_lr_star(ps)
    return TestStatistics(
        t_el=t_el,
        t_el_argmax=el_arg,
        t_pr=t_pr,
        t_pr_argmax=pr_arg,
        ln_t_lr_star=ln_star,
        t_lr=float(_t_lr_formula(ln_star, ps.p, ps.t_eff, ps.K)),
    )
