"""High-dimensional regimes and the standardizations of the test statistics.

Two regimes are supported: the concentration regime where p/(T-K) tends to
a constant c in (0, 1), and the boundary regime where T - K - p tends to a
finite d. The log-determinant CLT standardization follows the
random-matrix central limit theorem for correlation-matrix determinants.
The limit laws' critical values and p-values are written once, in the
highdim laws of report.resolve_criticals, which read the standardizations
and the column statistic's boundary tail from here. A function that needs
the sample size takes the effective one, t_eff: T, or T - 1 for demeaned
data, as teststats derives it.

The CLT's scale constant is stated in the literature as
sigma = -2 { p/(T-K) + ln(1 - p/(T-K)) }. A Monte-Carlo check (10^4 null
replicates at p/(T-K) = 0.2) shows the standardized statistic matches
N(0, 1) when that constant is treated as a variance (divide by its square
root, KS distance 0.013) and not when treated as a standard deviation
(KS distance 0.32, sample sd 4.6). tlr_standardize therefore reads it as
a variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDof, DomainError, warn_at_caller
from .special import chi2_cdf

CONCENTRATION = "concentration_c"
BOUNDARY = "boundary_d"

# Boundary regime is selected when T_eff - K - p falls below this.
BOUNDARY_DOF_CUTOFF = 30

# Minimum boundary slack for a usable log-determinant CLT standardization.
MIN_BOUNDARY_D_FOR_LR = 4

# how tlr_standardize reads sigma; the report's regime block records it
SIGMA_AS_VARIANCE = "variance"


@dataclass(frozen=True)
class Regime:
    """High-dimensional regime: exactly one of c (concentration) or d (boundary)."""

    kind: str
    c: float | None = None
    d: float | None = None

    def __post_init__(self) -> None:
        if self.kind == CONCENTRATION:
            if self.c is None or self.d is not None:
                raise DomainError("concentration regime requires c and no d")
            if not 0.0 < self.c < 1.0:
                raise DomainError(f"c must lie in (0, 1), got {self.c}")
        elif self.kind == BOUNDARY:
            if self.d is None or self.c is not None:
                raise DomainError("boundary regime requires d and no c")
            if not self.d > 0.0:
                raise DomainError(f"d must be positive, got {self.d}")
        else:
            raise DomainError(f"unknown regime kind {self.kind!r}")

    @classmethod
    def concentration(cls, c: float) -> "Regime":
        return cls(kind=CONCENTRATION, c=c)

    @classmethod
    def boundary(cls, d: float) -> "Regime":
        return cls(kind=BOUNDARY, d=d)


def select_regime(p: int, t_eff: int, K: int) -> Regime:
    """Default regime choice: boundary when T_eff - K - p is small."""
    slack = t_eff - K - p
    if slack <= 0:
        raise DomainError(f"need p < T_eff - K, got p={p}, T_eff-K={t_eff - K}")
    if slack < BOUNDARY_DOF_CUTOFF:
        if slack < MIN_BOUNDARY_D_FOR_LR:
            warn_at_caller(
                f"boundary slack d={slack} is below {MIN_BOUNDARY_D_FOR_LR}; the "
                "log-determinant CLT standardization is unreliable here"
            )
        return Regime.boundary(float(slack))
    return Regime.concentration(p / (t_eff - K))


def tj_mean_adjustment(p: int, t_eff: int, K: int) -> float:
    """Exact mean of the column statistic under the null (finite sample)."""
    slack = t_eff - K - p
    if slack <= 1:
        raise DegenerateDof(f"mean adjustment needs T_eff - K - p > 1, got {slack}")
    return (slack + 1.0) / (slack - 1.0)


def tj_variance_adjustment(p: int, t_eff: int, K: int) -> float:
    """Exact variance of sqrt(p-1) times the column statistic under the null."""
    slack = t_eff - K - p
    if slack <= 3:
        raise DegenerateDof(f"variance adjustment needs T_eff - K - p > 3, got {slack}")
    return (
        2.0
        * (t_eff - K - 2.0)
        * (slack + 1.0) ** 2
        / ((slack - 3.0) * (slack - 1.0) ** 2)
    )


def tj_standardize(t_j, p: int, t_eff: int, K: int):
    """Z-score of column statistics in the concentration regime.

    Centers at the exact null mean and scales by the exact null variance
    (finite sample); t_j may be an array.
    """
    mu = tj_mean_adjustment(p, t_eff, K)
    var = tj_variance_adjustment(p, t_eff, K)
    return math.sqrt(p - 1.0) * (t_j - mu) / math.sqrt(var)


def tj_boundary_pvalue(t_j, d: float):
    """Upper-tail p-value of column statistics under the boundary limit.

    The limit is (d+1)/chi2_{d+1}, so P[limit > t] = chi2_cdf((d+1)/t, d+1).
    t_j may be an array, each entry bit for bit the scalar call's.
    """
    if not np.all(np.asarray(t_j) > 0):
        raise DomainError(f"boundary p-value needs t_j > 0, got {np.min(t_j)}")
    if not d > 0:
        raise DomainError(f"d must be positive, got {d}")
    return chi2_cdf((d + 1.0) / t_j, d + 1.0)


def lr_clt_mean(p: int, t_eff: int, K: int):
    """Centering constant of the log-determinant CLT."""
    n = t_eff - K
    if not 0 < p < n:
        raise DomainError(f"need 0 < p < T_eff - K, got p={p}, T_eff-K={n}")
    return (p - 1.0 - n + 1.5) * math.log1p(-p / n) - (n - 1.0) / n * p


def lr_clt_sigma(p: int, t_eff: int, K: int):
    """Scale constant of the log-determinant CLT (a variance, see module note)."""
    n = t_eff - K
    if not 0 < p < n:
        raise DomainError(f"need 0 < p < T_eff - K, got p={p}, T_eff-K={n}")
    return -2.0 * (p / n + math.log1p(-p / n))


def tlr_standardize(ln_t_lr_star, p: int, t_eff: int, K: int):
    """Standardize the log likelihood-ratio statistic to an asymptotic N(0, 1).

    Returns ((2/T_eff) * ln_t_lr_star + mean) / sqrt(sigma), reading sigma
    as a variance (module docstring). Accepts scalars or arrays in
    ln_t_lr_star.
    """
    mean = lr_clt_mean(p, t_eff, K)
    sigma = lr_clt_sigma(p, t_eff, K)
    return ((2.0 / t_eff) * np.asarray(ln_t_lr_star) + mean) / math.sqrt(sigma)
