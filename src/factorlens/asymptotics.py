"""High-dimensional limit laws and standardizations of the test statistics.

Two regimes are supported: the concentration regime where p/(T-K) tends to
a constant c in (0, 1), and the boundary regime where T - K - p tends to a
finite d. The log-determinant CLT standardization follows the
random-matrix central limit theorem for correlation-matrix determinants.

The CLT's scale constant is stated in the literature as
sigma = -2 { p/(T-K) + ln(1 - p/(T-K)) }. A Monte-Carlo check (10^4 null
replicates at p/(T-K) = 0.2) shows the standardized statistic matches
N(0, 1) when that constant is treated as a variance (divide by its square
root, KS distance 0.013) and not when treated as a standard deviation
(KS distance 0.32, sample sd 4.6). The variance reading is therefore the
default; the literal reading stays available via sigma_convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDof, DomainError
from .special import chi2_cdf, chi2_quantile, chi2_sf, f_sf, normal_cdf
from .teststats import effective_sample_size

CONCENTRATION = "concentration_c"
BOUNDARY = "boundary_d"

# Boundary regime is selected when T_eff - K - p falls below this.
BOUNDARY_DOF_CUTOFF = 30

# Minimum boundary slack for a usable log-determinant CLT standardization.
MIN_BOUNDARY_D_FOR_LR = 4

SIGMA_AS_VARIANCE = "variance"
SIGMA_AS_DEVIATION = "deviation"


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


def select_regime(p: int, T: int, K: int, demeaned: bool = False) -> Regime:
    """Default regime choice: boundary when T_eff - K - p is small."""
    t_eff = effective_sample_size(T, demeaned)
    slack = t_eff - K - p
    if slack <= 0:
        raise DomainError(f"need p < T_eff - K, got p={p}, T_eff-K={t_eff - K}")
    if slack < BOUNDARY_DOF_CUTOFF:
        if slack < MIN_BOUNDARY_D_FOR_LR:
            warnings.warn(
                f"boundary slack d={slack} is below {MIN_BOUNDARY_D_FOR_LR}; the "
                "log-determinant CLT standardization is unreliable here",
                stacklevel=2,
            )
        return Regime.boundary(float(slack))
    return Regime.concentration(p / (t_eff - K))


def tij_null_pvalue(t, regime: Regime):
    """Upper-tail p-value of pair statistics under the regime's limit law; t may be an array."""
    if np.any(np.asarray(t) < 0):
        raise DomainError(f"pair statistic must be nonnegative, got {np.min(t)}")
    if regime.kind == CONCENTRATION:
        return chi2_sf(t, 1)
    return f_sf(t, 1, regime.d + 1.0)


def tj_mean_adjustment(p: int, T: int, K: int, demeaned: bool = False) -> float:
    """Exact mean of the column statistic under the null (finite sample)."""
    slack = effective_sample_size(T, demeaned) - K - p
    if slack <= 1:
        raise DegenerateDof(f"mean adjustment needs T_eff - K - p > 1, got {slack}")
    return (slack + 1.0) / (slack - 1.0)


def tj_variance_adjustment(p: int, T: int, K: int, demeaned: bool = False) -> float:
    """Exact variance of sqrt(p-1) times the column statistic under the null."""
    t_eff = effective_sample_size(T, demeaned)
    slack = t_eff - K - p
    if slack <= 3:
        raise DegenerateDof(f"variance adjustment needs T_eff - K - p > 3, got {slack}")
    return (
        2.0
        * (t_eff - K - 2.0)
        * (slack + 1.0) ** 2
        / ((slack - 3.0) * (slack - 1.0) ** 2)
    )


def tj_standardize(
    t_j: float,
    p: int,
    T: int,
    K: int,
    mode: str = "finite_sample_adjusted",
    demeaned: bool = False,
) -> float:
    """Z-score of a column statistic in the concentration regime.

    mode="limit" uses sqrt(p-1)(t_j - 1) scaled to the limiting variance
    2/(1-c); mode="finite_sample_adjusted" centers at the exact null mean
    and scales by the exact null variance.
    """
    if mode == "limit":
        c = p / (effective_sample_size(T, demeaned) - K)
        if not 0.0 < c < 1.0:
            raise DomainError(f"limit mode needs p/(T_eff-K) in (0,1), got {c}")
        return math.sqrt(p - 1.0) * (t_j - 1.0) * math.sqrt((1.0 - c) / 2.0)
    if mode == "finite_sample_adjusted":
        mu = tj_mean_adjustment(p, T, K, demeaned)
        var = tj_variance_adjustment(p, T, K, demeaned)
        return math.sqrt(p - 1.0) * (t_j - mu) / math.sqrt(var)
    raise DomainError(f"unknown mode {mode!r}")


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


def lr_clt_mean(p: int, T: int, K: int, demeaned: bool = False):
    """Centering constant of the log-determinant CLT."""
    n = effective_sample_size(T, demeaned) - K
    if not 0 < p < n:
        raise DomainError(f"need 0 < p < T_eff - K, got p={p}, T_eff-K={n}")
    return (p - 1.0 - n + 1.5) * math.log1p(-p / n) - (n - 1.0) / n * p


def lr_clt_sigma(p: int, T: int, K: int, demeaned: bool = False):
    """Scale constant of the log-determinant CLT (a variance, see module note)."""
    n = effective_sample_size(T, demeaned) - K
    if not 0 < p < n:
        raise DomainError(f"need 0 < p < T_eff - K, got p={p}, T_eff-K={n}")
    return -2.0 * (p / n + math.log1p(-p / n))


def tlr_standardize(
    ln_t_lr_star,
    p: int,
    T: int,
    K: int,
    demeaned: bool = False,
    sigma_convention: str = SIGMA_AS_VARIANCE,
):
    """Standardize the log likelihood-ratio statistic to an asymptotic N(0, 1).

    Returns ((2/T_eff) * ln_t_lr_star + mean) / scale. With the default
    sigma_convention="variance" the scale is sqrt(sigma); "deviation"
    divides by sigma itself (the literal reading, kept for comparison).
    Accepts scalars or arrays in ln_t_lr_star.
    """
    mean = lr_clt_mean(p, T, K, demeaned)
    sigma = lr_clt_sigma(p, T, K, demeaned)
    if sigma_convention == SIGMA_AS_VARIANCE:
        scale = math.sqrt(sigma)
    elif sigma_convention == SIGMA_AS_DEVIATION:
        scale = sigma
    else:
        raise DomainError(f"unknown sigma_convention {sigma_convention!r}")
    t_eff = effective_sample_size(T, demeaned)
    return ((2.0 / t_eff) * np.asarray(ln_t_lr_star) + mean) / scale


def tij_noncentral_approx_power(
    crit: float, lambda_ij: float, p: int, T: int, K: int, demeaned: bool = False
) -> float:
    """Approximate power of the pair test from its shifted chi-square limit.

    Uses sqrt(T_ij) ~ N(delta, 1) with delta = sqrt(T_eff-K-p+2) sqrt(lambda),
    so P[T_ij > crit] = P[|Z + delta| > sqrt(crit)].
    """
    if crit < 0:
        raise DomainError(f"crit must be nonnegative, got {crit}")
    if lambda_ij < 0:
        raise DomainError(f"lambda_ij must be nonnegative, got {lambda_ij}")
    delta = math.sqrt(effective_sample_size(T, demeaned) - K - p + 2.0) * math.sqrt(lambda_ij)
    a = math.sqrt(crit)
    return normal_cdf(delta - a) + normal_cdf(-a - delta)


def tj_noncentral_approx_power(
    crit: float,
    lambda_j: float,
    regime: Regime,
    p: int,
    T: int,
    K: int,
    demeaned: bool = False,
) -> float:
    """Approximate power of the column test under the regime's noncentral limit.

    Concentration regime: normal with mean 1 + lambda/c and variance
    (2/(1-c) + 4 lambda/c) / (p-1). Boundary regime: scaled inverse
    chi-square (1 + lambda)(d+1)/chi2_{d+1} (the concentration ratio is 1
    at the boundary).
    """
    if crit < 0:
        raise DomainError(f"crit must be nonnegative, got {crit}")
    if lambda_j < 0:
        raise DomainError(f"lambda_j must be nonnegative, got {lambda_j}")
    if regime.kind == CONCENTRATION:
        c = regime.c
        mean = 1.0 + lambda_j / c
        sd = math.sqrt((2.0 / (1.0 - c) + 4.0 * lambda_j / c) / (p - 1.0))
        return normal_cdf((mean - crit) / sd)
    if crit == 0.0:
        return 1.0
    return chi2_cdf((1.0 + lambda_j) * (regime.d + 1.0) / crit, regime.d + 1.0)


def tj_boundary_critical(alpha: float, d: float) -> float:
    """Null critical value of a column statistic under the boundary limit."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return (d + 1.0) / chi2_quantile(alpha, d + 1.0)
