"""Special functions and the exact noncentral test-density family.

Gamma-function, F, chi-square and normal plumbing delegates to
scipy.special. The Gauss hypergeometric series and the noncentral density
of the marginal test statistics are implemented here in log space so the
large-degree regimes (both series degrees of order T) neither overflow nor
lose the tail.

The noncentral family covers both marginal statistics: the per-pair
statistic is the q=1 member, the per-column statistic the q=p-1 member,
each with denominator degrees n = T - K - p + 1 and noncentrality lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError, NoConvergence

MAX_SERIES_TERMS = 10**6
# Stop summing once a term contributes less than this fraction of the sum.
SERIES_TERM_RTOL = 1e-15

_LN_TERM_RTOL = math.log(SERIES_TERM_RTOL)


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return float(sp.gammaln(x))


def _signed_log_add(ln_a: float, sg_a: float, ln_b: float, sg_b: float) -> tuple[float, float]:
    """(ln|a+b|, sign(a+b)) from signed log representations of a and b."""
    if ln_a == -math.inf:
        return ln_b, sg_b
    if ln_b == -math.inf:
        return ln_a, sg_a
    if sg_a == sg_b:
        return float(np.logaddexp(ln_a, ln_b)), sg_a
    if ln_a == ln_b:
        return -math.inf, 1.0
    hi, lo, sg = (ln_a, ln_b, sg_a) if ln_a > ln_b else (ln_b, ln_a, sg_b)
    return hi + math.log1p(-math.exp(lo - hi)), sg


def _ln_2f1_series(a: float, b: float, c: float, z: float) -> tuple[float, float]:
    """Signed log of sum_i (a)_i (b)_i / (c)_i * z^i / i!.

    Terms are accumulated via their running ratio; a zero ratio means the
    series terminates (a or b is a non-positive integer). Summation stops
    once the terms are decreasing and relatively negligible.
    """
    ln_t, sg_t = 0.0, 1.0
    ln_s, sg_s = 0.0, 1.0
    for i in range(MAX_SERIES_TERMS):
        ratio = (a + i) * (b + i) / ((c + i) * (i + 1.0)) * z
        if ratio == 0.0:
            return ln_s, sg_s
        ln_t += math.log(abs(ratio))
        sg_t *= math.copysign(1.0, ratio)
        ln_s, sg_s = _signed_log_add(ln_s, sg_s, ln_t, sg_t)
        if abs(ratio) < 1.0 and ln_t - ln_s < _LN_TERM_RTOL:
            return ln_s, sg_s
    raise NoConvergence(
        f"hypergeometric series did not converge within {MAX_SERIES_TERMS} terms"
    )


def _validate_2f1_args(c: float, z: float) -> None:
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"third parameter must not be a non-positive integer, got {c}")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"argument must lie in [0, 1), got {z}")


def ln_gauss_2f1(
    a: float, b: float, c: float, z: float, use_euler: bool | None = None
) -> tuple[float, float]:
    """(ln|2F1(a,b;c;z)|, sign).

    For z > 0.5 the Euler transformation
    2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a,c-b;c;z) is applied by default;
    with a == b the transformed series has nonnegative terms and, for
    integer-valued c-a, terminates exactly.
    """
    _validate_2f1_args(c, z)
    if z == 0.0:
        return 0.0, 1.0
    if use_euler is None:
        use_euler = z > 0.5
    if use_euler:
        ln_s, sg_s = _ln_2f1_series(c - a, c - b, c, z)
        return ln_s + (c - a - b) * math.log1p(-z), sg_s
    return _ln_2f1_series(a, b, c, z)


def gauss_2f1(a: float, b: float, c: float, z: float, use_euler: bool | None = None) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) on z in [0, 1)."""
    ln_v, sg_v = ln_gauss_2f1(a, b, c, z, use_euler=use_euler)
    return sg_v * math.exp(ln_v)


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF of the F distribution with d1 and d2 degrees of freedom."""
    if d1 <= 0 or d2 <= 0:
        raise DomainError("degrees of freedom must be positive")
    if x < 0:
        raise DomainError(f"f_cdf requires x >= 0, got {x}")
    return float(sp.fdtr(d1, d2, x))


def f_quantile(p: float, d1: float, d2: float) -> float:
    """Quantile of the F distribution; inverse of f_cdf."""
    if d1 <= 0 or d2 <= 0:
        raise DomainError("degrees of freedom must be positive")
    if not 0.0 < p < 1.0:
        raise DomainError(f"f_quantile requires 0 < p < 1, got {p}")
    return float(sp.fdtri(d1, d2, p))


def chi2_cdf(x: float, k: float) -> float:
    """CDF of the chi-square distribution with k degrees of freedom."""
    if k <= 0:
        raise DomainError("degrees of freedom must be positive")
    if x < 0:
        raise DomainError(f"chi2_cdf requires x >= 0, got {x}")
    return float(sp.chdtr(k, x))


def chi2_quantile(p: float, k: float) -> float:
    """Quantile of the chi-square distribution; inverse of chi2_cdf."""
    if k <= 0:
        raise DomainError("degrees of freedom must be positive")
    if not 0.0 < p < 1.0:
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got {p}")
    return 2.0 * float(sp.gammaincinv(k / 2.0, p))


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return float(sp.ndtr(x))


def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p}")
    return float(sp.ndtri(p))


def ln_f_pdf(x: float, d1: float, d2: float) -> float:
    """Log of the central F density at x > 0."""
    h1, h2 = d1 / 2.0, d2 / 2.0
    ln_beta = ln_gamma(h1) + ln_gamma(h2) - ln_gamma(h1 + h2)
    return (
        h1 * math.log(d1 / d2)
        + (h1 - 1.0) * math.log(x)
        - (h1 + h2) * math.log1p(d1 * x / d2)
        - ln_beta
    )


def f_pdf(x: float, d1: float, d2: float) -> float:
    """Central F density; at x == 0 it is +inf for d1 < 2, 1 for d1 == 2, 0 for d1 > 2."""
    if d1 <= 0 or d2 <= 0:
        raise DomainError("degrees of freedom must be positive")
    if x < 0:
        raise DomainError(f"f_pdf requires x >= 0, got {x}")
    if x == 0.0:
        if d1 < 2.0:
            return math.inf
        return 1.0 if d1 == 2.0 else 0.0
    return math.exp(ln_f_pdf(x, d1, d2))


@dataclass(frozen=True)
class ZjDensityParams:
    """Parameters of the noncentral marginal-test density.

    q      numerator degrees (1 for the per-pair test, p-1 for the
           per-column test)
    n      denominator degrees T - K - p + 1
    lam    noncentrality, 0 under the null
    """

    q: int
    n: int
    lam: float

    def __post_init__(self) -> None:
        if int(self.q) != self.q or self.q < 1:
            raise DomainError(f"q must be an integer >= 1, got {self.q}")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be an integer >= 1, got {self.n}")
        if not self.lam >= 0.0:
            raise DomainError(f"lam must be nonnegative, got {self.lam}")


def density_Z(x: float, params: ZjDensityParams) -> float:
    """Density of the marginal test statistic under noncentrality lam.

    Equals the central F_{q,n} density scaled by (1+lam)^(-(n+q)/2) and the
    hypergeometric factor 2F1((n+q)/2, (n+q)/2; q/2; w) at
    w = qx/(n+qx) * lam/(1+lam). At lam == 0 it reduces exactly to the
    central F_{q,n} density.
    """
    if x < 0:
        raise DomainError(f"density_Z requires x >= 0, got {x}")
    q, n, lam = params.q, params.n, params.lam
    if lam == 0.0:
        return f_pdf(x, q, n)
    half = (n + q) / 2.0
    scale = math.exp(-half * math.log1p(lam))
    if x == 0.0:
        return f_pdf(0.0, q, n) * scale  # 2F1 factor is 1 at w = 0
    w = (q * x / (n + q * x)) * (lam / (1.0 + lam))
    ln_h, sg_h = ln_gauss_2f1(half, half, q / 2.0, w)
    ln_dens = ln_f_pdf(x, q, n) - half * math.log1p(lam) + ln_h
    return sg_h * math.exp(ln_dens)


# Quadrature error budget for tail probabilities of density_Z.
POWER_QUAD_ABSTOL = 1e-6


def marginal_power_Z(crit: float, params: ZjDensityParams) -> float:
    """Upper tail probability of the noncentral marginal statistic beyond crit.

    Integrates density_Z on [crit, inf) after the substitution
    x = crit + u^2, which removes the q = 1 endpoint singularity; the
    adaptive Gauss-Kronrod scheme (QUADPACK) handles the transformed
    integrand including its tail.
    """
    from scipy import integrate

    if crit < 0:
        raise DomainError(f"marginal_power_Z requires crit >= 0, got {crit}")

    def integrand(u: float) -> float:
        return 2.0 * u * density_Z(crit + u * u, params)

    out = integrate.quad(
        integrand, 0.0, np.inf, epsabs=1e-9, epsrel=1e-10, limit=300, full_output=1
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > POWER_QUAD_ABSTOL:
        raise NoConvergence(f"tail quadrature failed: {out[3]}")
    if abserr > POWER_QUAD_ABSTOL:
        raise NoConvergence(f"tail quadrature error {abserr:.2e} above tolerance")
    return min(max(value, 0.0), 1.0)
