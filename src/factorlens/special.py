"""Special functions and the exact noncentral test-density family.

Gamma-function, beta-function, F, chi-square and normal plumbing delegates
to scipy.special.

The noncentral family covers both marginal statistics: the per-pair
statistic is the q=1 member, the per-column statistic the q=p-1 member,
each with denominator degrees n = T - K - p + 1 and noncentrality lam.
Its density and tail are negative-binomial mixtures of central Beta laws
(Fisher's non-null law of the squared multiple correlation; Muirhead 1982,
Aspects of Multivariate Statistical Theory, section 5.2), summed in log
space so the large-degree regimes (both degrees of order T) neither
overflow nor lose the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError

# Mixture terms past the first k whose negative-binomial upper tail mass
# falls below this bound are dropped.
_NB_TAIL = 1e-17
# Bounds the memory of one mixture sum (a few arrays of this many floats).
_MAX_MIXTURE_TERMS = 10**6


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return float(sp.gammaln(x))


def _check_args(name: str, dofs: tuple, x=None, p: float | None = None) -> None:
    """Domain checks shared by the F, chi-square and normal laws; x may be an array."""
    if any(d <= 0 for d in dofs):
        raise DomainError("degrees of freedom must be positive")
    if x is not None and np.any(np.asarray(x) < 0):
        raise DomainError(f"{name} requires x >= 0, got {np.min(x)}")
    if p is not None and not 0.0 < p < 1.0:
        raise DomainError(f"{name} requires 0 < p < 1, got {p}")


def _like(values, x):
    """A Python float for a scalar x, the array itself for an array x.

    The functions below that take arrays through it give each entry bit for
    bit as the scalar call: scipy's ufuncs evaluate entry by entry.
    """
    return float(values) if np.ndim(x) == 0 else values


def f_cdf(x, d1: float, d2: float):
    """CDF of the F distribution with d1 and d2 degrees of freedom; x may be an array."""
    _check_args("f_cdf", (d1, d2), x=x)
    return _like(sp.fdtr(d1, d2, x), x)


def f_sf(x, d1: float, d2: float):
    """Upper tail of the F law, 1 - f_cdf without the cancellation; x may be an array."""
    _check_args("f_sf", (d1, d2), x=x)
    return _like(sp.fdtrc(d1, d2, x), x)


def f_quantile(p: float, d1: float, d2: float) -> float:
    """Quantile of the F distribution; inverse of f_cdf."""
    _check_args("f_quantile", (d1, d2), p=p)
    return float(sp.fdtri(d1, d2, p))


def chi2_cdf(x, k: float):
    """CDF of the chi-square distribution with k degrees of freedom; x may be an array."""
    _check_args("chi2_cdf", (k,), x=x)
    return _like(sp.chdtr(k, x), x)


def chi2_sf(x, k: float):
    """Upper tail of the chi-square law, 1 - chi2_cdf without cancellation; x may be an array."""
    _check_args("chi2_sf", (k,), x=x)
    return _like(sp.chdtrc(k, x), x)


def chi2_quantile(p: float, k: float) -> float:
    """Quantile of the chi-square distribution; inverse of chi2_cdf."""
    _check_args("chi2_quantile", (k,), p=p)
    return 2.0 * float(sp.gammaincinv(k / 2.0, p))


def normal_cdf(x):
    """Standard normal CDF; x may be an array."""
    return _like(sp.ndtr(x), x)


def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    _check_args("normal_quantile", (), p=p)
    return float(sp.ndtri(p))


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


def _mixture_size(params: ZjDensityParams) -> int:
    """Number of mixture terms: one past the first k with P[NB > k] below _NB_TAIL.

    P[NB > k] = I_{rho^2}(k+1, m) falls in k; the first small one is found
    by doubling k, then bisection. Doubling stops past _MAX_MIXTURE_TERMS,
    which _ln_mixture_weights then rejects.
    """
    m = (params.n + params.q) / 2.0
    rho2 = params.lam / (1.0 + params.lam)

    def tail_is_small(k: int) -> bool:
        return float(sp.betainc(k + 1.0, m, rho2)) < _NB_TAIL

    hi = 0
    while hi <= _MAX_MIXTURE_TERMS and not tail_is_small(hi):
        hi = 2 * hi + 1
    lo = (hi - 1) // 2  # when hi > 0 the tail at lo is not small
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail_is_small(mid) else (mid, hi)
    return hi + 1


def _ln_mixture_weights(params: ZjDensityParams, size: int) -> np.ndarray:
    """ln NB(k; m, 1 - rho^2) for k < size, m = (n+q)/2, rho^2 = lam/(1+lam).

    At lam == 0 the weight at k = 0 is 1 (xlogy(0, 0) = 0) and the rest
    are 0 (ln 0 = -inf).
    """
    q, n, lam = params.q, params.n, params.lam
    if size > _MAX_MIXTURE_TERMS:
        raise DomainError(
            f"lam={lam} at q={q}, n={n} needs more than {_MAX_MIXTURE_TERMS} mixture terms"
        )
    m = (n + q) / 2.0
    k = np.arange(float(size))
    return (
        sp.gammaln(m + k) - sp.gammaln(m) - sp.gammaln(k + 1.0)
        - m * math.log1p(lam) + sp.xlogy(k, lam / (1.0 + lam))
    )


def density_Z(x: float, params: ZjDensityParams) -> float:
    """Density of the marginal test statistic under noncentrality lam.

    With B = qx/(n+qx), rho^2 = lam/(1+lam) and m = (n+q)/2, B is the
    mixture sum_k NB(k; m, 1-rho^2) Beta(q/2+k, n/2) (Muirhead 1982,
    section 5.2), and the density of x is that of B times the Jacobian
    qn/(n+qx)^2. Summed term by term this is the paper's form: the central
    F_{q,n} density times (1+lam)^(-m) 2F1(m, m; q/2; rho^2 B). The terms
    are log-concave in k; the sum runs on past the negative-binomial
    truncation until its last term is negligible, so the far tail keeps
    its relative accuracy. At lam == 0 it is the central F_{q,n} density.
    Raises DomainError when the sum would need more than a million terms
    (lam times (n+q)/2 of order a million).
    """
    if x < 0:
        raise DomainError(f"density_Z requires x >= 0, got {x}")
    q, n, lam = params.q, params.n, params.lam
    if x == 0.0:
        # only the k = 0 term, (1+lam)^(-m) times the central F_{q,n}
        # density, is nonzero at B = 0; that density is inf, 1 or 0 there
        if q == 1:
            return math.inf
        return math.exp(-(n + q) / 2.0 * math.log1p(lam)) if q == 2 else 0.0
    s = n + q * x
    ln_b, ln_1mb = math.log(q * x / s), math.log(n / s)
    size = _mixture_size(params)
    while True:
        ln_w = _ln_mixture_weights(params, size)
        a = q / 2.0 + np.arange(float(size))
        # ln of w_k times the Beta(a, n/2) density at B times the Jacobian,
        # which is B(1-B)/x
        ln_t = ln_w + a * ln_b + (n / 2.0) * ln_1mb - sp.betaln(a, n / 2.0) - math.log(x)
        top = float(ln_t.max())
        if ln_t[-1] < top + math.log(_NB_TAIL):
            return math.exp(top + math.log(float(np.sum(np.exp(ln_t - top)))))
        size *= 2


def marginal_power_Z(crit: float, params: ZjDensityParams) -> float:
    """Upper tail probability of the noncentral marginal statistic beyond crit.

    With B_crit = q crit/(n + q crit) and the mixture of density_Z,
    P[Z > crit] = sum_k NB(k; m, 1-rho^2) P[Beta(q/2+k, n/2) > B_crit]
    (Muirhead 1982, section 5.2). Each Beta tail is the lower tail of the
    mirrored Beta(n/2, q/2+k) at 1 - B_crit = n/(n + q crit), computed
    without the subtraction. The dropped weights sum to less than 1e-17;
    the result is clipped to [0, 1] because at saturation the sum can
    exceed 1 by rounding. Raises DomainError as density_Z does.
    """
    if crit < 0:
        raise DomainError(f"marginal_power_Z requires crit >= 0, got {crit}")
    q, n = params.q, params.n
    size = _mixture_size(params)
    w = np.exp(_ln_mixture_weights(params, size))
    tails = sp.betainc(n / 2.0, q / 2.0 + np.arange(float(size)), n / (n + q * crit))
    return min(max(float(np.sum(w * tails)), 0.0), 1.0)
