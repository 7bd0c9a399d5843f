import math

import numpy as np
import pytest
from scipy.special import kolmogorov

from factorlens.errors import DomainError
from factorlens.randmat import SeedSpec, bartlett_factor
from factorlens.teststats import FactorModelSpec, FactorStats, stats_from_factors


def rand_spd(rng: np.random.Generator, p: int, jitter: float = 0.5) -> np.ndarray:
    """Random SPD matrix A = G G^T + jitter * I, symmetric bit for bit."""
    g = rng.standard_normal((p, p))
    a = g @ g.T + jitter * np.eye(p)
    return np.triu(a) + np.triu(a, 1).T


def plain_bartlett(p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The Bartlett draw written plainly: fresh zeros, index arrays built per call."""
    a = np.zeros((p, p))
    a[np.diag_indices(p)] = np.sqrt(rng.chisquare(n - np.arange(p)))
    if p > 1:
        a[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    return a


def null_kernel(p: int, T: int, K: int, seed: SeedSpec, demeaned: bool = False) -> FactorStats:
    """The kernel's statistics of one null draw: the Bartlett factor of W_p(T_eff - K, I).

    The factor is drawn from seed's substream as the calibration engine
    draws replicate seed.stream_index of seed.master_seed, and taken as a
    factor of E = W, so that V11 = W^-1.
    """
    t_eff = FactorModelSpec(p, K, T, demeaned).t_eff
    return stats_from_factors(bartlett_factor(p, t_eff - K, seed.generator())[None], t_eff, K)


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Sup-norm distance between the empirical CDF of a sorted sample and cdf."""
    s = np.asarray(sample, dtype=np.float64)
    if s.size == 0:
        raise DomainError("ks_statistic needs a nonempty sample")
    if np.any(np.diff(s) < 0):
        raise DomainError("sample must be sorted ascending")
    values = np.asarray(cdf(s), dtype=float)
    if values.shape != s.shape:
        values = np.asarray([cdf(x) for x in s], dtype=float)
    n = s.size
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - values))
    d_minus = float(np.max(values - (grid - 1.0 / n)))
    return max(d_plus, d_minus)


def ks_asymptotic_pvalue(d: float, n: int) -> float:
    """Asymptotic Kolmogorov p-value of a KS distance d on n observations."""
    return float(kolmogorov(d * math.sqrt(n)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240612)
