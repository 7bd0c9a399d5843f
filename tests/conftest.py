import numpy as np
import pytest


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240612)
