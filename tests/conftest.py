import contextlib
import math
import os

import numpy as np
import pytest
from scipy.special import kolmogorov

from factorlens import calibrate, linalg, teststats
from factorlens.errors import DomainError
from factorlens.randmat import SeedSpec, bartlett_factor
from factorlens.teststats import FactorModelSpec, FactorStats


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
    return FactorStats(bartlett_factor(p, t_eff - K, seed.generator())[None], t_eff, K)


def halve_v_of(monkeypatch, row: int) -> None:
    """Halve the kernel's V for one row, counted over every factor the kernel inverts, in order.

    v_jj e_jj falls to about 1/2 there, so the first read of that row's V refuses it.
    """
    inverse_lower, seen = teststats.inverse_lower, [0]

    def halved(L, out=None):
        v = inverse_lower(L, out=out)
        if 0 <= row - seen[0] < len(L):
            v[row - seen[0]] *= 0.5
        seen[0] += len(L)
        return v

    monkeypatch.setattr(teststats, "inverse_lower", halved)


def record_v_addresses(monkeypatch) -> list:
    """The data address of every V the kernel writes in this process, in order, as it is written.

    Each V is kept alive, so that a V allocated afresh cannot take the
    address of one freed before it.
    """
    inverse_lower, addresses, kept = teststats.inverse_lower, [], []

    def recording(L, out=None):
        v = inverse_lower(L, out=out)
        addresses.append(v.ctypes.data)
        kept.append(v)
        return v

    monkeypatch.setattr(teststats, "inverse_lower", recording)
    return addresses


def count_forks(monkeypatch, processes=3):
    """Let the calibration engine use `processes` processes, and count the children it forks.

    Where BLAS has no thread pin, a stand-in lets the engine fork all the
    same; each process then runs BLAS on its default thread count.
    """
    if linalg.BLAS_PIN is None:
        monkeypatch.setattr(linalg, "BLAS_PIN", contextlib.nullcontext())
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def force_chunk(monkeypatch, chunk) -> None:
    """Run the calibration engine in chunks and fork shares of `chunk` replicates (None: its own).

    The engine sizes both from calibrate.default_chunk, as default_chunk(p)
    and default_chunk(p, MIN_SHARE_BYTES), and caps them at MIN_SHARE and reps.
    """
    if chunk is not None:
        monkeypatch.setattr(calibrate, "default_chunk", lambda p, budget=None: chunk)


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
