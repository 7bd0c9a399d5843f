"""Seeded random generation: substreams and Wishart draws.

Substreams are derived from a (master_seed, stream_index) pair through
numpy's SeedSequence spawning, so any replicate is a pure function of the
pair and can be generated on any worker in any order. Wishart matrices are
sampled through the Bartlett decomposition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension
from .teststats import FactorStats, effective_sample_size, stats_from_factors

_UINT64_BOUND = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """Names one reproducible random substream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not 0 <= int(value) < _UINT64_BOUND:
                raise BadDimension(f"{name} must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.PCG64(seq))


@functools.lru_cache(maxsize=64)
def _bartlett_layout(p: int, n: int):
    """Read-only (diagonal indices, degrees n, ..., n-p+1, strict-lower indices)."""
    diag, df, tril = np.diag_indices(p), n - np.arange(p), np.tril_indices(p, -1)
    for arr in (*diag, df, *tril):
        arr.flags.writeable = False
    return diag, df, tril


def bartlett_factor(
    p: int, n: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Lower-triangular A with A @ A.T ~ Wishart_p(n, I).

    Diagonal entries are sqrt(chi-square) with degrees n, n-1, ..., n-p+1;
    strict lower entries are standard normal. The diagonal is drawn first,
    then the off-diagonal block, which pins the substream layout. With
    ``out`` (p-by-p, strict upper triangle already zero) the draw is written
    there and ``out`` is returned; only the lower triangle is written.
    """
    if n < p:
        raise BadDimension(f"Wishart degrees n={n} must be >= dimension p={p}")
    diag, df, tril = _bartlett_layout(p, n)
    a = np.zeros((p, p)) if out is None else out
    a[diag] = np.sqrt(rng.chisquare(df))
    if p > 1:
        a[tril] = rng.standard_normal(p * (p - 1) // 2)
    return a


def sample_V11_null(
    p: int, T: int, K: int, seed: SeedSpec, demeaned: bool = False
) -> FactorStats:
    """The kernel's statistics of one null draw of the sample-precision block.

    Draws W ~ Wishart_p(T_eff - K, I) and runs the kernel on its Bartlett
    factor, as a factor of E = W, so that V11 = W^{-1}. In inverse
    Wishart terms V11 has nu = (T_eff - K) + p + 1 degrees of freedom and
    identity parameter, which is the null law of the precision block up to
    its (irrelevant) diagonal; the Wishart direction is sampled because
    Bartlett gives its factor directly.
    """
    t_eff = effective_sample_size(T, demeaned)
    if p + K >= t_eff:
        raise BadDimension(f"need p + K < T_eff, got p={p}, K={K}, T_eff={t_eff}")
    a = bartlett_factor(p, t_eff - K, seed.generator())
    return stats_from_factors(a[None], t_eff, K)
