"""Seeded random generation: substreams and Wishart draws.

Substreams are derived from a (master_seed, stream_index) pair through
numpy's SeedSequence spawning, so any replicate is a pure function of the
pair and can be generated on any worker in any order. SeedSpec.generator
builds one substream with numpy's own SeedSequence and PCG64 and is the
reference; substreams seeds a block of consecutive indices at once and
yields bit-identical streams at a fraction of the cost, which is what the
calibration, power and batch loops use. Wishart matrices are sampled
through the Bartlett decomposition.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension

_UINT64_BOUND = 2**64


def check_seed(name: str, seed) -> int:
    """seed as an int: numpy seeds, and indexes substreams, by integers 0 <= seed < 2**64 only."""
    if not hasattr(seed, "__index__") or not 0 <= seed < _UINT64_BOUND:  # a float has none
        raise BadDimension(f"{name} must fit in an unsigned 64-bit integer, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class SeedSpec:
    """Names one reproducible random substream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        check_seed("master_seed", self.master_seed)
        check_seed("stream_index", self.stream_index)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.PCG64(seq))


# numpy's SeedSequence (pool of four uint32 words) spawn-key mixing and PCG64
# seeding, as in numpy/random/bit_generator.pyx and pcg64.h. Hash constant k
# of a hashmix call is the one it XORs in; the call then multiplies by
# constant k + 1.
_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _powers(init: int, mult: int, n: int) -> list[int]:
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


# mix_entropy's constants 16 to 24, 4 per spawn word: the 16 before them mix
# the master seed, which numpy's SeedSequence(master_seed).pool holds mixed
_SPAWN_A = np.array(_powers(0x43B0D7E5, 0x931E8875, 25)[16:], dtype=np.uint32)[:, None]
# generate_state's constants for its 8 output words
_STATE_B = np.array(_powers(0x8B51F9DD, 0x58F38DED, 9), dtype=np.uint32)[:, None]


def _fold(x):
    return x ^ (x >> 16)


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix on uint32 arrays, whose products wrap as its words do."""
    return _fold((value ^ xor) * mult)


def _mix(x, y):
    return _fold(_MIX_L * x - _MIX_R * y)


def substreams(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Substreams start, ..., stop - 1 of master_seed, seeded as one block.

    The r-th generator yielded produces bit for bit the stream of
    SeedSpec(master_seed, start + r).generator(). Only the spawn-key words
    depend on the index, so numpy's SeedSequence mixes the master seed once
    and each index's spawn words, SeedSequence state and PCG64 seed are
    computed together, over arrays.
    Every yielded generator is the same object, re-seated: it is valid only
    until the next one is yielded, so draw from it before advancing.
    """
    master_seed, start, stop = check_seed("master_seed", master_seed), int(start), int(stop)
    if not 0 <= start <= stop <= _UINT64_BOUND:
        raise BadDimension(
            f"need 0 <= start <= stop <= 2**64 for stream indices, got [{start}, {stop})"
        )
    return _reseated(master_seed, start, stop) if start < stop else iter(())


def _reseated(master_seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    r = np.uint64(start) + np.arange(stop - start, dtype=np.uint64)
    # the spawn key (r,) adds r's low word, and its high word when nonzero
    low = _hashmix(r.astype(np.uint32), _SPAWN_A[:4], _SPAWN_A[1:5])
    pool = _mix(np.random.SeedSequence(master_seed).pool[:, None], low)
    if stop > 2**32:
        hi = (r >> np.uint64(32)).astype(np.uint32)
        pool = np.where(hi > 0, _mix(pool, _hashmix(hi, _SPAWN_A[4:8], _SPAWN_A[5:])), pool)
    # generate_state(4, uint64): 8 words cycling over the pool, paired little-endian
    words = _hashmix(np.tile(pool, (2, 1)), _STATE_B[:8], _STATE_B[1:]).astype(np.uint64)
    seeds = words[0::2] | words[1::2] << np.uint64(32)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for s0, s1, q0, q1 in zip(*seeds.tolist()):
        # PCG64's srandom: inc = 2 initseq + 1, then two LCG steps around + initstate
        inc = (q0 << 65 | q1 << 1 | 1) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,  # drop a 32-bit half the previous stream left buffered
            "uinteger": 0,
        }
        yield rng


@functools.lru_cache(maxsize=64)
def _bartlett_layout(p: int, n: int):
    """Read-only (diagonal, degrees n, ..., n-p+1, strict lower), indices flat (i*p + j)."""
    rows, cols = np.tril_indices(p, -1)
    diag, df, tril = np.arange(p) * (p + 1), n - np.arange(p), rows * p + cols
    for arr in (diag, df, tril):
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
    there and ``out`` is returned; only the lower triangle is written. The
    draw is scattered through ``out``'s flat view, so ``out`` must be C-ordered.
    """
    if n < p:
        raise BadDimension(f"Wishart degrees n={n} must be >= dimension p={p}")
    a = np.zeros((p, p)) if out is None else out
    if a.shape != (p, p) or not a.flags.c_contiguous:
        raise BadDimension(f"out must be a C-contiguous {p}-by-{p} array")
    diag, df, tril = _bartlett_layout(p, n)
    flat = a.reshape(-1)
    flat[diag] = np.sqrt(rng.chisquare(df))
    if p > 1:
        flat[tril] = rng.standard_normal(p * (p - 1) // 2)
    return a
