"""Cholesky factors and inverses of symmetric positive-definite arrays.

Covariance and precision matrices in this package are small dense float64
arrays (design envelope p <= ~2000). Factorizations are backed by LAPACK
through numpy/scipy; positive definiteness is judged on the Cholesky pivots
against PIVOT_RTOL, one rule for single matrices and for stacks. Only the
lower triangle of an input is read. Every inverse, the kernel's V and
invert_spd alike, comes from lower factors through inverse_lower: dtrtri,
then an in-place dsyrk at half a full product's flops. LAPACK's potri does
both in one call, but OpenBLAS threads its dlauum step, which rounds with
the thread count and made calibration at p = 20 about 12% slower on 2 cores.

OpenBLAS splits dsyrk, and numpy's Cholesky factorization, over its threads
at p >= 100 or so, and the split changes the last bits. So inverse_lower
runs scipy's bundled OpenBLAS on one thread, and cholesky numpy's: their
results are then the same on any thread count. The pin is OpenBLAS's
openblas_set_num_threads_local, called through ctypes and undone after the
call; a build that does not export it (another BLAS) runs unpinned. The
calibration engine enters SCIPY_BLAS_PIN itself, before it forks its
worker processes and until it has reaped them, so inverse_lower's pin only
counts blocks there and each process runs one BLAS thread: OpenBLAS shuts
its thread pool down at a fork, and a count restored to two after the
fork would start it again, with a helper thread that spins.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

import numpy as np
import scipy
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dtrtri

from .errors import NotPositiveDefinite, Singular

# A Cholesky pivot at or below this fraction of the largest diagonal entry
# counts as "not positive definite".
PIVOT_RTOL = 1e-12


class _ThreadPin:
    """A bundled OpenBLAS, run on one thread inside `with pin:` blocks.

    set_threads is its openblas_set_num_threads_local, which sets the count
    and returns the previous one. In the pthreads builds of numpy's and
    scipy's wheels the count is the whole process's, so blocks running at
    once on several Python threads share it: the first sets the count to
    one, and the last restores it.
    """

    def __init__(self, set_threads) -> None:
        self._set_threads = set_threads
        self._lock = threading.Lock()
        self._depth = self._restore = 0

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._restore = self._set_threads(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth:
                self._set_threads(self._restore)


def _thread_pin(package) -> _ThreadPin | None:
    """The pin of the OpenBLAS bundled in package.libs, or None where it has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        try:
            set_threads = ctypes.CDLL(os.path.join(libs, name)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
        return _ThreadPin(set_threads)
    return None


# scipy's OpenBLAS runs inverse_lower's dtrtri and dsyrk, numpy's runs the
# Cholesky factorizations; either is None where its build has no pin, and
# then runs on its default thread count
SCIPY_BLAS_PIN = _thread_pin(scipy)
NUMPY_BLAS_PIN = _thread_pin(np)
_UNPINNED = contextlib.nullcontext()


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == a.

    Raises NotPositiveDefinite when a pivot falls at or below
    PIVOT_RTOL times the largest diagonal entry.
    """
    max_diag = float(np.max(np.diagonal(a)))
    if max_diag <= 0.0:
        raise NotPositiveDefinite("largest diagonal entry is not positive")
    try:
        with NUMPY_BLAS_PIN or _UNPINNED:
            factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky factorization failed") from None
    pivots = np.diagonal(factor) ** 2
    if float(np.min(pivots)) <= PIVOT_RTOL * max_diag:
        raise NotPositiveDefinite(
            f"Cholesky pivot {float(np.min(pivots)):.3e} below tolerance "
            f"{PIVOT_RTOL * max_diag:.3e}"
        )
    return factor


def inverse_lower(factors: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L^T)^-1 = L^-T L^-1 per lower factor L; the strict upper is zero."""
    # Fortran-ordered slices: in any other layout f2py hands dsyrk a copy,
    # which it fills and returns while v stays zero
    v = np.zeros(factors.shape).transpose(0, 2, 1)
    with SCIPY_BLAS_PIN or _UNPINNED:
        for r, factor in enumerate(factors):
            l_inv, _ = dtrtri(factor, lower=1)  # callers keep L's diagonal nonzero, so info is 0
            dsyrk(1.0, l_inv, trans=1, lower=1, c=v[r], overwrite_c=1)
    return v


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """A symmetric copy of a, or of each matrix of a stack: its lower triangle mirrored."""
    return np.where(np.tri(a.shape[-1], dtype=bool), a, np.swapaxes(a, -1, -2))


def invert_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite array via its Cholesky factor."""
    return mirror_lower(inverse_lower(cholesky(a)[None]))[0]


def stacked_cholesky(scatters: np.ndarray) -> np.ndarray:
    """Lower factors of a stack of scatters under the stacked pivot rule.

    A dataset fails, as its stacked scatter fails cholesky, when a Cholesky
    pivot is at or below PIVOT_RTOL times the scatter's largest diagonal
    entry. Singular.index is the first failing dataset's position.
    """
    try:
        L = np.linalg.cholesky(scatters)
    except np.linalg.LinAlgError:
        if len(scatters) == 1:
            raise Singular("a stacked covariance is not positive definite", 0) from None
        # the batched call fails the whole stack; factor one at a time to find the first failure
        for i, scatter in enumerate(scatters):
            try:
                stacked_cholesky(scatter[None])
            except Singular as exc:
                raise Singular(str(exc), i) from None
        raise  # unreachable: a stack fails only where one of its datasets fails
    pivots = np.min(np.diagonal(L, axis1=1, axis2=2) ** 2, axis=1)
    bound = PIVOT_RTOL * np.diagonal(scatters, axis1=1, axis2=2).max(axis=1)
    bad = np.flatnonzero(pivots <= bound)
    if bad.size:
        i = int(bad[0])
        raise Singular(
            f"a stacked covariance is not positive definite: Cholesky "
            f"pivot {pivots[i]:.3e} below tolerance {bound[i]:.3e}",
            i,
        )
    return L
