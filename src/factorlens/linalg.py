"""Cholesky factors and inverses of symmetric positive-definite arrays.

Covariance and precision matrices in this package are small dense float64
arrays (design envelope p <= ~2000). Factorizations are backed by LAPACK
through numpy and OpenBLAS; positive definiteness is judged on the Cholesky
pivots against PIVOT_RTOL, one rule and one routine (stacked_cholesky)
for single matrices and for stacks.
Only the lower triangle of an input is read. Every inverse, the kernel's V
and invert_spd alike, comes from lower factors through inverse_lower:
dtrtri, then an in-place dsyrk at half a full product's flops. LAPACK's
potri does both in one call, but OpenBLAS threads its dlauum step, which
rounds with the thread count and made calibration at p = 20 about 12%
slower on 2 cores.

inverse_lower calls dtrtri and dsyrk through ctypes, in the OpenBLAS that
numpy's wheels bundle (ILP64: scipy_dtrtri_64_ and scipy_dsyrk_64_, or
dtrtri_64_ and dsyrk_64_ in numpy 1.x wheels), so importing this module
loads no scipy.linalg and a process runs one OpenBLAS. Where numpy bundles
no such library, the same two routines come from the function pointers
that scipy.linalg.cython_lapack and cython_blas export (LP64), which
imports scipy.linalg.

OpenBLAS splits dsyrk, Cholesky factorizations and matrix products over its
threads at p >= 100 or so, and the split changes the last bits. So
inverse_lower, cholesky, stacked_cholesky and scatter run inside BLAS_PIN,
on one thread of numpy's OpenBLAS: their results are then the same on any
thread count. The pin is OpenBLAS's openblas_set_num_threads_local, called
through ctypes and undone after the call; a build that does not export it
(another BLAS) runs unpinned. The calibration engine enters BLAS_PIN
itself, before it forks its worker processes and until it has reaped them,
so the nested pins only count blocks there and each process runs one BLAS
thread: OpenBLAS shuts its thread pool down at a fork, and a count restored
to two after the fork would start it again, with a helper thread that
spins.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

import numpy as np

from .errors import BadDimension, NotPositiveDefinite, Singular

# A Cholesky pivot at or below this fraction of the largest diagonal entry
# counts as "not positive definite".
PIVOT_RTOL = 1e-12


class _ThreadPin:
    """A bundled OpenBLAS, run on one thread inside `with pin:` blocks.

    set_threads is its openblas_set_num_threads_local, which sets the count
    and returns the previous one. In the pthreads build of numpy's wheels
    the count is the whole process's, so blocks running at once on several
    Python threads share it: the first sets the count to one, and the last
    restores it.
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


def _bundled_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled in numpy's wheel, opened through ctypes, or None where it has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" in name:
            try:
                return ctypes.CDLL(os.path.join(libs, name))
            except OSError:
                continue
    return None


def _thread_pin(lib: ctypes.CDLL | None) -> _ThreadPin | None:
    """The pin of an opened OpenBLAS, or None where lib is None or exports none."""
    set_threads = getattr(lib, "openblas_set_num_threads_local", None)
    if set_threads is None:
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    return _ThreadPin(set_threads)


def _routines(lib: ctypes.CDLL | None) -> tuple:
    """dtrtri and dsyrk as ctypes functions that return nothing, and their integer type.

    They are lib's ILP64 exports where it has them, taking 64-bit integers,
    and otherwise the functions behind scipy.linalg's cython_lapack and
    cython_blas capsules, which run the same LAPACK on 32-bit integers.
    Both take every argument by reference, and are called without
    argtypes: checking the arguments would cost about 2 us a call at p = 10.
    """
    for prefix in ("scipy_", ""):
        dtrtri = getattr(lib, prefix + "dtrtri_64_", None)
        dsyrk = getattr(lib, prefix + "dsyrk_64_", None)
        if dtrtri is not None and dsyrk is not None:
            integer = ctypes.c_int64
            break
    else:
        from scipy.linalg import cython_blas, cython_lapack

        api = ctypes.pythonapi
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
        pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", api)
        )

        def exported(module, routine):
            capsule = module.__pyx_capi__[routine]
            return ctypes.CFUNCTYPE(None)(pointer(capsule, name(capsule)))

        dtrtri, dsyrk = exported(cython_lapack, "dtrtri"), exported(cython_blas, "dsyrk")
        integer = ctypes.c_int
    dtrtri.restype = dsyrk.restype = None
    return dtrtri, dsyrk, integer


# numpy's OpenBLAS runs every factorization, product and inverse here; the
# pin is None where numpy bundles none, and then BLAS runs on its default
# thread count
_OPENBLAS = _bundled_openblas()
BLAS_PIN = _thread_pin(_OPENBLAS)
_ROUTINES = _routines(_OPENBLAS)
_UNPINNED = contextlib.nullcontext()
# the constant arguments of inverse_lower's calls
_LOWER, _NON_UNIT, _TRANSPOSE = (ctypes.byref(ctypes.c_char(flag)) for flag in (b"L", b"N", b"T"))
_ONE, _ZERO = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(0.0))


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == a, under stacked_cholesky's pivot rule.

    Raises NotPositiveDefinite when a pivot falls at or below
    PIVOT_RTOL times the largest diagonal entry.
    """
    try:
        return stacked_cholesky(np.asarray(a)[None])[0]
    except Singular as exc:
        raise NotPositiveDefinite(str(exc).replace("a stacked covariance", "the matrix")) from None


def inverse_lower(factors: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L^T)^-1 = L^-T L^-1 per lower factor L; the strict upper is zero."""
    p = factors.shape[-1]
    if factors.ndim != 3 or factors.shape[1] != p:
        # the routines write p^2 doubles per factor through raw pointers
        raise BadDimension(f"expected a stack of square factors, got shape {factors.shape}")
    # each v[r] is a Fortran-ordered p-by-p block, 8 p^2 bytes past v[r-1]
    v = np.zeros(factors.shape).transpose(0, 2, 1)
    work = np.empty((p, p), order="F")
    dtrtri, dsyrk, integer = _ROUTINES
    n, ld = ctypes.byref(integer(p)), ctypes.byref(integer(max(p, 1)))
    a, c = ctypes.c_void_p(work.ctypes.data), ctypes.c_void_p(v.ctypes.data)
    # info stays 0: callers keep L's diagonal nonzero
    trtri_args = (_LOWER, _NON_UNIT, n, a, ld, ctypes.byref(integer()))
    syrk_args = (_LOWER, _TRANSPOSE, n, n, _ONE, a, ld, _ZERO, c, ld)
    with BLAS_PIN or _UNPINNED:
        for factor in factors:
            work[...] = factor
            dtrtri(*trtri_args)  # work's lower triangle becomes L^-1
            dsyrk(*syrk_args)  # v[r]'s lower triangle becomes (L^-1)^T L^-1
            c.value += 8 * p * p
    return v


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """A symmetric copy of a, or of each matrix of a stack: its lower triangle mirrored."""
    return np.where(np.tri(a.shape[-1], dtype=bool), a, np.swapaxes(a, -1, -2))


def invert_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite array via its Cholesky factor."""
    return mirror_lower(inverse_lower(cholesky(a)[None]))[0]


def scatter(Y: np.ndarray) -> np.ndarray:
    """Y Y^T of a matrix, or of each matrix of a stack, on one BLAS thread."""
    with BLAS_PIN or _UNPINNED:
        return np.matmul(Y, np.swapaxes(Y, -1, -2))


def stacked_cholesky(scatters: np.ndarray) -> np.ndarray:
    """Lower factors of a stack of scatters under the stacked pivot rule.

    A dataset fails, as its stacked scatter fails cholesky, when a Cholesky
    pivot is at or below PIVOT_RTOL times the scatter's largest diagonal
    entry. Singular.index is the first failing dataset's position.
    """
    try:
        with BLAS_PIN or _UNPINNED:
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
