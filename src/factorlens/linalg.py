"""Cholesky factors and inverses of symmetric positive-definite arrays.

Covariance and precision matrices in this package are small dense float64
arrays (design envelope p <= ~2000). Factorizations are backed by LAPACK
through numpy/scipy; positive definiteness is judged on the Cholesky pivots
against PIVOT_RTOL, one rule for single matrices and for stacks. Only the
lower triangle of an input is read.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefinite, Singular

# A Cholesky pivot at or below this fraction of the largest diagonal entry
# counts as "not positive definite".
PIVOT_RTOL = 1e-12


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == a.

    Raises NotPositiveDefinite when a pivot falls at or below
    PIVOT_RTOL times the largest diagonal entry.
    """
    max_diag = float(np.max(np.diagonal(a)))
    if max_diag <= 0.0:
        raise NotPositiveDefinite("largest diagonal entry is not positive")
    try:
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


def invert_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite array via its Cholesky factor."""
    inv, info = lapack.dpotri(cholesky(a), lower=1)
    if info != 0:
        raise NotPositiveDefinite(f"dpotri failed with info={info}")
    # dpotri fills only the lower triangle of the inverse.
    return np.tril(inv) + np.tril(inv, -1).T


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
