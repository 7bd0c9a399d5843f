"""Plain-numpy and scipy.stats recomputations the benchmark checks against.

Nothing here calls factorlens. The statistics are rebuilt from the residual
scatter E = Xc (I - Fc' (Fc Fc')^-1 Fc) Xc', whose inverse is the precision
block V11, and the null replicates from the substream layout the package
documents: chi-square diagonal with n, n-1, ..., then standard normals in
the strict lower triangle (row-major), then ``np.linalg.inv``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as st


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Substream ``index`` of ``master_seed``: SeedSequence spawn key (index,)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def statistics(v11: np.ndarray, w: np.ndarray, t_eff: int, K: int) -> dict:
    """All statistics from the precision block V11 and its inverse W."""
    p = v11.shape[0]
    dof = t_eff - K - p + 1
    d = np.diag(v11)
    rows, cols = np.tril_indices(p, -1)
    g2 = v11[rows, cols] ** 2 / (d[rows] * d[cols])
    tij = dof * g2 / (1.0 - g2)
    k = int(np.argmax(tij))
    tj = dof / (p - 1) * np.maximum(d * np.diag(w) - 1.0, 0.0)
    sign, ln_det = np.linalg.slogdet(w)
    ln_star = max(-(t_eff / 2.0) * (ln_det - np.log(np.diag(w)).sum()), 0.0)
    rho = 1.0 - (2.0 * p + 5.0) / (6.0 * (t_eff - K))
    n = t_eff - K
    clt_mean = (p - 1.0 - n + 1.5) * math.log1p(-p / n) - (n - 1.0) / n * p
    clt_var = -2.0 * (p / n + math.log1p(-p / n))
    return {
        "T_el": float(tij.max()),
        "T_el_argmax": (int(rows[k]) + 1, int(cols[k]) + 1),
        "T_pr": float(tj.max()),
        "ln_T_LR_star": float(ln_star),
        "T_LR": float(2.0 * rho * (n / t_eff) * ln_star),
        "T_LR_standardized": float(((2.0 / t_eff) * ln_star + clt_mean) / math.sqrt(clt_var)),
    }


def data_statistics(X: np.ndarray, F: np.ndarray, demeaned: bool) -> dict:
    """Statistics of responses X (p x T) given factors F (K x T)."""
    if demeaned:
        X = X - X.mean(axis=1, keepdims=True)
        F = F - F.mean(axis=1, keepdims=True)
    t_eff = X.shape[1] - 1 if demeaned else X.shape[1]
    xf = X @ F.T
    e = X @ X.T - xf @ np.linalg.solve(F @ F.T, xf.T)
    e = (e + e.T) / 2.0
    return statistics(np.linalg.inv(e), e, t_eff, F.shape[0])


def null_replicate(master_seed: int, r: int, p: int, T: int, K: int) -> dict:
    """Statistics of calibration replicate r (identity-parameter Wishart)."""
    n = T - K
    rng = substream(master_seed, r)
    a = np.zeros((p, p))
    a[np.diag_indices(p)] = np.sqrt(rng.chisquare(n - np.arange(p)))
    a[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    a_inv = np.linalg.inv(a)
    return statistics(a_inv.T @ a_inv, a @ a.T, T, K)


def bonferroni_el(alpha: float, p: int, dof: int) -> float:
    return float(st.f.isf(2.0 * alpha / (p * (p - 1)), 1, dof))


def bonferroni_pr(alpha: float, p: int, dof: int) -> float:
    return float(st.f.isf(alpha / p, p - 1, dof))


def chi2_critical(alpha: float, p: int) -> float:
    return float(st.chi2.isf(alpha, p * (p - 1) / 2.0))


def closed_form_pvalues(s: dict, p: int, dof: int) -> dict:
    """Bonferroni p-values of the max statistics, chi-square of the LR."""
    m = p * (p - 1) / 2.0
    return {
        "T_el": min(1.0, m * float(st.f.sf(s["T_el"], 1, dof))),
        "T_pr": min(1.0, p * float(st.f.sf(s["T_pr"], p - 1, dof))),
        "T_LR": float(st.chi2.sf(s["T_LR"], m)),
    }


def plausible_size(count: int, n: int, alpha: float) -> bool:
    """Whether count exceedances in n draws are consistent with a size of at most alpha.

    Fails only when the exact binomial chance of at least count exceedances
    at rate alpha is below 1e-6, so a correct program fails about once in a
    million checks. A band of alpha + 3 standard errors fails far more often
    where the Bonferroni bound is nearly exact, as for T_el here.
    """
    return float(st.binom.sf(count - 1, n, alpha)) >= 1e-6


def type7_quantile(sorted_values, q: float) -> float:
    """Hyndman-Fan type-7 quantile of an ascending sequence."""
    h = (len(sorted_values) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol
