"""Alternative-hypothesis scenarios: data generation, size and power estimation.

Four deviations from the null are generated: one changed residual
correlation, one changed precision column, an AR(1) residual correlation
structure, and omitted factors. Nuisance parameters (residual scales,
factor loadings) are redrawn each replicate; replicate r of a study always
uses substream r of the master seed, so datasets are shared across grid
points (common random numbers) and runs are reproducible.

Every scenario runs as batched kernel runs on those datasets, a chunk of
replicates at a time. In s1-s3 a dataset is X = B F + D C Z with
D = diag(eta) and C the Cholesky factor of build_sigma_u. The residual maker
of F removes B F, so the residual scatter is E = D C (Z M_F Z^T) C^T D. If A
is the trailing p-by-p block of the Cholesky factor of the stacked scatter of
[F; Z], then D C A is lower triangular with a positive diagonal and factors
E, and every statistic is invariant to D. So each replicate's [F; Z] is
factored once, and each grid point only multiplies its C onto the factors;
the statistics agree with the per-dataset data path up to rounding (about
1e-12 relative). Scenario s4 changes the fitted model, so each grid point
factors its own datasets [F; X], as the data path does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import CriticalValueTable
from .errors import BadDimension, DomainError
from .linalg import SymMatrix, cholesky, invert_spd
from .randmat import SeedSpec
from .report import TESTS, calibrated_criticals, closed_form_criticals, kernel_observed
from .teststats import (
    FactorModelSpec,
    _check_diagonal_product,
    residual_factors,
    stats_from_factors,
)
# unused here; bound only because perfbench/spans.py traces these names in this module
from .teststats import compute_all, precision_stats_from_data

SCENARIOS = ("s1_single_corr", "s2_column", "s3_ar1", "s4_extra_factors")
_ALIASES = {"s1": "s1_single_corr", "s2": "s2_column", "s3": "s3_ar1", "s4": "s4_extra_factors"}

CALIBRATED = "calibrated"
CLOSED_FORM = "bonferroni_or_asymptotic"

MAX_ABS_RHO = 0.5
MAX_K_TILDE = 10


def canonical_scenario(name: str) -> str:
    s = _ALIASES.get(name, name)
    if s not in SCENARIOS:
        raise DomainError(f"unknown scenario {name!r}")
    return s


@dataclass(frozen=True)
class ScenarioConfig:
    """One power-study setting; grids are supplied to run_power_study."""

    scenario: str
    p: int
    K: int
    T: int
    reps: int = 1000
    master_seed: int = 42
    alpha: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", canonical_scenario(self.scenario))
        if self.p + self.K >= self.T:
            raise BadDimension(f"need p + K < T, got p={self.p}, K={self.K}, T={self.T}")
        if self.reps < 1:
            raise DomainError("reps must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")


def _check_rho(rho: float) -> None:
    if not abs(rho) <= MAX_ABS_RHO:
        raise DomainError(f"|rho| must be <= {MAX_ABS_RHO}, got {rho}")


def _check_k_tilde(k_tilde: int) -> None:
    # zero omitted factors is the exact null case
    if int(k_tilde) != k_tilde or not 0 <= k_tilde <= MAX_K_TILDE:
        raise DomainError(f"k_tilde must be an integer in [0, {MAX_K_TILDE}], got {k_tilde}")


def build_sigma_u(scenario: str, p: int, rho: float) -> SymMatrix:
    """Correlation-structure factor of the residual covariance.

    Returns only the correlation part; the per-replicate scale draws are
    applied separately. s1 changes the (1,2) entry, s2 prescribes the first
    row/column of the inverse and inverts it without renormalizing the
    diagonal, s3 is the AR(1) profile rho^|i-j|.
    """
    scenario = canonical_scenario(scenario)
    _check_rho(rho)
    if scenario == "s4_extra_factors":
        raise DomainError("scenario s4 has no rho-driven correlation structure")
    if p < 2:
        raise BadDimension(f"need p >= 2, got {p}")
    if scenario == "s1_single_corr":
        delta = np.eye(p)
        delta[0, 1] = delta[1, 0] = rho
        out = SymMatrix(delta)
    elif scenario == "s2_column":
        m = np.eye(p)
        if rho != 0.0:
            j = np.arange(1, p)  # 0-based column offsets for 1-based j = 2..p
            signs = np.sign(np.sign(rho) ** j)
            m[0, 1:] = signs * abs(rho) / np.sqrt(1.0 + 3.0 * (p - 1) * rho**2 / 2.0)
            m[1:, 0] = m[0, 1:]
        out = invert_spd(SymMatrix(m))
    else:  # s3_ar1
        idx = np.arange(p)
        out = SymMatrix(np.power(rho, np.abs(idx[:, None] - idx[None, :])) if rho != 0.0 else np.eye(p))
    cholesky(out)  # guard: reject non-PD structure (cannot occur for |rho| <= 0.5)
    return out


def _draw_replicate(rng: np.random.Generator, p: int, k_total: int, T: int):
    """One replicate's draws in substream order: scales, loadings, factors, residual normals."""
    eta = rng.uniform(1.0, 2.0, p)
    loadings = rng.uniform(-1.0, 1.0, (p, k_total))
    factors = rng.standard_normal((k_total, T))
    shocks = rng.standard_normal((p, T))
    return eta, loadings, factors, shocks


def generate_dataset(
    cfg: ScenarioConfig, rho_or_ktilde, rep_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """One dataset under the scenario: responses (p x T) and the fitted factors (K x T).

    Scenario s4 simulates with K + k_tilde factors and returns only the
    first K rows as the fitted factor set. Residual scales are uniform on
    [1, 2] and loadings uniform on [-1, 1], redrawn per replicate with the
    draw order: scales, loadings, factors, residual normals.
    """
    rng = SeedSpec(cfg.master_seed, rep_index).generator()
    p, K, T = cfg.p, cfg.K, cfg.T
    if cfg.scenario == "s4_extra_factors":
        _check_k_tilde(rho_or_ktilde)
        k_total = K + int(rho_or_ktilde)
        corr_factor = None
    else:
        _check_rho(rho_or_ktilde)
        k_total = K
        corr_factor = cholesky(build_sigma_u(cfg.scenario, p, rho_or_ktilde)).data
    eta, loadings, factors, shocks = _draw_replicate(rng, p, k_total, T)
    if corr_factor is None:
        residuals = eta[:, None] * shocks
    else:
        residuals = (eta[:, None] * corr_factor) @ shocks
    X = loadings @ factors + residuals
    return X, factors[:K]


@dataclass(frozen=True)
class PowerCurve:
    """Rejection-rate estimates over a grid for each test."""

    scenario: ScenarioConfig
    grid: tuple
    critical_source: str
    rates: dict[str, np.ndarray]
    mc_std_errors: dict[str, np.ndarray]

    def to_csv(self, path) -> None:
        lines = ["scenario,grid_value,test,critical_source,power,mc_se"]
        for test in TESTS:
            for g, r, se in zip(self.grid, self.rates[test], self.mc_std_errors[test]):
                lines.append(
                    f"{self.scenario.scenario},{g:.10g},{test},"
                    f"{self.critical_source},{r:.10g},{se:.10g}"
                )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def run_power_study(
    cfg: ScenarioConfig,
    grid,
    critical_source: str = CALIBRATED,
    tables: dict[str, CriticalValueTable] | None = None,
) -> PowerCurve:
    """Rejection frequency of each test at every grid point.

    The grid holds rho values (s1-s3) or extra-factor counts (s4); every
    value is checked before any simulation. With
    critical_source='calibrated', matching tables must be supplied;
    otherwise Bonferroni (max statistics) and chi-square (likelihood ratio)
    critical values are used. Replicates run batched (module docstring).
    """
    model = FactorModelSpec(p=cfg.p, K=cfg.K, T=cfg.T)
    if critical_source == CALIBRATED:
        criticals = calibrated_criticals(tables, model, cfg.alpha)
    elif critical_source == CLOSED_FORM:
        criticals = closed_form_criticals(model, cfg.alpha)
    else:
        raise DomainError(f"unknown critical source {critical_source!r}")
    grid = tuple(grid)
    if not grid:
        raise DomainError("grid must be nonempty")
    if cfg.scenario == "s4_extra_factors":
        for k_tilde in grid:
            _check_k_tilde(k_tilde)
        corr_factors = None
    else:
        corr_factors = [cholesky(build_sigma_u(cfg.scenario, cfg.p, rho)).data for rho in grid]
    counts = {test: np.zeros(len(grid)) for test in TESTS}
    chunk = _chunk_size(cfg.p, cfg.K, cfg.T)
    for start in range(0, cfg.reps, chunk):
        stop = min(start + chunk, cfg.reps)
        for gi, factors in _grid_factors(cfg, grid, corr_factors, start, stop):
            kernel = stats_from_factors(factors, model.t_eff, cfg.K)
            _check_diagonal_product(kernel.diag_v, kernel.diag_e)
            for test, observed in kernel_observed(kernel).items():
                counts[test][gi] += np.count_nonzero(observed > criticals[test])
            del factors, kernel  # release each array once used, so chunks stay near the budget
    rates = {t: counts[t] / cfg.reps for t in TESTS}
    ses = {t: np.sqrt(rates[t] * (1.0 - rates[t]) / cfg.reps) for t in TESTS}
    return PowerCurve(
        scenario=cfg,
        grid=grid,
        critical_source=critical_source,
        rates=rates,
        mc_std_errors=ses,
    )


def _chunk_size(p: int, K: int, T: int) -> int:
    # Keep a chunk's work arrays near 16 MiB. Per replicate: the (K+p)-by-T
    # draw block, the stacked scatter and its factor, and for one grid point
    # the kernel's three p-by-p arrays and up to four arrays of p(p-1)/2 pairs.
    per_replicate = 8 * ((K + p) * T + 2 * (K + p) ** 2 + 3 * p * p + 2 * p * (p - 1))
    return max(1, min(4096, 16 * 2**20 // per_replicate))


def _grid_factors(cfg: ScenarioConfig, grid: tuple, corr_factors, start: int, stop: int):
    """(grid index, lower factors of E) for replicates start..stop-1, grid point by grid point.

    s4 factors the datasets of generate_dataset(cfg, k_tilde, r). s1-s3 make
    the same draws as generate_dataset(cfg, rho, r), factor each [F; Z] once
    as A and give C A for each grid point's C. Singular as residual_factors.
    """
    p, K = cfg.p, cfg.K
    block = np.empty((stop - start, K + p, cfg.T))
    if cfg.scenario == "s4_extra_factors":
        for gi, k_tilde in enumerate(grid):
            for i, rep in enumerate(range(start, stop)):
                X, F = generate_dataset(cfg, k_tilde, rep)
                block[i, :K] = F
                block[i, K:] = X
            yield gi, residual_factors(block, K)
        return
    for i, rep in enumerate(range(start, stop)):
        rng = SeedSpec(cfg.master_seed, rep).generator()
        _, _, factors, shocks = _draw_replicate(rng, p, K, cfg.T)
        block[i, :K] = factors
        block[i, K:] = shocks
    A = residual_factors(block, K)
    del block
    for gi, corr_factor in enumerate(corr_factors):
        yield gi, corr_factor @ A
