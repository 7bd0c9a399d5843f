"""Alternative-hypothesis scenarios: data generation, size and power estimation.

Four deviations from the null are generated: one changed residual
correlation, one changed precision column, an AR(1) residual correlation
structure, and omitted factors. Nuisance parameters (residual scales,
factor loadings) are redrawn each replicate; replicate r of a study always
uses substream r of the master seed, so datasets are shared across grid
points (common random numbers) and runs are reproducible.

Every scenario runs on those datasets a chunk of replicates at a time; s1-s3
run the kernel once per chunk over every grid point. In s1-s3 a dataset is
X = B F + D C Z with D = diag(eta) and C the lower factor from
build_sigma_u. The residual maker of F removes B F, so the residual scatter
is E = D C (Z M_F Z^T) C^T D. If A is the trailing p-by-p block of the
Cholesky factor of the stacked scatter of [F; Z], then D C A is lower
triangular with a positive diagonal and factors E, and every statistic is
invariant to D. So a replicate never draws its scales and loadings: its
substream is advanced past them and one normal fill writes [F; Z], which is
factored once as A. The kernel then runs on C A for every grid point's C,
grid-major, and each test's rejections are counted per grid point; the
statistics agree with the per-dataset data path up to rounding (about
1e-12 relative). When one replicate's rows over the whole grid would pass
the memory budget, the grid runs in groups of points. Scenario s4 changes
the fitted model, so each grid point factors its own datasets [F; X], as
the data path does, and runs the kernel on them. Critical values come
resolved from report.resolve_criticals, calibrated or closed-form, as test
and batch-test take theirs, and each test counts a rejection when the
statistic its law reads exceeds its critical value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import DEFAULT_MASTER_SEED
from .errors import BadDimension, DomainError, MissingCalibration, NotPositiveDefinite
from .linalg import cholesky, invert_spd
from .randmat import SeedSpec, check_seed, substreams
from .report import REQUEST_CALIBRATED, REQUEST_CLOSED_FORM, TESTS, Criticals
from .teststats import CHUNK_BYTES, FactorModelSpec, FactorStats, kernel_doubles, residual_factors
# unused here; bound only because perfbench/spans.py traces these names in this module
from .teststats import compute_all, precision_stats_from_data

SCENARIO_ALIASES = {
    "s1": "s1_single_corr", "s2": "s2_column", "s3": "s3_ar1", "s4": "s4_extra_factors"
}
SCENARIOS = tuple(SCENARIO_ALIASES.values())

# the critical_source column of the power CSV, per accepted source
CSV_SOURCES = {REQUEST_CALIBRATED: "calibrated", REQUEST_CLOSED_FORM: "bonferroni_or_asymptotic"}

MAX_ABS_RHO = 0.5
MAX_K_TILDE = 10


def canonical_scenario(name: str) -> str:
    s = SCENARIO_ALIASES.get(name, name)
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
    master_seed: int = DEFAULT_MASTER_SEED
    alpha: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", canonical_scenario(self.scenario))
        self.model  # BadDimension unless p >= 2, K >= 0 and p + K < T
        if self.reps < 1:
            raise DomainError("reps must be positive")
        check_seed("master_seed", self.master_seed)
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def model(self) -> FactorModelSpec:
        """The fitted model's dimensions; the data are not demeaned."""
        return FactorModelSpec(p=self.p, K=self.K, T=self.T)


def _check_rho(rho: float) -> None:
    if not abs(rho) <= MAX_ABS_RHO:
        raise DomainError(f"|rho| must be <= {MAX_ABS_RHO}, got {rho}")


def _check_k_tilde(k_tilde: int) -> None:
    # zero omitted factors is the exact null case
    if int(k_tilde) != k_tilde or not 0 <= k_tilde <= MAX_K_TILDE:
        raise DomainError(f"k_tilde must be an integer in [0, {MAX_K_TILDE}], got {k_tilde}")


def check_grid(scenario: str, grid) -> tuple:
    """The grid as a tuple, if nonempty and of k_tilde values for s4, rho values otherwise."""
    grid = tuple(grid)
    if not grid:
        raise DomainError("grid must be nonempty")
    check = _check_k_tilde if canonical_scenario(scenario) == "s4_extra_factors" else _check_rho
    for value in grid:
        check(value)
    return grid


def build_sigma_u(scenario: str, p: int, rho: float) -> np.ndarray:
    """Lower Cholesky factor C of the residual correlation structure C C^T.

    Only the correlation part; the per-replicate scale draws are applied
    separately. s1 changes the (1,2) entry, s2 prescribes the first
    row/column of the inverse and inverts it without renormalizing the
    diagonal, s3 is the AR(1) profile rho^|i-j|. Factoring also rejects a
    structure that is not positive definite (none is, for |rho| <= 0.5).
    """
    scenario = canonical_scenario(scenario)
    _check_rho(rho)
    if scenario == "s4_extra_factors":
        raise DomainError("scenario s4 has no rho-driven correlation structure")
    if p < 2:
        raise BadDimension(f"need p >= 2, got {p}")
    if scenario == "s1_single_corr":
        sigma = np.eye(p)
        sigma[0, 1] = sigma[1, 0] = rho
    elif scenario == "s2_column":
        m = np.eye(p)
        if rho != 0.0:
            j = np.arange(1, p)  # 0-based column offsets for 1-based j = 2..p
            signs = np.sign(np.sign(rho) ** j)
            m[0, 1:] = signs * abs(rho) / np.sqrt(1.0 + 3.0 * (p - 1) * rho**2 / 2.0)
            m[1:, 0] = m[0, 1:]
        sigma = invert_spd(m)
    else:  # s3_ar1
        idx = np.arange(p)
        sigma = np.power(rho, np.abs(idx[:, None] - idx[None, :])) if rho != 0.0 else np.eye(p)
    return cholesky(sigma)


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
        corr_factor = build_sigma_u(cfg.scenario, p, rho_or_ktilde)
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


def run_power_study(cfg: ScenarioConfig, grid, criticals: Criticals) -> PowerCurve:
    """Rejection frequency of each test at every grid point.

    The grid holds rho values (s1-s3) or extra-factor counts (s4), checked
    by check_grid before any simulation. criticals come from
    report.resolve_criticals: calibrated, or closed-form (Bonferroni for
    the max statistics, chi-square for the likelihood ratio), resolved at
    cfg.model and cfg.alpha. Replicates run batched (module docstring).
    """
    model = cfg.model
    if criticals.source not in CSV_SOURCES:
        raise DomainError(
            f"a power study takes calibrated or closed-form criticals, got {criticals.source!r}"
        )
    if (criticals.model, criticals.alpha) != (model, cfg.alpha):
        raise MissingCalibration(
            f"criticals were resolved for {criticals.model} at alpha={criticals.alpha}; "
            f"the study has {model} at alpha={cfg.alpha}"
        )
    grid = check_grid(cfg.scenario, grid)
    s4 = cfg.scenario == "s4_extra_factors"
    corr_factors = None if s4 else np.array([build_sigma_u(cfg.scenario, cfg.p, r) for r in grid])
    counts = {test: np.zeros(len(grid)) for test in TESTS}
    # s4 runs the kernel grid point by grid point, each on its own datasets
    chunk, group = _chunk_size(cfg.p, cfg.K, cfg.T, 1 if s4 else len(grid))
    for start in range(0, cfg.reps, chunk):
        stop = min(start + chunk, cfg.reps)
        for first, factors in _grid_factors(cfg, grid, corr_factors, start, stop, group):
            # rows are grid-major: one row of stop - start replicates per grid point
            try:  # the kernel checks V on first read, so the clause covers the readers
                kernel = FactorStats(factors, model.t_eff, cfg.K)
                for test, law in criticals.laws.items():
                    rejected = law.read(kernel).reshape(-1, stop - start) > criticals.values[test]
                    counts[test][first : first + len(rejected)] += rejected.sum(axis=1)
            except NotPositiveDefinite as exc:
                point, rep = divmod(exc.index, stop - start)
                raise exc.at(start + rep, f"grid value {grid[first + point]:.10g}: ") from None
            del factors, kernel  # release each array once used, so chunks stay near the budget
    rates = {t: counts[t] / cfg.reps for t in TESTS}
    ses = {t: np.sqrt(rates[t] * (1.0 - rates[t]) / cfg.reps) for t in TESTS}
    return PowerCurve(
        scenario=cfg,
        grid=grid,
        critical_source=CSV_SOURCES[criticals.source],
        rates=rates,
        mc_std_errors=ses,
    )


def _chunk_size(p: int, K: int, T: int, points: int) -> tuple[int, int]:
    """(replicates per chunk, grid points per kernel run), keeping work arrays within CHUNK_BYTES.

    Per replicate: the (K+p)-by-T draw block, its stacked scatter and
    factor, and kernel_doubles(p) per grid point of a kernel run. When one
    replicate's rows over all points exceed the budget, the points run in
    groups.
    """
    budget = CHUNK_BYTES // 8
    draws = (K + p) * T + 2 * (K + p) ** 2
    per_point = kernel_doubles(p)
    group = max(1, min(points, (budget - draws) // per_point))
    return max(1, min(4096, budget // (draws + group * per_point))), group


def _draw_block(cfg: ScenarioConfig, start: int, stop: int) -> np.ndarray:
    """The [F; Z] blocks of replicates start..stop-1 of s1-s3, shape (stop - start, K + p, T).

    Row i holds the factors and residual normals that _draw_replicate draws
    from substream start + i. The scales and loadings drawn before them
    cancel by invariance, so their p + p K uniform doubles, one 64-bit
    PCG64 output each, are skipped by advancing the stream, and the normals
    fill the row in one call.
    """
    p, K = cfg.p, cfg.K
    block = np.empty((stop - start, K + p, cfg.T))
    for i, rng in enumerate(substreams(cfg.master_seed, start, stop)):
        rng.bit_generator.advance(p + p * K)
        rng.standard_normal(out=block[i])
    return block


def _grid_factors(cfg: ScenarioConfig, grid: tuple, corr_factors, start: int, stop: int,
                  group: int):
    """(first grid index, lower factors of E) for replicates start..stop-1, a group at a time.

    Each yield covers up to group grid points from the first, grid-major:
    stop - start rows per point. s4 factors the datasets of
    generate_dataset(cfg, k_tilde, r), one grid point per yield. s1-s3
    factor each replicate's [F; Z] of _draw_block once as A and give C A
    for every grid point's C. Singular as residual_factors.
    """
    p, K = cfg.p, cfg.K
    if cfg.scenario == "s4_extra_factors":
        block = np.empty((stop - start, K + p, cfg.T))
        for gi, k_tilde in enumerate(grid):
            for i, rep in enumerate(range(start, stop)):
                X, F = generate_dataset(cfg, k_tilde, rep)
                block[i, :K] = F
                block[i, K:] = X
            yield gi, residual_factors(block, K)
        return
    A = residual_factors(_draw_block(cfg, start, stop), K)
    for first in range(0, len(grid), group):
        C = corr_factors[first : first + group]
        yield first, np.matmul(C[:, None], A[None]).reshape(-1, p, p)
