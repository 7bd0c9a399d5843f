"""Test execution against a data panel and structured reporting.

run_tests computes all statistics of a panel and compares each global test
against critical values from one of three sources: Monte-Carlo calibration
(exact at any dimension), closed forms (Bonferroni for the max statistics,
chi-square for the likelihood ratio), or the high-dimensional limit laws.
resolve_criticals is the one place a source is chosen, for run_tests,
batch_subset_test and the power study alike. It writes each law once, as a
Law per test: the statistic read from a kernel, a Bonferroni count, the
upper tail of one coordinate and its upper point. A test's critical value
and every p-value follow from that one law; Law says when they match exactly.
P-values from the closed-form and limit laws are survival functions, not
1 - cdf, so tiny ones keep their value instead of rounding to 0.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .calibrate import (
    READERS,
    CriticalValueTable,
    calibrate_many,
    empirical_pvalue,
    DEFAULT_MASTER_SEED,
    DEFAULT_REPS,
)
from .errors import DomainError, MissingCalibration, NotPositiveDefinite, warn_at_caller
from .linalg import scatter, stacked_cholesky
from .panel import ReturnsPanel
from .randmat import check_seed, substreams
from .special import chi2_quantile, chi2_sf, f_quantile, f_sf, normal_cdf, normal_quantile
# unused here; bound only because perfbench/spans.py traces these names in this module
from .special import chi2_cdf, f_cdf
from .teststats import (
    FactorModelSpec,
    FactorStats,
    TestStatistics,
    compute_all,
    default_chunk,
    precision_stats_from_data,
    stacked_data,
)

TESTS = ("T_el", "T_pr", "T_LR")

SOURCE_CALIBRATED = "calibrated"
SOURCE_BONFERRONI = "bonferroni"
SOURCE_CHI2 = "chi2_asymptotic"
SOURCE_HIGHDIM = "highdim_asymptotic"

# User-facing critical-source requests.
REQUEST_AUTO = "auto"
REQUEST_CALIBRATED = "calibrated"
REQUEST_CLOSED_FORM = "closed-form"
REQUEST_HIGHDIM = "highdim"
REQUESTS = (REQUEST_AUTO, REQUEST_CALIBRATED, REQUEST_CLOSED_FORM, REQUEST_HIGHDIM)

# Calibration is the default up to this multiple of the stacked dimension.
_AUTO_CALIBRATION_T_FACTOR = 200

_SCHEMA = "factorlens/1"


@dataclass(frozen=True)
class TestDecision:
    """One test's comparison: statistic, critical value, p-value, decision."""

    statistic_value: float
    critical_value: float
    source: str
    p_value: float
    reject: bool


@dataclass(frozen=True)
class TestReport:
    """Full outcome of running the three global tests on one dataset."""

    model: FactorModelSpec
    statistics: TestStatistics
    alpha: float
    tests: dict[str, TestDecision]
    calibration: dict | None = None
    regime: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": _SCHEMA,
            "model": {
                "p": self.model.p,
                "K": self.model.K,
                "T": self.model.T,
                "demeaned": self.model.demeaned,
                "dof_n": self.model.dof_n,
            },
            "alpha": self.alpha,
            "statistics": {
                "t_el": self.statistics.t_el,
                "t_el_argmax": list(self.statistics.t_el_argmax),
                "t_pr": self.statistics.t_pr,
                "t_pr_argmax": self.statistics.t_pr_argmax,
                "ln_t_lr_star": self.statistics.ln_t_lr_star,
                "t_lr": self.statistics.t_lr,
            },
            "tests": {
                name: {
                    "statistic": d.statistic_value,
                    "critical_value": d.critical_value,
                    "source": d.source,
                    "p_value": d.p_value,
                    "reject": d.reject,
                }
                for name, d in self.tests.items()
            },
            "calibration": self.calibration,
            "regime": self.regime,
        }


@dataclass(frozen=True)
class Law:
    """One test's reference law under one source.

    read gives the statistic the test compares for each dataset of a
    kernel: raw, or standardized under highdim. tail is the upper tail of
    one coordinate of the law and upper its upper point, tail(upper(a)) = a
    for the closed-form and highdim laws. A calibrated law's upper is its
    table's stored quantile and its tail the share of its null sample at or
    above a statistic, which agree only to within about 1 / reps.
    Over count coordinates (a Bonferroni count, 1 for a single one), the
    critical value at alpha is upper(alpha / count) and the p-value of a
    statistic min(1, count * tail(statistic)).
    """

    source: str
    read: Callable[[FactorStats], np.ndarray]
    count: float
    tail: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[float], float]

    def critical(self, alpha: float) -> float:
        return self.upper(alpha / self.count)

    def p_value(self, statistic: np.ndarray) -> np.ndarray:
        return np.minimum(1.0, self.count * self.tail(statistic))


@dataclass(frozen=True)
class Criticals:
    """The law and critical value of each of the three tests from one source, at one alpha.

    source is a request other than auto. tables are the calibration tables
    of a calibrated source and regime the limit regime of a highdim one;
    each is None for the other sources.
    """

    source: str
    model: FactorModelSpec
    alpha: float
    laws: dict[str, Law]
    values: dict[str, float]
    tables: dict[str, CriticalValueTable] | None = None
    regime: asymptotics.Regime | None = None


def _check_table(table: CriticalValueTable, model: FactorModelSpec, name: str) -> None:
    if table.model != model:
        raise MissingCalibration(
            f"table for {name} was calibrated at p={table.p}, T={table.T}, "
            f"K={table.K}, demeaned={table.demeaned}; data has p={model.p}, "
            f"T={model.T}, K={model.K}, demeaned={model.demeaned}"
        )


def _f_law(source: str, read, count: float, d1: float, d2: float) -> Law:
    return Law(
        source, read, count, lambda t: f_sf(t, d1, d2), lambda a: f_quantile(1.0 - a, d1, d2)
    )


def _chi2_law(source: str, read, count: float, k: float) -> Law:
    return Law(source, read, count, lambda t: chi2_sf(t, k), lambda a: chi2_quantile(1.0 - a, k))


def resolve_criticals(
    request: str,
    model: FactorModelSpec,
    alpha: float,
    *,
    tables: dict[str, CriticalValueTable] | None = None,
    calibration_reps: int = DEFAULT_REPS,
    calibration_seed: int = DEFAULT_MASTER_SEED,
) -> Criticals:
    """The source a request names, with each test's law and critical value at alpha.

    auto uses supplied tables, else calibration up to T = 200 (p + K) and
    the closed-form laws above it, with a warning: their exact marginals
    hold their size there, where highdim's T_pr rejects a true null about
    three times as often as alpha. A calibrated source without tables
    calibrates the three tests at the model's dimensions, null samples
    kept. Supplied tables must match the model and come from one
    calibration, one master_seed and reps: replicate r always uses
    substream r, so such tables hold what one calibrate_many run of the
    three tests gives, and a report names that one run.
    The laws: a calibrated table's empirical tail; the exact F(1, dof_n)
    and F(p - 1, dof_n) marginals with Bonferroni counts and chi-square
    with p(p - 1)/2 degrees of freedom (closed-form); the chi-square(1) or
    F(1, d + 1), normal or (d + 1)/chi-square(d + 1), and normal limits
    (highdim, concentration or boundary regime).
    """
    if request not in REQUESTS:
        raise DomainError(f"unknown critical source {request!r}; pick one of {REQUESTS}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if request == REQUEST_AUTO:
        if tables is not None or model.T <= _AUTO_CALIBRATION_T_FACTOR * (model.p + model.K):
            request = REQUEST_CALIBRATED
        else:
            warn_at_caller(
                "sample too large for default calibration budget; falling back to "
                "closed-form critical values (exact marginals, no simulation)"
            )
            request = REQUEST_CLOSED_FORM
    p, T, K, demeaned, dof_n = model.p, model.T, model.K, model.demeaned, model.dof_n
    pairs = p * (p - 1) / 2.0
    regime = None
    if request == REQUEST_CALIBRATED:
        if tables is None:
            tables = calibrate_many(
                TESTS, p, T, K, demeaned=demeaned, alphas=(alpha,),
                reps=calibration_reps, master_seed=calibration_seed, keep_null_sample=True,
            )
        laws = {}
        for name in TESTS:
            table = tables.get(name)
            if table is None:
                raise MissingCalibration(f"no calibration table supplied for {name}")
            _check_table(table, model, name)
            tail = lambda t, table=table: empirical_pvalue(t, table)
            laws[name] = Law(SOURCE_CALIBRATED, READERS[name], 1, tail, table.critical_value)
        if len({(tables[name].master_seed, tables[name].reps) for name in TESTS}) > 1:
            runs = ", ".join(
                f"{name} at seed {tables[name].master_seed} with {tables[name].reps} reps"
                for name in TESTS
            )
            raise MissingCalibration(f"the tables come from more than one calibration: {runs}")
    elif request == REQUEST_CLOSED_FORM:
        laws = {
            "T_el": _f_law(SOURCE_BONFERRONI, READERS["T_el"], pairs, 1, dof_n),
            "T_pr": _f_law(SOURCE_BONFERRONI, READERS["T_pr"], p, p - 1, dof_n),
            "T_LR": _chi2_law(SOURCE_CHI2, READERS["T_LR"], 1, pairs),
        }
    else:
        regime = asymptotics.select_regime(p, model.t_eff, K)
        normal = (lambda z: normal_cdf(-z), lambda a: normal_quantile(1.0 - a))
        if regime.kind == asymptotics.CONCENTRATION:
            el = _chi2_law(SOURCE_HIGHDIM, READERS["T_el"], pairs, 1)
            z_pr = lambda k: asymptotics.tj_standardize(READERS["T_pr"](k), k.p, k.t_eff, k.K)
            pr = Law(SOURCE_HIGHDIM, z_pr, p, *normal)
        else:
            d1 = regime.d + 1.0
            el = _f_law(SOURCE_HIGHDIM, READERS["T_el"], pairs, 1, d1)
            pr = Law(
                SOURCE_HIGHDIM, READERS["T_pr"], p,
                lambda t: asymptotics.tj_boundary_pvalue(t, regime.d),
                lambda a: d1 / chi2_quantile(a, d1),
            )
        lr = Law(SOURCE_HIGHDIM, READERS["T_LR_standardized"], 1, *normal)
        laws = {"T_el": el, "T_pr": pr, "T_LR": lr}
    values = {name: law.critical(alpha) for name, law in laws.items()}
    return Criticals(request, model, alpha, laws, values, tables, regime)


def run_tests(
    panel: ReturnsPanel,
    *,
    alpha: float = 0.05,
    critical_source: str = REQUEST_AUTO,
    calibration_reps: int = DEFAULT_REPS,
    calibration_seed: int = DEFAULT_MASTER_SEED,
    tables: dict[str, CriticalValueTable] | None = None,
) -> TestReport:
    """Run all three global tests on an ingested panel.

    With calibrated criticals the p-values are empirical right-tail
    proportions of the retained null samples; otherwise they come from the
    closed-form or limiting distributions (Bonferroni-corrected for the max
    statistics). Each test's critical value and p-value come from its one
    law in resolve_criticals, and decisions go through _decide on the
    kernel, as batch_subset_test's do.
    """
    model = FactorModelSpec(p=panel.p, K=panel.K, T=panel.T, demeaned=panel.demean)
    X, F = panel.data_matrices()
    kernel = precision_stats_from_data(X, F if panel.K else None, demeaned=panel.demean)
    stats = compute_all(kernel)
    criticals = resolve_criticals(
        critical_source, model, alpha, tables=tables,
        calibration_reps=calibration_reps, calibration_seed=calibration_seed,
    )
    decisions = {}
    for name, (statistic, p_value) in _decide(criticals, kernel).items():
        critical = criticals.values[name]
        decisions[name] = TestDecision(
            float(statistic[0]), critical, criticals.laws[name].source, float(p_value[0]),
            bool(statistic[0] > critical),
        )

    calibration_meta = None
    regime_meta = None
    if criticals.source == REQUEST_CALIBRATED:
        any_table = criticals.tables[TESTS[0]]
        calibration_meta = {"master_seed": any_table.master_seed, "reps": any_table.reps}
    elif criticals.source == REQUEST_HIGHDIM:
        regime = criticals.regime
        regime_meta = {
            "kind": regime.kind,
            "c": regime.c,
            "d": regime.d,
            "tlr_sigma_convention": asymptotics.SIGMA_AS_VARIANCE,
        }
    return TestReport(
        model=model,
        statistics=stats,
        alpha=alpha,
        tests=decisions,
        calibration=calibration_meta,
        regime=regime_meta,
    )


def _decide(criticals: Criticals, kernel: FactorStats) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each test's statistics and p-values for the m datasets of one kernel, one call per test."""
    decided = {}
    for name, law in criticals.laws.items():
        statistic = law.read(kernel)
        decided[name] = statistic, law.p_value(statistic)
    return decided


@dataclass(frozen=True)
class BatchSummary:
    """P-value quantiles over randomly chosen asset subsets."""

    subset_size: int
    num_subsets: int
    quantiles: dict[str, dict[str, float]]  # test -> {min, q1, median, q3, max}

    def to_csv(self, path) -> None:
        lines = ["test,min,q1,median,q3,max"]
        for test in TESTS:
            q = self.quantiles[test]
            lines.append(
                f"{test},{q['min']:.10g},{q['q1']:.10g},{q['median']:.10g},"
                f"{q['q3']:.10g},{q['max']:.10g}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def batch_subset_test(
    panel: ReturnsPanel,
    subset_size: int,
    num_subsets: int,
    *,
    alpha: float = 0.05,
    critical_source: str = REQUEST_AUTO,
    calibration_reps: int = DEFAULT_REPS,
    calibration_seed: int = DEFAULT_MASTER_SEED,
    subset_seed: int = DEFAULT_MASTER_SEED,
) -> BatchSummary:
    """Repeatedly test random asset subsets and summarize the p-values.

    Subsets are drawn uniformly without replacement from the asset columns
    (factors always included); subset i uses substream (subset_seed, i).
    Criticals are resolved once for the subset dimensions. The stacked
    scatter of [F; X] is formed once; per chunk, each subset's stacked
    scatter is gathered from it, factor rows first, and factored as
    residual_factors factors a panel's. The statistics, p-values and
    Singular failures are those of run_tests on each subset panel, up to
    rounding; a NotPositiveDefinite failure, Singular included, names the
    first failing subset's index and assets.
    """
    if not 2 <= subset_size <= panel.p:
        raise DomainError(
            f"subset_size must lie in [2, {panel.p}], got {subset_size}"
        )
    if num_subsets < 1:
        raise DomainError("num_subsets must be positive")
    check_seed("subset_seed", subset_seed)
    K = panel.K
    sub_model = FactorModelSpec(p=subset_size, K=K, T=panel.T, demeaned=panel.demean)
    criticals = resolve_criticals(
        critical_source, sub_model, alpha,
        calibration_reps=calibration_reps, calibration_seed=calibration_seed,
    )
    X, F = panel.data_matrices()
    Y = stacked_data(X, F, panel.demean)
    panel_scatter = scatter(Y)
    pvals = {test: np.empty(num_subsets) for test in TESTS}
    chunk = default_chunk(K + subset_size)
    for start in range(0, num_subsets, chunk):
        stop = min(start + chunk, num_subsets)
        subsets = np.array([
            np.sort(rng.choice(panel.p, size=subset_size, replace=False))
            for rng in substreams(subset_seed, start, stop)
        ])
        rows = np.hstack([np.broadcast_to(np.arange(K), (stop - start, K)), K + subsets])
        try:  # the kernel checks V on first read, so the clause covers _decide
            factors = stacked_cholesky(panel_scatter[rows[:, :, None], rows[:, None, :]])[:, K:, K:]
            kernel = FactorStats(factors, sub_model.t_eff, K)
            decided = _decide(criticals, kernel)
        except NotPositiveDefinite as exc:
            i = start + exc.index
            names = ", ".join(panel.asset_names[j] for j in subsets[exc.index])
            raise exc.at(i, f"subset {i} (assets {names}): ") from None
        for test in TESTS:
            pvals[test][start:stop] = decided[test][1]
        del factors, kernel, decided  # release this chunk's arrays before the next
    levels = {"min": 0.0, "q1": 0.25, "median": 0.5, "q3": 0.75, "max": 1.0}
    quantiles = {
        test: dict(zip(levels, map(float, np.quantile(pvals[test], list(levels.values())))))
        for test in TESTS
    }
    return BatchSummary(subset_size=subset_size, num_subsets=num_subsets, quantiles=quantiles)
