"""Test execution against a data panel and structured reporting.

run_tests computes all statistics of a panel and compares each global test
against critical values from one of three sources: Monte-Carlo calibration
(exact at any dimension), closed forms (Bonferroni for the max statistics,
chi-square for the likelihood ratio), or the high-dimensional limit laws.
P-values from the last two are survival functions, not 1 - cdf, so tiny
ones keep their value instead of rounding to 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .calibrate import (
    CriticalValueTable,
    _default_chunk,
    bonferroni_critical_el,
    bonferroni_critical_pr,
    calibrate_many,
    empirical_pvalue,
    lr_chi2_critical,
    DEFAULT_MASTER_SEED,
    DEFAULT_REPS,
)
from .errors import DomainError, MissingCalibration
from .panel import ReturnsPanel
from .randmat import SeedSpec
from .special import chi2_quantile, chi2_sf, f_quantile, f_sf, normal_cdf, normal_quantile
# unused here; bound only because perfbench/spans.py traces these names in this module
from .special import chi2_cdf, f_cdf
from .teststats import (
    FactorModelSpec,
    FactorStats,
    ResidualScatter,
    TestStatistics,
    compute_all,
    precision_stats_from_data,
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


def _resolve_request(request: str, model: FactorModelSpec) -> str:
    if request not in REQUESTS:
        raise DomainError(f"unknown critical source {request!r}; pick one of {REQUESTS}")
    if request != REQUEST_AUTO:
        return request
    if model.T <= _AUTO_CALIBRATION_T_FACTOR * (model.p + model.K):
        return REQUEST_CALIBRATED
    warnings.warn(
        "sample too large for default calibration budget; falling back to "
        "high-dimensional asymptotic critical values",
        stacklevel=3,
    )
    return REQUEST_HIGHDIM


def _check_table(table: CriticalValueTable, model: FactorModelSpec, name: str) -> None:
    if (table.p, table.T, table.K, table.demeaned) != (
        model.p,
        model.T,
        model.K,
        model.demeaned,
    ):
        raise MissingCalibration(
            f"table for {name} was calibrated at p={table.p}, T={table.T}, "
            f"K={table.K}, demeaned={table.demeaned}; data has p={model.p}, "
            f"T={model.T}, K={model.K}, demeaned={model.demeaned}"
        )


def observed_statistics(stats: TestStatistics) -> dict[str, float]:
    """The statistic each global test compares with its critical value."""
    return {"T_el": stats.t_el, "T_pr": stats.t_pr, "T_LR": stats.t_lr}


def kernel_observed(kernel: FactorStats) -> dict[str, np.ndarray]:
    """observed_statistics of every dataset of a kernel run, one array per test."""
    return {"T_el": kernel.t_el, "T_pr": kernel.t_j.max(axis=1), "T_LR": kernel.t_lr}


def calibrated_criticals(
    tables: dict[str, CriticalValueTable] | None, model: FactorModelSpec, alpha: float
) -> dict[str, float]:
    """Critical value of each test from its calibration table, checked against model."""
    if tables is None:
        raise MissingCalibration(
            "calibrated critical values need a table per test; calibrate first"
        )
    criticals = {}
    for name in TESTS:
        table = tables.get(name)
        if table is None:
            raise MissingCalibration(f"no calibration table supplied for {name}")
        _check_table(table, model, name)
        criticals[name] = table.critical_value(alpha)
    return criticals


def calibrate_tests(
    model: FactorModelSpec, alpha: float, reps: int, master_seed: int
) -> dict[str, CriticalValueTable]:
    """Calibration tables of the three tests at the model's dimensions, samples kept."""
    return calibrate_many(
        TESTS,
        model.p,
        model.T,
        model.K,
        demeaned=model.demeaned,
        alphas=(alpha,),
        reps=reps,
        master_seed=master_seed,
        keep_null_sample=True,
    )


def closed_form_criticals(model: FactorModelSpec, alpha: float) -> dict[str, float]:
    """Bonferroni critical values for the max statistics, chi-square for T_LR."""
    return {
        "T_el": bonferroni_critical_el(alpha, model.p, model.T, model.K, model.demeaned),
        "T_pr": bonferroni_critical_pr(alpha, model.p, model.T, model.K, model.demeaned),
        "T_LR": lr_chi2_critical(alpha, model.p),
    }


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
    statistics).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    model = FactorModelSpec(p=panel.p, K=panel.K, T=panel.T, demeaned=panel.demean)
    X, F = panel.data_matrices()
    ps = precision_stats_from_data(X, F if panel.K else None, demeaned=panel.demean)
    stats = compute_all(ps)
    source = _resolve_request(critical_source, model)

    regime = None
    if source == REQUEST_CALIBRATED and tables is None:
        tables = calibrate_tests(model, alpha, calibration_reps, calibration_seed)
    elif source == REQUEST_HIGHDIM:
        regime = asymptotics.select_regime(model.p, model.T, model.K, model.demeaned)
    observed = {name: np.array([value]) for name, value in observed_statistics(stats).items()}
    decided = _decide(
        source, observed, np.array([stats.ln_t_lr_star]), model, alpha, tables, regime
    )
    decisions = {
        name: TestDecision(
            float(d.statistic[0]), d.critical_value, d.source, float(d.p_value[0]),
            bool(d.statistic[0] > d.critical_value),
        )
        for name, d in decided.items()
    }

    calibration_meta = None
    regime_meta = None
    if source == REQUEST_CALIBRATED:
        any_table = tables[TESTS[0]]
        calibration_meta = {"master_seed": any_table.master_seed, "reps": any_table.reps}
    elif source == REQUEST_HIGHDIM:
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


@dataclass(frozen=True)
class _Decisions:
    """One test over m datasets: its statistics, critical value and p-values."""

    statistic: np.ndarray
    critical_value: float
    source: str
    p_value: np.ndarray


def _decide(
    source, observed, ln_t_lr_star, model, alpha, tables=None, regime=None
) -> dict[str, _Decisions]:
    """Each test's decisions for m datasets of one model, p-values in one call per test.

    observed maps each test to its m statistics; ln_t_lr_star holds the m
    values the high-dimensional T_LR standardizes.
    """
    if source == REQUEST_CALIBRATED:
        criticals = calibrated_criticals(tables, model, alpha)
        return {
            name: _Decisions(
                observed[name], criticals[name], SOURCE_CALIBRATED,
                empirical_pvalue(observed[name], tables[name]),
            )
            for name in TESTS
        }
    pairs = model.p * (model.p - 1) / 2.0
    t_el, t_pr = observed["T_el"], observed["T_pr"]
    if source == REQUEST_CLOSED_FORM:
        criticals, dof_n = closed_form_criticals(model, alpha), model.dof_n
        rows = {
            "T_el": (t_el, SOURCE_BONFERRONI, pairs * f_sf(t_el, 1, dof_n)),
            "T_pr": (t_pr, SOURCE_BONFERRONI, model.p * f_sf(t_pr, model.p - 1, dof_n)),
            "T_LR": (observed["T_LR"], SOURCE_CHI2, chi2_sf(observed["T_LR"], pairs)),
        }
        return {
            name: _Decisions(stat, criticals[name], src, np.minimum(1.0, p_value))
            for name, (stat, src, p_value) in rows.items()
        }
    # highdim: the regime's limit laws; T_pr (concentration) and T_LR standardized
    if regime.kind == asymptotics.CONCENTRATION:
        el_critical = chi2_quantile(1.0 - alpha / pairs, 1)
        t_pr = asymptotics.tj_standardize(t_pr, model.p, model.T, model.K, demeaned=model.demeaned)
        pr_critical, pr_tail = normal_quantile(1.0 - alpha / model.p), normal_cdf(-t_pr)
    else:
        el_critical = f_quantile(1.0 - alpha / pairs, 1, regime.d + 1.0)
        pr_critical = asymptotics.tj_boundary_critical(alpha / model.p, regime.d)
        pr_tail = asymptotics.tj_boundary_pvalue(t_pr, regime.d)
    z_lr = asymptotics.tlr_standardize(ln_t_lr_star, model.p, model.T, model.K, model.demeaned)
    rows = {
        "T_el": (t_el, el_critical, pairs * asymptotics.tij_null_pvalue(t_el, regime)),
        "T_pr": (t_pr, pr_critical, model.p * pr_tail),
        "T_LR": (z_lr, normal_quantile(1.0 - alpha), normal_cdf(-z_lr)),
    }
    return {
        name: _Decisions(stat, critical, SOURCE_HIGHDIM, np.minimum(1.0, p_value))
        for name, (stat, critical, p_value) in rows.items()
    }


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
    With calibrated criticals the table is computed once for the subset
    dimensions and reused. The residual scatter of all assets is formed
    once; subsets then run through the statistics kernel in chunks, with
    the same statistics, p-values and Singular failures as run_tests on
    each subset panel, up to rounding.
    """
    if not 2 <= subset_size <= panel.p:
        raise DomainError(
            f"subset_size must lie in [2, {panel.p}], got {subset_size}"
        )
    if num_subsets < 1:
        raise DomainError("num_subsets must be positive")
    sub_model = FactorModelSpec(
        p=subset_size, K=panel.K, T=panel.T, demeaned=panel.demean
    )
    source = _resolve_request(critical_source, sub_model)
    tables = regime = None
    if source == REQUEST_CALIBRATED:
        tables = calibrate_tests(sub_model, alpha, calibration_reps, calibration_seed)
    elif source == REQUEST_HIGHDIM:
        regime = asymptotics.select_regime(subset_size, panel.T, panel.K, panel.demean)
    X, F = panel.data_matrices()
    scatter = ResidualScatter(X, F, demeaned=panel.demean)
    pvals = {test: np.empty(num_subsets) for test in TESTS}
    chunk = _default_chunk(subset_size)
    for start in range(0, num_subsets, chunk):
        stop = min(start + chunk, num_subsets)
        subsets = np.array([
            np.sort(
                SeedSpec(subset_seed, i).generator().choice(
                    panel.p, size=subset_size, replace=False
                )
            )
            for i in range(start, stop)
        ])
        kernel = scatter.subset_stats(subsets)
        observed = kernel_observed(kernel)
        decided = _decide(
            source, observed, kernel.ln_t_lr_star, sub_model, alpha, tables, regime
        )
        for test in TESTS:
            pvals[test][start:stop] = decided[test].p_value
        del kernel, observed, decided  # release this chunk's arrays before the next
    quantiles = {}
    for test in TESTS:
        q = np.quantile(pvals[test], [0.0, 0.25, 0.5, 0.75, 1.0])
        quantiles[test] = {
            "min": float(q[0]),
            "q1": float(q[1]),
            "median": float(q[2]),
            "q3": float(q[3]),
            "max": float(q[4]),
        }
    return BatchSummary(
        subset_size=subset_size, num_subsets=num_subsets, quantiles=quantiles
    )
