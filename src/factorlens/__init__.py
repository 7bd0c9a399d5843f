"""Tests of whether observed factors explain all linear dependence.

The null hypothesis is that the leading p-by-p block of the joint
precision matrix of (responses, factors) is diagonal. Three global tests
are provided: the maximum pair statistic, the maximum column statistic,
and the likelihood ratio, each with exact finite-sample marginal laws,
Monte-Carlo calibrated critical values, closed-form Bonferroni and
chi-square alternatives, and high-dimensional limit standardizations.
"""

from .asymptotics import (
    Regime,
    select_regime,
    tj_boundary_pvalue,
    tj_standardize,
    tlr_standardize,
)
from .calibrate import (
    CriticalValueTable,
    calibrate_many,
    empirical_pvalue,
    simulate_null_statistics,
)
from .errors import FactorLensError
from .linalg import cholesky, invert_spd
from .panel import ReturnsPanel, export_panel_csv, ingest_csv
from .powersim import PowerCurve, ScenarioConfig, build_sigma_u, generate_dataset, run_power_study
from .randmat import SeedSpec
from .report import TestReport, batch_subset_test, resolve_criticals, run_tests
from .special import (
    ZjDensityParams,
    chi2_cdf,
    chi2_quantile,
    density_Z,
    f_cdf,
    f_quantile,
    marginal_power_Z,
    normal_cdf,
    normal_quantile,
)
from .teststats import (
    FactorModelSpec,
    FactorStats,
    TestStatistics,
    compute_all,
    precision_stats_from_data,
    stat_ln_t_lr_star,
    stats_from_factors,
    stats_from_precision,
)

__version__ = "0.1.0"
