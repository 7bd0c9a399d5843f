"""Outside-in tracing of factorlens layers and the per-layer metrics.

The package imports functions by name (``from .randmat import
bartlett_factor``), so a function is wrapped where its caller looks it up:
``calibrate.bartlett_factor`` rather than ``randmat.bartlett_factor``. Each
wrapper records one span (name, start, end, parent, operation id) in memory;
nothing under ``src/`` is changed. Spans are written out after the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

import numpy as np

# (module, attribute path where the caller looks the name up, span name)
WRAPS = (
    ("factorlens.cli", "main", "cli.main"),
    ("factorlens.randmat", "SeedSpec.generator", "randmat.generator"),
    ("factorlens.calibrate", "bartlett_factor", "randmat.bartlett_factor"),
    ("factorlens.calibrate", "simulate_null_statistics", "calibrate.simulate"),
    ("factorlens.cli", "calibrate_many", "calibrate.calibrate_many"),
    ("factorlens.report", "calibrate_many", "calibrate.calibrate_many"),
    ("factorlens.cli", "save_tables_json", "calibrate.save_tables_json"),
    ("factorlens.cli", "load_tables_json", "calibrate.load_tables_json"),
    ("factorlens.report", "empirical_pvalue", "calibrate.empirical_pvalue"),
    ("factorlens.linalg", "cholesky", "linalg.cholesky"),
    ("factorlens.powersim", "cholesky", "linalg.cholesky"),
    ("factorlens.teststats", "invert_spd", "linalg.invert_spd"),
    ("factorlens.powersim", "invert_spd", "linalg.invert_spd"),
    ("factorlens.report", "precision_stats_from_data", "teststats.precision"),
    ("factorlens.powersim", "precision_stats_from_data", "teststats.precision"),
    ("factorlens.report", "compute_all", "teststats.compute_all"),
    ("factorlens.powersim", "compute_all", "teststats.compute_all"),
    ("factorlens.teststats", "stat_ln_t_lr_star", "teststats.lr_star"),
    ("factorlens.cli", "run_power_study", "powersim.run_power_study"),
    ("factorlens.powersim", "generate_dataset", "powersim.generate_dataset"),
    ("factorlens.powersim", "build_sigma_u", "powersim.build_sigma_u"),
    ("factorlens.cli", "ingest_csv", "panel.ingest_csv"),
    ("factorlens.panel", "export_panel_csv", "panel.export_panel_csv"),
    ("factorlens.panel", "ReturnsPanel.subset", "panel.subset"),
    ("factorlens.cli", "run_tests", "report.run_tests"),
    ("factorlens.report", "run_tests", "report.run_tests"),
    ("factorlens.cli", "batch_subset_test", "report.batch_subset_test"),
    ("factorlens.report", "f_cdf", "special.cdf"),
    ("factorlens.report", "chi2_cdf", "special.cdf"),
)


class Tracer:
    """In-memory span recorder installed around the functions in WRAPS."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self._op = 0
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Start a new operation id; spans until the next call share it."""
        self._op += 1

    def _wrap(self, fn, name):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, path, span in WRAPS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(names, self ns, parent index) per span; self = duration - children."""
        names = np.asarray(self.names)
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return names, dur - child, parents

    def dump(self, path: str) -> None:
        """Write every span as columns: name, start, end, parent, op."""
        doc = {
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": list(zip(self.names, self.starts, self.ends, self.parents, self.ops)),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, sizes: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    Times are mean self time per call; ``sizes`` carries byte counts the
    benchmark measured on the files it hands to the program.
    """
    names, self_ns, parents = tracer.self_times()

    def calls(name):
        return int(np.count_nonzero(names == name))

    def self_total(name):
        return float(self_ns[names == name].sum())

    def per(num, den):
        return num / den if den else 0.0

    def mean_us(name):
        return per(self_total(name), calls(name)) / 1e3

    def mean_ms(name):
        return mean_us(name) / 1e3

    reps = calls("randmat.bartlett_factor")
    datasets = calls("teststats.precision")
    batch = names == "report.batch_subset_test"
    in_batch = np.flatnonzero(batch)
    subsets = int(np.count_nonzero(
        (names == "report.run_tests") & np.isin(parents, in_batch)))
    return {
        "randmat.substream_us": (mean_us("randmat.generator"), "us"),
        "randmat.bartlett_us": (mean_us("randmat.bartlett_factor"), "us"),
        "randmat.bartlett_calls": (per(reps, calls("calibrate.calibrate_many")), "count"),
        "calibrate.kernel_us_per_rep": (per(self_total("calibrate.simulate"), reps) / 1e3, "us"),
        "calibrate.quantile_ms": (mean_ms("calibrate.calibrate_many"), "ms"),
        "calibrate.table_save_ms": (mean_ms("calibrate.save_tables_json"), "ms"),
        "calibrate.table_load_ms": (mean_ms("calibrate.load_tables_json"), "ms"),
        "calibrate.table_mb": (sizes.get("table_bytes", 0) / 1e6, "MB"),
        "calibrate.pvalue_us": (mean_us("calibrate.empirical_pvalue"), "us"),
        "linalg.cholesky_per_dataset": (per(calls("linalg.cholesky"), datasets), "count"),
        "linalg.cholesky_us": (mean_us("linalg.cholesky"), "us"),
        "linalg.invert_spd_us": (mean_us("linalg.invert_spd"), "us"),
        "teststats.precision_us": (mean_us("teststats.precision"), "us"),
        "teststats.compute_all_us": (mean_us("teststats.compute_all"), "us"),
        "teststats.lr_star_per_dataset": (
            per(calls("teststats.lr_star"), calls("teststats.compute_all")), "count"),
        "powersim.generate_us": (mean_us("powersim.generate_dataset"), "us"),
        "powersim.sigma_builds_per_dataset": (
            per(calls("powersim.build_sigma_u"), calls("powersim.generate_dataset")), "count"),
        "panel.ingest_ms": (mean_ms("panel.ingest_csv"), "ms"),
        "panel.export_ms": (mean_ms("panel.export_panel_csv"), "ms"),
        "panel.csv_mb": (sizes.get("csv_bytes", 0) / 1e6, "MB"),
        "panel.subset_us": (mean_us("panel.subset"), "us"),
        "report.run_tests_us": (mean_us("report.run_tests"), "us"),
        "report.batch_us_per_subset": (
            per(float(self_ns[batch].sum()), subsets) / 1e3, "us"),
        "special.cdf_us": (mean_us("special.cdf"), "us"),
        "cli.self_ms": (mean_ms("cli.main"), "ms"),
    }
