"""The four benchmark workloads and their correctness checks.

Every workload drives the CLI entry point ``factorlens.cli.main(argv)`` in
this process. A run repeats whole rounds of the same operations on inputs
made from the run's seed. The first round is checked against ``oracle``;
every later round must reproduce the first round's output files byte for
byte, since a seeded run of the program is deterministic.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import time

import numpy as np

import oracle

ALPHA = 0.05
DEFAULT_ALPHAS = (0.1, 0.05, 0.01, 0.005)
# Median of probe() on the reference machine (see README); times are scaled to it.
PROBE_REF_S = 0.010


def probe() -> float:
    """Seconds for a fixed numpy workload that does not touch factorlens.

    On a shared machine the speed drifts by tens of percent over tens of
    seconds. The probe runs right after every timed operation, and the
    operation's time is multiplied by PROBE_REF_S / probe(), which cancels
    most of the drift. It drives small matrices from Python on one thread, as
    most of the workloads do; a two-thread BLAS product is left out because
    its time jumps whenever the second core is busy.
    """
    rng = np.random.default_rng(0)
    eye = np.eye(12)
    start = time.perf_counter()
    for _ in range(300):
        x = rng.standard_normal((12, 40))
        np.linalg.inv(x @ x.T + eye)
    return time.perf_counter() - start


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Workload:
    """Shared bookkeeping: operation counts, timings and the untraced check window."""

    def __init__(self, seed: int, work: str, cli) -> None:
        self.seed = seed
        self.work = work
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.cmd_ms: list[float] = []
        self.items_per_s: list[float] = []
        self.raw: dict[str, list[float]] = {}
        self.sizes: dict[str, int] = {}
        self.begin_op = lambda: None
        self.untraced = contextlib.nullcontext
        self._devnull = open(os.devnull, "w")
        self._digest = None

    def close(self) -> None:
        self._devnull.close()

    def reset(self) -> None:
        """Forget the operations set-up ran, before the measured rounds."""
        self.attempted = self.failed = 0
        self.cmd_ms.clear()
        self.items_per_s.clear()
        self.raw.clear()

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def command(self, argv: list[str]) -> float:
        """Run one CLI command; returns its wall time in seconds."""
        self.begin_op()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self._devnull):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"factorlens {' '.join(argv[:1])} exited with {code}")
        return elapsed

    def record(self, cmd_s: float | None = None, items: int = 0, items_s: float = 0.0,
               **parts: float) -> None:
        """One timed operation, scaled to the reference machine speed.

        cmd_s is a command latency, items done in items_s a throughput sample,
        and parts are unscaled component times kept for the results file.
        """
        speed = PROBE_REF_S / probe()
        if cmd_s is not None:
            self.cmd_ms.append(cmd_s * 1e3 * speed)
            self.raw.setdefault("cmd_ms", []).append(cmd_s * 1e3)
        if items:
            self.items_per_s.append(items / items_s / speed)
            self.raw.setdefault("items_per_s", []).append(items / items_s)
        self.raw.setdefault("probe_ms", []).append(PROBE_REF_S * 1e3 / speed)
        for name, seconds in parts.items():
            self.raw.setdefault(name, []).append(seconds * 1e3)

    def verify(self, outputs: list[str]) -> None:
        """Full check on the first round, byte identity with it afterwards."""
        with self.untraced():
            digest = _digest(*outputs)
            if self._digest is None:
                self.check_outputs()
                self._digest = digest
            else:
                _require(digest == self._digest, "round output differs from first round")

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def check_outputs(self) -> None:
        raise NotImplementedError


class Calibrate(Workload):
    """``factorlens calibrate`` with kept null samples, JSON and CSV output."""

    def __init__(self, *args, p, T, K, statistics, reps) -> None:
        super().__init__(*args)
        self.p, self.T, self.K = p, T, K
        self.statistics = statistics
        self.reps = reps
        self.out = self.path("table.json")
        self.csv = self.path("table.csv")

    def prepare(self) -> None:
        importlib.import_module("factorlens.calibrate").simulate_null_statistics(
            self.statistics, self.p, self.T, self.K, reps=8, master_seed=self.seed
        )

    def round(self) -> None:
        argv = [
            "calibrate", "--p", str(self.p), "--T", str(self.T), "--K", str(self.K),
            "--statistics", ",".join(self.statistics), "--reps", str(self.reps),
            "--seed", str(self.seed), "--keep-null-sample",
            "--out", self.out, "--csv", self.csv,
        ]
        elapsed = self.command(argv)
        self.record(elapsed, self.reps, elapsed)
        self.verify([self.out, self.csv])

    def check_outputs(self) -> None:
        with open(self.out, encoding="utf-8") as fh:
            docs = json.load(fh)["tables"]
        _require([d["statistic"] for d in docs] == list(self.statistics), "table order")
        samples = {}
        for d in docs:
            name = d["statistic"]
            sample = np.asarray(d["null_sample"], dtype=float)
            _require(sample.size == self.reps, f"{name}: kept sample has {sample.size} draws")
            _require(bool(np.all(np.diff(sample) >= 0)), f"{name}: kept sample not sorted")
            pairs = sorted(zip(d["alphas"], d["critical_values"]))
            _require([a for a, _ in pairs] == sorted(DEFAULT_ALPHAS), f"{name}: alphas")
            cvs = [cv for _, cv in pairs]
            _require(all(x >= y for x, y in zip(cvs, cvs[1:])),
                     f"{name}: critical values increase with alpha")
            values = sample.tolist()
            for a, cv in pairs:
                q = oracle.type7_quantile(values, 1.0 - a)
                _require(oracle.close(cv, q, 1e-12, 1e-12), f"{name}: cv at {a} is not the quantile")
            samples[name] = (sample, pairs)

        with open(self.csv, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(lines[0] == "statistic,p,T,K,alpha,critical_value", "CSV header")
        _require(len(lines) - 1 == len(docs) * len(DEFAULT_ALPHAS), "CSV row count")
        for line in lines[1:]:
            name, p, T, K, a, cv = line.split(",")
            _require((int(p), int(T), int(K)) == (self.p, self.T, self.K), "CSV dimensions")
            match = [c for al, c in samples[name][1] if oracle.close(al, float(a), 1e-9)]
            _require(len(match) == 1 and oracle.close(match[0], float(cv), 1e-9),
                     f"CSV and JSON disagree for {name} at alpha={a}")

        rng = np.random.default_rng([self.seed, 1])
        picks = {0, self.reps - 1, *rng.integers(0, self.reps, 3).tolist()}
        for r in sorted(picks):
            ref = oracle.null_replicate(self.seed, r, self.p, self.T, self.K)
            for name, (sample, _) in samples.items():
                i = int(np.searchsorted(sample, ref[name]))
                near = sample[max(i - 1, 0): i + 1]
                _require(any(oracle.close(float(x), ref[name], 1e-9) for x in near),
                         f"{name}: replicate {r} ({ref[name]!r}) not in the kept sample")

        dof = self.T - self.K - self.p + 1
        for name, crit in (("T_el", oracle.bonferroni_el(ALPHA, self.p, dof)),
                           ("T_pr", oracle.bonferroni_pr(ALPHA, self.p, dof))):
            above = int(np.count_nonzero(samples[name][0] > crit))
            _require(oracle.plausible_size(above, self.reps, ALPHA),
                     f"{name}: {above} of {self.reps} null draws above Bonferroni {crit:.4f}")


class Power(Workload):
    """``factorlens power --scenario s1`` with closed-form critical values.

    A round is COMMANDS power studies over the same grid with consecutive
    seeds, so that each timed command is short; the size check pools them.
    """

    P, T, K = 10, 100, 5
    GRID = "-0.5:0.25:0.5"
    GRID_VALUES = (-0.5, -0.25, 0.0, 0.25, 0.5)
    COMMANDS = 10

    def __init__(self, *args, reps) -> None:
        super().__init__(*args)
        self.reps = reps  # per command
        self.seeds = [self.seed * self.COMMANDS + j for j in range(self.COMMANDS)]
        self.outs = [self.path(f"power{j}.csv") for j in range(self.COMMANDS)]

    def _config(self, seed: int):
        from factorlens.powersim import ScenarioConfig

        return ScenarioConfig("s1", p=self.P, K=self.K, T=self.T, reps=self.reps,
                              master_seed=seed, alpha=ALPHA)

    def prepare(self) -> None:
        from factorlens import powersim, teststats

        cfg = self._config(self.seeds[0])
        for rep in range(4):
            X, F = powersim.generate_dataset(cfg, 0.5, rep)
            teststats.compute_all(teststats.precision_stats_from_data(X, F))

    def round(self) -> None:
        for seed, out in zip(self.seeds, self.outs):
            elapsed = self.command([
                "power", "--scenario", "s1", "--p", str(self.P), "--T", str(self.T),
                "--K", str(self.K), f"--rho-grid={self.GRID}", "--reps", str(self.reps),
                "--seed", str(seed), "--alpha", str(ALPHA),
                "--criticals", "closed-form", "--out", out,
            ])
            self.record(elapsed, len(self.GRID_VALUES) * self.reps, elapsed)
        self.verify(self.outs)

    def check_outputs(self) -> None:
        from factorlens import powersim, teststats

        rejections = {}
        for out in self.outs:
            with open(out, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            _require(lines[0] == "scenario,grid_value,test,critical_source,power,mc_se", "header")
            _require(len(lines) - 1 == 3 * len(self.GRID_VALUES), "power CSV row count")
            for line in lines[1:]:
                _, g, test, _, rate, _ = line.split(",")
                count = float(rate) * self.reps
                _require(abs(count - round(count)) < 1e-6, f"rate {rate} is not a share of {self.reps}")
                key = (test, float(g))
                rejections[key] = rejections.get(key, 0) + round(count)
        n = self.reps * self.COMMANDS
        for test in ("T_el", "T_pr"):
            _require(oracle.plausible_size(rejections[test, 0.0], n, ALPHA),
                     f"{test}: {rejections[test, 0.0]} of {n} null datasets rejected")
        for rho in (-0.5, 0.5):
            _require(rejections["T_el", rho] > rejections["T_el", 0.0],
                     f"T_el: no power at rho={rho}")

        for seed, rho, rep in ((self.seeds[0], 0.0, 0), (self.seeds[0], 0.5, 1),
                               (self.seeds[-1], -0.5, self.reps - 1), (self.seeds[-1], 0.25, 2)):
            X, F = powersim.generate_dataset(self._config(seed), rho, rep)
            got = teststats.compute_all(teststats.precision_stats_from_data(X, F))
            ref = oracle.data_statistics(X, F, demeaned=False)
            for name, value in (("T_el", got.t_el), ("T_pr", got.t_pr),
                                ("ln_T_LR_star", got.ln_t_lr_star), ("T_LR", got.t_lr)):
                _require(oracle.close(value, ref[name], 1e-9),
                         f"{name} of dataset (seed={seed}, rho={rho}, rep={rep}): "
                         f"{value!r} vs {ref[name]!r}")

        # Every decision of the first study, from recomputed statistics and
        # closed-form critical values taken from scipy.stats.
        dof = self.T - self.K - self.P + 1
        crit = {"T_el": oracle.bonferroni_el(ALPHA, self.P, dof),
                "T_pr": oracle.bonferroni_pr(ALPHA, self.P, dof),
                "T_LR": oracle.chi2_critical(ALPHA, self.P)}
        cfg = self._config(self.seeds[0])
        with open(self.outs[0], encoding="utf-8") as fh:
            first = {(t, float(g)): round(float(r) * self.reps)
                     for _, g, t, _, r, _ in (line.split(",") for line in fh.read().splitlines()[1:])}
        for rho in self.GRID_VALUES:
            counts = dict.fromkeys(crit, 0)
            for rep in range(self.reps):
                ref = oracle.data_statistics(*powersim.generate_dataset(cfg, rho, rep), demeaned=False)
                for test in crit:
                    counts[test] += ref[test] > crit[test]
            for test, count in counts.items():
                _require(first[test, rho] == count,
                         f"{test} at rho={rho}: {first[test, rho]} rejections, recomputed {count}")


class Empirical(Workload):
    """Export + ``test`` on small panels, ``batch-test`` on a wide one."""

    P, K, T = 10, 3, 260  # panels run through `test`
    WIDE_P, WIDE_T = 50, 500  # panel run through `batch-test`
    PANELS = 4  # the last one has a planted residual correlation
    PLANTED_CORR = 0.6
    SUBSET_SIZE = 10

    def __init__(self, *args, table_reps, num_subsets) -> None:
        super().__init__(*args)
        self.table_reps = table_reps
        self.num_subsets = num_subsets
        self.tables = self.path("tables.json")
        self.wide_csv = self.path("wide.csv")
        self.batch_out = self.path("batch.csv")
        self.factors = [f"F{k + 1}" for k in range(self.K)]

    def _panel(self, index: int, p: int, T: int, planted=None):
        """Factor model plus residuals: X = B F + diag(s) L Z, demeaned in the test."""
        from factorlens.panel import ReturnsPanel

        rng = np.random.default_rng([self.seed, index])
        F = rng.normal(0.0003, 0.01, (self.K, T))
        B = np.column_stack([rng.uniform(0.5, 1.5, p), rng.uniform(-0.5, 0.5, (p, self.K - 1))])
        scale = rng.uniform(0.01, 0.03, p)
        corr = np.eye(p)
        if planted is not None:
            corr[planted] = corr[planted[::-1]] = self.PLANTED_CORR
        resid = scale[:, None] * (np.linalg.cholesky(corr) @ rng.standard_normal((p, T)))
        X = B @ F + resid
        labels = ("date", *(f"A{i + 1:02d}" for i in range(p)), *self.factors)
        return ReturnsPanel(
            labels=labels,
            times=tuple(f"w{t:04d}" for t in range(T)),
            values=np.vstack([X, F]).T,
            asset_columns=tuple(range(1, p + 1)),
            factor_columns=tuple(range(p + 1, p + 1 + self.K)),
            demean=True,
        )

    def prepare(self) -> None:
        from factorlens import panel as panel_mod

        pair = np.random.default_rng([self.seed, 99]).choice(self.P, 2, replace=False)
        self.planted = (int(pair.max()), int(pair.min()))
        self.panels = [
            self._panel(k, self.P, self.T, self.planted if k == self.PANELS - 1 else None)
            for k in range(self.PANELS)
        ]
        self.wide = self._panel(self.PANELS, self.WIDE_P, self.WIDE_T)
        panel_mod.export_panel_csv(self.wide, self.wide_csv)
        self.command([
            "calibrate", "--p", str(self.P), "--T", str(self.T), "--K", str(self.K),
            "--demeaned", "--statistics", "T_el,T_pr,T_LR", "--reps", str(self.table_reps),
            "--seed", str(self.seed), "--keep-null-sample", "--out", self.tables,
        ])
        self._test(0)
        self.sizes = {
            "table_bytes": os.path.getsize(self.tables),
            "csv_bytes": os.path.getsize(self.path("panel0.csv")),
        }

    def _test(self, k: int) -> tuple[str, str]:
        from factorlens import panel as panel_mod

        csv_path, report = self.path(f"panel{k}.csv"), self.path(f"report{k}.json")
        self.begin_op()
        self.attempted += 1
        start = time.perf_counter()
        panel_mod.export_panel_csv(self.panels[k], csv_path)
        exported = time.perf_counter() - start
        tested = self.command([
            "test", "--input", csv_path,
            "--assets", ",".join(self.panels[k].asset_names),
            "--factors", ",".join(self.factors), "--demean", "--alpha", str(ALPHA),
            "--criticals", "calibrated", "--table", self.tables, "--out", report,
        ])
        self.record(exported + tested, export_ms=exported, test_ms=tested)
        return csv_path, report

    def round(self) -> None:
        outputs = []
        for k in range(self.PANELS):
            outputs.extend(self._test(k))
        elapsed = self.command([
            "batch-test", "--input", self.wide_csv,
            "--assets", ",".join(self.wide.asset_names),
            "--factors", ",".join(self.factors), "--demean", "--alpha", str(ALPHA),
            "--criticals", "closed-form", "--subset-size", str(self.SUBSET_SIZE),
            "--num-subsets", str(self.num_subsets), "--subset-seed", str(self.seed),
            "--out", self.batch_out,
        ])
        self.record(items=self.num_subsets, items_s=elapsed)
        self.verify(outputs + [self.batch_out])

    def check_outputs(self) -> None:
        from factorlens.panel import ingest_csv

        with open(self.tables, encoding="utf-8") as fh:
            tables = {d["statistic"]: d for d in json.load(fh)["tables"]}
        for k, panel in enumerate(self.panels):
            back = ingest_csv(self.path(f"panel{k}.csv"), panel.asset_names,
                              panel.factor_names, demean=True)
            _require(np.array_equal(back.values, panel.values) and back.times == panel.times,
                     f"panel {k}: exported CSV does not re-ingest bit for bit")
            with open(self.path(f"report{k}.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            values = panel.values.T
            ref = oracle.data_statistics(values[: self.P], values[self.P:], demeaned=True)
            got = report["statistics"]
            for name, key in (("T_el", "t_el"), ("T_pr", "t_pr"),
                              ("ln_T_LR_star", "ln_t_lr_star"), ("T_LR", "t_lr")):
                _require(oracle.close(got[key], ref[name], 1e-9),
                         f"panel {k}: {key}={got[key]!r}, recomputed {ref[name]!r}")
            for name in ("T_el", "T_pr", "T_LR"):
                test, table = report["tests"][name], tables[name]
                sample = np.asarray(table["null_sample"])
                share = int(np.count_nonzero(sample >= test["statistic"])) / sample.size
                _require(test["p_value"] == share,
                         f"panel {k}: {name} p-value {test['p_value']!r}, kept draws give {share!r}")
                _require(test["critical_value"] == table["critical_values"][
                    table["alphas"].index(ALPHA)], f"panel {k}: {name} critical value")
                _require(test["reject"] == (test["statistic"] > test["critical_value"]),
                         f"panel {k}: {name} decision")
            _require(tuple(got["t_el_argmax"]) == ref["T_el_argmax"],
                     f"panel {k}: T_el argmax {got['t_el_argmax']}, recomputed {ref['T_el_argmax']}")
            if k == self.PANELS - 1:
                _require(report["tests"]["T_el"]["reject"], "planted panel not rejected by T_el")
                _require(tuple(got["t_el_argmax"]) == (self.planted[0] + 1, self.planted[1] + 1),
                         f"T_el argmax {got['t_el_argmax']} is not the planted pair")
        self._check_batch()

    def _check_batch(self) -> None:
        values = self.wide.values.T
        X, F = values[: self.WIDE_P], values[self.WIDE_P:]
        s = self.SUBSET_SIZE
        dof = self.WIDE_T - 1 - self.K - s + 1
        pvals = {name: [] for name in ("T_el", "T_pr", "T_LR")}
        for i in range(self.num_subsets):
            idx = np.sort(oracle.substream(self.seed, i).choice(self.WIDE_P, size=s, replace=False))
            ref = oracle.closed_form_pvalues(oracle.data_statistics(X[idx], F, True), s, dof)
            for name in pvals:
                pvals[name].append(ref[name])
        with open(self.batch_out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(lines[0] == "test,min,q1,median,q3,max", "batch CSV header")
        for line in lines[1:]:
            name, *qs = line.split(",")
            ordered = sorted(pvals[name])
            for q, text in zip((0.0, 0.25, 0.5, 0.75, 1.0), qs):
                ref = oracle.type7_quantile(ordered, q)
                _require(oracle.close(float(text), ref, 1e-8, 1e-12),
                         f"batch {name} quantile {q}: {text} vs recomputed {ref!r}")


def make(name: str, seed: int, quick: bool, work: str, cli) -> Workload:
    args = (seed, work, cli)
    if name == "calibrate-p20":
        return Calibrate(*args, p=20, T=104, K=1, statistics=("T_el", "T_pr", "T_LR"),
                         reps=1000 if quick else 2000)
    if name == "calibrate-p100":
        return Calibrate(*args, p=100, T=518, K=1,
                         statistics=("T_el", "T_pr", "T_LR_standardized"), reps=1000)
    if name == "power-s1":
        return Power(*args, reps=10 if quick else 40)
    if name == "empirical":
        return Empirical(*args, table_reps=1000 if quick else 10_000,
                         num_subsets=20 if quick else 200)
    raise ValueError(f"unknown workload {name!r}")
