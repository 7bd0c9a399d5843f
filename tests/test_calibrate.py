import contextlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import factorlens
from factorlens import (
    FactorModelSpec,
    SeedSpec,
    calibrate_many,
    chi2_quantile,
    empirical_pvalue,
    f_quantile,
    resolve_criticals,
    simulate_null_statistics,
)
from factorlens.calibrate import (
    MARGINAL_STATISTICS,
    STATISTICS,
    CriticalValueTable,
    load_tables_json,
    save_tables_json,
    tables_to_csv,
)
from factorlens.errors import (
    BadDimension,
    DomainError,
    FactorLensError,
    MissingNullSample,
    ParseError,
    WorkerFailed,
)
from factorlens.randmat import bartlett_factor
from factorlens.teststats import compute_all, stats_from_factors
from conftest import ks_statistic, null_kernel, plain_bartlett

P, T, K = 6, 40, 2
REPS = 2000
SEED = 99


@pytest.fixture(scope="module")
def tables():
    return calibrate_many(
        ("T_el", "T_pr", "T_LR", "ln_T_LR_star"),
        P,
        T,
        K,
        alphas=(0.1, 0.05, 0.01),
        reps=REPS,
        master_seed=SEED,
        keep_null_sample=True,
    )


def test_engine_matches_per_replicate_path():
    # the chunked engine must agree with one null draw's kernel + compute_all
    out = simulate_null_statistics(
        ("T_el", "T_pr", "T_LR", "ln_T_LR_star"), P, T, K, reps=50, master_seed=SEED
    )
    for r in range(50):
        stats = compute_all(null_kernel(P, T, K, SeedSpec(SEED, r)))
        assert_allclose(out["T_el"][r], stats.t_el, rtol=1e-9)
        assert_allclose(out["T_pr"][r], stats.t_pr, rtol=1e-9)
        assert_allclose(out["T_LR"][r], stats.t_lr, rtol=1e-9)
        assert_allclose(out["ln_T_LR_star"][r], stats.ln_t_lr_star, rtol=1e-9)


def test_engine_chunk_size_invariance():
    a = simulate_null_statistics(("T_el",), P, T, K, reps=150, master_seed=1, chunk_size=7)
    b = simulate_null_statistics(("T_el",), P, T, K, reps=150, master_seed=1, chunk_size=150)
    assert np.array_equal(a["T_el"], b["T_el"])


@pytest.mark.parametrize("p, T, reps", [(20, 104, 300), (100, 518, 200)])
def test_engine_chunk_size_invariance_all_statistics(p, T, reps):
    names = STATISTICS + MARGINAL_STATISTICS
    ref = simulate_null_statistics(names, p, T, K, reps=reps, master_seed=1)
    for chunk in (7, 64, reps):
        out = simulate_null_statistics(
            names, p, T, K, reps=reps, master_seed=1, chunk_size=chunk
        )
        for name in names:
            assert np.array_equal(out[name], ref[name]), (name, chunk)


@pytest.mark.parametrize("p, T, reps", [(2, 12, 40), (20, 104, 40), (100, 518, 16)])
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_engine_matches_plain_reference_loop(monkeypatch, p, T, reps, chunk):
    import factorlens.calibrate as cal
    from factorlens.asymptotics import tlr_standardize

    # one process, so that the recording kernel sees every chunk; the forked
    # runs are held to this one by the worker tests below
    monkeypatch.delattr(os, "fork")
    seen = []

    def recording_kernel(L, t_eff, K):
        seen.append(L.copy())
        return stats_from_factors(L, t_eff, K)

    monkeypatch.setattr(cal, "stats_from_factors", recording_kernel)
    names = STATISTICS + MARGINAL_STATISTICS
    out = simulate_null_statistics(
        names, p, T, K, reps=reps, master_seed=3, chunk_size=chunk
    )
    factors = np.concatenate(seen)
    plain = [plain_bartlett(p, T - K, SeedSpec(3, r).generator()) for r in range(reps)]
    assert np.array_equal(factors, np.stack(plain))
    assert not np.triu(factors, 1).any()  # strict upper triangle exactly zero
    kernel = stats_from_factors(factors, T, K)
    ref = {
        "T_el": kernel.t_ij.max(axis=1),
        "T_ij_21": kernel.t_ij[:, 0],
        "T_pr": kernel.t_j.max(axis=1),
        "T_j_1": kernel.t_j[:, 0],
        "ln_T_LR_star": kernel.ln_t_lr_star,
        "T_LR": kernel.t_lr,
        "T_LR_standardized": tlr_standardize(kernel.ln_t_lr_star, p, T, K),
    }
    for name in names:
        assert np.array_equal(out[name], ref[name]), name


def test_engine_default_chunk_bounds_memory():
    # the default chunk budgets every work array, not only one p-by-p stack
    tracemalloc.start()
    try:
        simulate_null_statistics(
            ("T_el", "T_pr", "T_LR_standardized"), 100, 518, 1, reps=600, master_seed=1
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


def test_engine_marginal_statistics_match():
    out = simulate_null_statistics(("T_ij_21", "T_j_1"), P, T, K, reps=20, master_seed=4)
    for r in range(20):
        ps = null_kernel(P, T, K, SeedSpec(4, r))
        assert_allclose(out["T_ij_21"][r], ps.t_ij[0, 0], rtol=1e-9)
        assert_allclose(out["T_j_1"][r], ps.t_j[0, 0], rtol=1e-9)


def test_t_ij_21_reads_the_first_pair_of_the_kernel():
    from factorlens.calibrate import READERS

    factors = np.stack([plain_bartlett(8, 30, SeedSpec(5, r).generator()) for r in range(6)])
    kernel = stats_from_factors(factors, 31, 1)
    assert np.array_equal(READERS["T_ij_21"](kernel), kernel.t_ij[:, 0])


def _count_forks(monkeypatch, processes=3):
    """Let the engine use `processes` processes, and count the children it forks.

    Where BLAS has no thread pin, a stand-in lets the engine fork all the
    same; each process then runs BLAS on its default thread count.
    """
    import factorlens.linalg as linalg

    if linalg.BLAS_PIN is None:
        monkeypatch.setattr(linalg, "BLAS_PIN", contextlib.nullcontext())
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


NAMES = STATISTICS + MARGINAL_STATISTICS


@pytest.mark.parametrize("p, T, reps, chunk", [(10, 40, 700, 64), (100, 518, 40, 9)])
def test_forked_chunks_equal_one_chunk_bitwise(monkeypatch, p, T, reps, chunk):
    ref = simulate_null_statistics(NAMES, p, T, K, reps=reps, master_seed=8, chunk_size=reps)
    forks = _count_forks(monkeypatch)
    out = simulate_null_statistics(NAMES, p, T, K, reps=reps, master_seed=8, chunk_size=chunk)
    assert len(forks) == 2  # three processes: this one computes the last range
    for name in NAMES:
        assert np.array_equal(out[name], ref[name]), name
    _assert_no_children_left()


@pytest.mark.parametrize("p, T, reps, chunk", [(10, 40, 700, 64), (100, 518, 40, 9)])
@pytest.mark.parametrize("away", ["pin", "fork"])
def test_engine_runs_serially_without_the_pin_or_fork(monkeypatch, p, T, reps, chunk, away):
    import factorlens.linalg as linalg

    ref = simulate_null_statistics(NAMES, p, T, K, reps=reps, master_seed=8, chunk_size=reps)
    forks = _count_forks(monkeypatch)
    if away == "pin":
        monkeypatch.setattr(linalg, "BLAS_PIN", None)
    else:
        monkeypatch.delattr(os, "fork")
    out = simulate_null_statistics(NAMES, p, T, K, reps=reps, master_seed=8, chunk_size=chunk)
    assert forks == []
    for name in NAMES:
        assert np.array_equal(out[name], ref[name]), name


@pytest.mark.parametrize("how, reason", [
    ("raise", "DomainError: kernel refused"),
    ("kill", "the worker process ended with status -9"),
])
def test_a_failing_worker_is_named_and_no_process_outlives_the_call(monkeypatch, how, reason):
    import factorlens.calibrate as cal

    parent = os.getpid()

    def failing_in_children(L, t_eff, K):
        if os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise DomainError("kernel refused")
        return stats_from_factors(L, t_eff, K)

    _count_forks(monkeypatch)
    monkeypatch.setattr(cal, "stats_from_factors", failing_in_children)
    with pytest.raises(WorkerFailed, match=f"^replicates 0 to 99: {reason}$") as info:
        simulate_null_statistics(("T_el",), P, T, K, reps=300, master_seed=1, chunk_size=50)
    assert isinstance(info.value, FactorLensError)
    _assert_no_children_left()


def test_a_failure_in_this_process_stops_the_workers(monkeypatch):
    import factorlens.calibrate as cal

    parent = os.getpid()

    def failing_here(L, t_eff, K):
        if os.getpid() == parent:
            raise DomainError("kernel refused here")
        return stats_from_factors(L, t_eff, K)

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cal, "stats_from_factors", failing_here)
    with pytest.raises(DomainError, match="kernel refused here"):
        simulate_null_statistics(("T_el",), P, T, K, reps=300, master_seed=1, chunk_size=50)
    assert len(forks) == 2
    _assert_no_children_left()


@pytest.mark.parametrize("fails, error", [(None, None), ("child", WorkerFailed), ("here", DomainError)])
def test_the_pin_is_held_across_every_fork_and_wait(monkeypatch, tmp_path, fails, error):
    import factorlens.calibrate as cal
    import factorlens.linalg as linalg

    # each set-threads call, fork and wait appends "pid event" to one file,
    # so that a child's calls show up here
    log, parent = tmp_path / "events", os.getpid()

    def note(event):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {event}\n")

    threads = [2]

    def set_threads(n):
        note(f"set {n}")
        threads[0], previous = n, threads[0]
        return previous

    fork, waitpid = os.fork, os.waitpid

    def noting_fork():
        pid = fork()
        if pid:
            note("fork")
        return pid

    def noting_waitpid(pid, options):
        note("wait")
        return waitpid(pid, options)

    def kernel(L, t_eff, K):
        if fails == ("here" if os.getpid() == parent else "child"):
            raise DomainError("kernel refused")
        return stats_from_factors(L, t_eff, K)

    monkeypatch.setattr(linalg, "BLAS_PIN", linalg._ThreadPin(set_threads))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", noting_fork)
    monkeypatch.setattr(os, "waitpid", noting_waitpid)
    monkeypatch.setattr(cal, "stats_from_factors", kernel)
    with pytest.raises(error) if error else contextlib.nullcontext():
        simulate_null_statistics(("T_el",), P, T, K, reps=300, master_seed=1, chunk_size=50)
    events = log.read_text().splitlines()
    monkeypatch.undo()
    # one count to 1 before the first fork and one restore after the last
    # wait, all in this process: the children's nested pins set nothing
    assert events == [f"{parent} {e}" for e in ("set 1", "fork", "fork", "wait", "wait", "set 2")]
    _assert_no_children_left()


def test_a_one_chunk_run_forks_into_even_halves(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    ref = simulate_null_statistics(NAMES, 20, 104, 1, reps=2000, master_seed=3)
    forks = _count_forks(monkeypatch, processes=2)
    out = simulate_null_statistics(NAMES, 20, 104, 1, reps=2000, master_seed=3)
    assert len(forks) == 1  # 2000 replicates fit one chunk of 4032
    for name in NAMES:
        assert np.array_equal(out[name], ref[name]), name
    _assert_no_children_left()


@pytest.mark.parametrize("reps, forked, chunks_here", [
    (20_000, [(0, 10_000)], [4096, 4096, 1808]),
    (8, [], [8]),
])
def test_replicates_split_evenly_and_run_in_chunks(monkeypatch, reps, forked, chunks_here):
    import factorlens.calibrate as cal

    ranges, chunks, parent = [], [], os.getpid()

    class RecordingWorker(cal._Worker):
        def __init__(self, work, start, stop, rows):
            ranges.append((start, stop))
            super().__init__(work, start, stop, rows)

    def kernel(L, t_eff, K):
        if os.getpid() == parent:
            chunks.append(len(L))
        return stats_from_factors(L, t_eff, K)

    forks = _count_forks(monkeypatch, processes=2)
    monkeypatch.setattr(cal, "_Worker", RecordingWorker)
    monkeypatch.setattr(cal, "stats_from_factors", kernel)
    simulate_null_statistics(("T_el",), 10, 40, K, reps=reps, master_seed=8)
    assert ranges == forked and len(forks) == len(forked)
    assert chunks == chunks_here  # this process runs the last range, default_chunk(10) = 4096 at a time
    _assert_no_children_left()


@pytest.mark.parametrize("p, T, K, demeaned, statistics, reps, forked", [
    (20, 104, 1, False, ("T_el", "T_pr", "T_LR"), 2000, 1),  # calibrate-p20
    (100, 518, 1, False, ("T_el", "T_pr", "T_LR_standardized"), 1000, 1),  # calibrate-p100
    (10, 260, 3, True, ("T_el", "T_pr", "T_LR"), 10_000, 1),  # the empirical tables
    (20, 104, 1, False, ("T_el", "T_pr", "T_LR"), 8, 0),  # the warm-ups
    (100, 518, 1, False, ("T_el", "T_pr", "T_LR_standardized"), 8, 0),
])
def test_the_benchmark_calls_keep_their_process_counts(monkeypatch, p, T, K, demeaned, statistics, reps, forked):
    forks = _count_forks(monkeypatch, processes=2)
    simulate_null_statistics(statistics, p, T, K, reps=reps, master_seed=2, demeaned=demeaned)
    assert len(forks) == forked
    _assert_no_children_left()


_SLOW_WORKER = """
import contextlib, os, sys, time
import factorlens.calibrate as cal
import factorlens.linalg as linalg

if linalg.BLAS_PIN is None:
    linalg.BLAS_PIN = contextlib.nullcontext()
os.sched_getaffinity = lambda pid: {0, 1}
kernel, parent = cal.stats_from_factors, os.getpid()

def slow_in_the_worker(L, t_eff, K):
    if os.getpid() != parent:
        with open(sys.argv[1], "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(60)
    return kernel(L, t_eff, K)

cal.stats_from_factors = slow_in_the_worker
cal.simulate_null_statistics(("T_el",), 6, 40, 2, reps=100, master_seed=1, chunk_size=50)
"""


def test_a_worker_dies_with_a_killed_parent(tmp_path):
    pid_file = tmp_path / "worker.pid"
    package_root = str(Path(factorlens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", _SLOW_WORKER, str(pid_file)], env=env)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert proc.poll() is None and time.monotonic() < deadline, "no worker started"
            time.sleep(0.05)
        worker = int(pid_file.read_text())
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    def alive(pid):
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        return state not in ("Z", "X")

    deadline = time.monotonic() + 10
    while alive(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not alive(worker)


def test_calibrate_determinism(tables):
    again = calibrate_many(
        ("T_el",), P, T, K, alphas=(0.1, 0.05, 0.01), reps=REPS, master_seed=SEED
    )["T_el"]
    assert again.critical_values == tables["T_el"].critical_values


def test_calibrate_quantiles_are_type7(tables):
    t = tables["T_pr"]
    expected = np.quantile(np.asarray(t.null_sample), [0.9, 0.95, 0.99])
    assert_allclose(np.asarray(t.critical_values), expected, rtol=1e-12)


def test_critical_values_nonincreasing_in_alpha(tables):
    for t in tables.values():
        order = np.argsort(t.alphas)
        cv = np.asarray(t.critical_values)[order]
        assert np.all(np.diff(cv) <= 1e-12)


def test_calibration_invariant_under_diagonal_scaling():
    # rescaling the rows of each Bartlett factor turns the identity Wishart
    # parameter into diag(scale)^2; no statistic may change
    rng = np.random.default_rng(0)
    scale = rng.uniform(0.25, 4.0, P)
    factors = np.stack(
        [bartlett_factor(P, T - K, SeedSpec(2, r).generator()) for r in range(200)]
    )
    base = stats_from_factors(factors, T, K)
    scaled = stats_from_factors(factors * scale[:, None], T, K)
    engine = simulate_null_statistics(("T_el",), P, T, K, reps=200, master_seed=2)
    assert np.array_equal(base.t_ij.max(axis=1), engine["T_el"])
    for key in ("t_ij", "t_j", "t_lr"):
        assert_allclose(getattr(scaled, key), getattr(base, key), rtol=1e-9, atol=1e-12)


def test_calibrate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        calibrate_many(("T_el",), P, T, K, reps=10)["T_el"]
    with pytest.raises(DomainError):
        calibrate_many(("nonsense",), P, T, K, reps=REPS)["nonsense"]
    with pytest.raises(DomainError):
        calibrate_many(("T_el",), P, T, K, reps=REPS, alphas=(0.0,))["T_el"]


@pytest.mark.parametrize("reps", [10, 2000])  # one process; three, as _count_forks sets the CPUs
@pytest.mark.parametrize(
    "statistics, refusal",
    [((), "no statistics"), (("T_pr", "T_el", "T_LR", "T_el", "T_pr"), "'T_el' requested twice")],
)
def test_engine_refuses_an_empty_or_repeated_statistic_before_the_first_draw(
    monkeypatch, reps, statistics, refusal
):
    import factorlens.calibrate as cal

    def no_draw(*args):
        raise AssertionError("a replicate was drawn")

    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cal, "substreams", no_draw)
    with pytest.raises(DomainError, match=refusal):
        simulate_null_statistics(statistics, P, T, K, reps=reps, master_seed=1)
    assert forks == []


def test_size_control_on_fresh_null_draws(tables):
    # rejecting at the calibrated 5% critical on fresh draws gives ~5%
    fresh = simulate_null_statistics(("T_el",), P, T, K, reps=4000, master_seed=12345)
    rate = float(np.mean(fresh["T_el"] > tables["T_el"].critical_value(0.05)))
    bound = 3.0 * math.sqrt(0.05 * 0.95 / 4000) + 0.01  # + calibration-noise slack
    assert abs(rate - 0.05) <= bound


def test_empirical_pvalue_conventions(tables):
    t = tables["T_LR"]
    sample = np.asarray(t.null_sample)
    assert empirical_pvalue(sample.min() - 1.0, t) == 1.0
    assert empirical_pvalue(sample.max() + 1.0, t) == 0.0
    med = float(np.median(sample))
    assert abs(empirical_pvalue(med, t) - 0.5) <= 1.0 / REPS + 1e-12
    assert empirical_pvalue(sample.max() + 1.0, t, add_one=True) == 1.0 / (REPS + 1.0)


@pytest.mark.parametrize("add_one", [False, True])
def test_empirical_pvalue_array_input_matches_scalar_calls(tables, add_one):
    t = tables["T_LR"]
    sample = np.asarray(t.null_sample)
    # ties with kept draws, values between them, and beyond both ends
    x = np.concatenate([sample[[0, 1, 500, 1999]], sample[[3, 700]] + 1e-9,
                        [sample.min() - 1.0, -5.0, sample.max() + 1.0, np.inf]])
    got = empirical_pvalue(x, t, add_one=add_one)
    want = [empirical_pvalue(float(v), t, add_one=add_one) for v in x]
    assert all(isinstance(w, float) for w in want)
    assert got.tobytes() == np.array(want).tobytes()
    assert want[0] == 1.0 and want[-1] == (1.0 / (REPS + 1.0) if add_one else 0.0)
    assert isinstance(empirical_pvalue(np.float64(x[2]), t), float)


def test_empirical_pvalue_requires_sample():
    t = calibrate_many(("T_el",), P, T, K, reps=1000, master_seed=1)["T_el"]
    with pytest.raises(MissingNullSample):
        empirical_pvalue(1.0, t)


def _closed_form(test, alpha, p, T, K):
    """The closed-form critical value of one test."""
    return resolve_criticals("closed-form", FactorModelSpec(p=p, K=K, T=T), alpha).values[test]


def test_bonferroni_el_formula():
    dof = T - K - P + 1
    assert_allclose(
        _closed_form("T_el", 0.05, P, T, K),
        f_quantile(1.0 - 2.0 * 0.05 / (P * (P - 1)), 1, dof),
        rtol=1e-12,
    )
    # p = 2 reduces to a single comparison
    assert_allclose(
        _closed_form("T_el", 0.05, 2, T, K),
        f_quantile(0.95, 1, T - K - 2 + 1),
        rtol=1e-12,
    )
    # alpha=0.05, p=10, dof=16 at level 1 - 0.1/90
    assert_allclose(
        _closed_form("T_el", 0.05, 10, 16 + 10 + 3 - 1, 3),
        f_quantile(1.0 - 0.1 / 90.0, 1, 16),
        rtol=1e-12,
    )


def test_bonferroni_el_monotone_in_p():
    # larger p, fixed dof: critical value grows
    dof = 20
    values = [
        _closed_form("T_el", 0.05, p, dof + p + K - 1, K) for p in (2, 5, 10, 30)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bonferroni_pr_formula():
    assert_allclose(
        _closed_form("T_pr", 0.05, 20, 104, 1),
        f_quantile(1.0 - 0.05 / 20.0, 19, 84),
        rtol=1e-12,
    )
    assert_allclose(
        _closed_form("T_pr", 0.05, 2, T, K),
        f_quantile(1.0 - 0.025, 1, T - K - 1),
        rtol=1e-12,
    )


def test_lr_chi2_critical():
    assert_allclose(_closed_form("T_LR", 0.05, 2, T, K), chi2_quantile(0.95, 1), rtol=1e-12)
    assert_allclose(
        _closed_form("T_LR", 0.05, 20, 104, 1), chi2_quantile(0.95, 190), rtol=1e-12
    )
    values = [_closed_form("T_LR", a, 5, T, K) for a in (0.1, 0.05, 0.01)]
    assert values[0] < values[1] < values[2]


def test_bonferroni_dominates_calibrated(tables):
    # conservatism: closed-form criticals sit above the calibrated ones
    assert _closed_form("T_el", 0.05, P, T, K) >= tables["T_el"].critical_value(0.05) - 0.2
    assert _closed_form("T_pr", 0.05, P, T, K) >= tables["T_pr"].critical_value(0.05) - 0.05


def test_ks_statistic_basics():
    sample = np.sort(np.random.default_rng(5).uniform(size=10_000))
    d = ks_statistic(sample, lambda x: x)
    assert d < 1.95 / math.sqrt(10_000)
    # constant sample vs uniform cdf
    const = np.full(10, 0.3)
    d_const = ks_statistic(const, lambda x: np.asarray(x))
    assert_allclose(d_const, 0.7, rtol=1e-12)
    with pytest.raises(DomainError):
        ks_statistic(np.array([]), lambda x: x)
    with pytest.raises(DomainError):
        ks_statistic(np.array([2.0, 1.0]), lambda x: x)


def test_ks_two_point_sample_against_own_ecdf():
    # the empirical cdf of {-1, 1} and itself coincide as functions, so the
    # sup-norm distance is zero; checked on a grid since ks_statistic's
    # order-statistic formulas assume a continuous reference law
    sample = np.array([-1.0, 1.0])

    def ecdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < -1.0, 0.0, np.where(x < 1.0, 0.5, 1.0))

    grid = np.linspace(-3.0, 3.0, 601)
    emp = np.searchsorted(sample, grid, side="right") / sample.size
    assert np.abs(emp - ecdf(grid)).max() == 0.0
    # against a continuous law: D+ = D- = 0.25 for the uniform on [-2, 2]
    d = ks_statistic(sample, lambda x: np.clip((np.asarray(x) + 2.0) / 4.0, 0.0, 1.0))
    assert_allclose(d, 0.25, rtol=1e-12)


def test_table_json_roundtrip(tmp_path, tables):
    path = tmp_path / "tables.json"
    save_tables_json([tables["T_el"], tables["T_LR"]], path)
    loaded = load_tables_json(path)
    assert [t.statistic for t in loaded] == ["T_el", "T_LR"]
    for orig, back in zip((tables["T_el"], tables["T_LR"]), loaded):
        assert back.alphas == orig.alphas
        assert back.critical_values == orig.critical_values
        assert back.master_seed == orig.master_seed
        assert back.reps == orig.reps
        assert_allclose(np.asarray(back.null_sample), np.asarray(orig.null_sample))
    payload = json.loads(path.read_text())
    assert payload["schema"] == "factorlens/1"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: s[::-1],  # descending: p-values would read the wrong tail
        lambda s: s[:500],  # fewer draws than reps claims
        lambda s: [s, s],  # not 1-D
        lambda s: s[:-1] + [float("inf")],
    ],
    ids=["descending", "short", "2-D", "non-finite"],
)
def test_table_json_rejects_a_bad_null_sample(tmp_path, tables, corrupt):
    doc = tables["T_el"].to_json_dict()
    doc["null_sample"] = corrupt(doc["null_sample"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "factorlens/1", "tables": [doc]}))
    with pytest.raises(DomainError, match="T_el null sample"):
        load_tables_json(path)


@pytest.mark.parametrize(
    "key, edit, error",
    [
        ("null_sample", lambda doc: doc["null_sample"][::-1], DomainError),
        ("reps", lambda doc: 999, DomainError),
        ("statistic", lambda doc: "T_XX", DomainError),
        ("alphas", lambda doc: doc["alphas"] + [0.2], BadDimension),
    ],
    ids=["descending", "reps-999", "unknown-statistic", "alphas-too-long"],
)
def test_table_json_names_the_file_in_each_refusal(tmp_path, tables, key, edit, error):
    # test --table may read several files: the refusal must say which one
    doc = tables["T_el"].to_json_dict()
    doc[key] = edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "factorlens/1", "tables": [doc]}))
    with pytest.raises(error, match="^" + re.escape(f"{path}: ")):
        load_tables_json(path)


@pytest.mark.parametrize("kept", [True, False])
def test_table_json_checks_critical_values_against_the_kept_sample(tmp_path, tables, kept):
    doc = tables["T_pr"].to_json_dict()
    doc["critical_values"][1] *= 1.0 + 1e-9  # alpha 0.05
    if not kept:
        doc["null_sample"] = None
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "factorlens/1", "tables": [doc]}))
    if kept:
        with pytest.raises(ParseError, match=r"bad\.json: T_pr critical value .* alpha=0\.05 "):
            load_tables_json(path)
    else:  # nothing to check against: loads as stored
        assert load_tables_json(path)[0].critical_values == tuple(doc["critical_values"])


def test_table_json_names_the_first_alpha_whose_critical_value_is_off(tmp_path, tables):
    doc = tables["T_el"].to_json_dict()
    for i in (1, 2):  # alphas 0.05 and 0.01, 1e-9 relative apart from the quantile
        doc["critical_values"][i] *= 1.0 + 1e-9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "factorlens/1", "tables": [doc]}))
    stored = doc["critical_values"][1]
    message = (f"{path}: T_el critical value {stored!r} at alpha=0.05 "
               "is not the 1 - alpha quantile of the table's null sample")
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        load_tables_json(path)


@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("index, alpha", [(2, -0.5), (0, 1.5), (0, float("nan"))])
def test_table_json_refuses_an_alpha_outside_the_unit_interval(tmp_path, tables, kept, index, alpha):
    # the edited alpha keeps its place in the order, so only its range is wrong
    doc = tables["T_pr"].to_json_dict()
    doc["alphas"][index] = alpha
    if not kept:
        doc["null_sample"] = None
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "factorlens/1", "tables": [doc]}))
    with pytest.raises(ParseError, match=r"bad\.json: T_pr alphas must lie in \(0, 1\)"):
        load_tables_json(path)


@pytest.mark.parametrize("reps", [1000, 1001, 1999])
def test_calibrated_tables_load_at_every_alpha(tmp_path, reps):
    # default and edge alphas, and statistics that can be zero or negative
    fresh = calibrate_many(
        STATISTICS, 4, 30, 1, alphas=(0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 1e-4),
        reps=reps, master_seed=3, keep_null_sample=True,
    )
    path = tmp_path / "tables.json"
    save_tables_json(fresh.values(), path)
    for back in load_tables_json(path):
        assert back.critical_values == fresh[back.statistic].critical_values


def test_table_csv_export(tmp_path, tables):
    path = tmp_path / "tables.csv"
    tables_to_csv([tables["T_pr"]], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "statistic,p,T,K,alpha,critical_value"
    assert len(lines) == 1 + len(tables["T_pr"].alphas)
    first = lines[1].split(",")
    assert first[0] == "T_pr" and int(first[1]) == P


def test_table_rejects_inconsistent_fields():
    with pytest.raises(DomainError):
        CriticalValueTable(
            statistic="T_el",
            p=P,
            T=T,
            K=K,
            demeaned=False,
            reps=2000,
            master_seed=0,
            alphas=(0.1, 0.05),
            critical_values=(1.0, 0.5),  # increasing in 1-alpha order -> invalid
        )


def test_table_leaves_the_callers_sample_writeable():
    sample = np.linspace(0.0, 1.0, 1000)
    table = CriticalValueTable(
        statistic="T_el",
        p=P,
        T=T,
        K=K,
        demeaned=False,
        reps=1000,
        master_seed=0,
        alphas=(0.05,),
        critical_values=(0.95,),
        null_sample=sample,
    )
    assert sample.flags.writeable
    assert np.array_equal(sample, np.linspace(0.0, 1.0, 1000))
    assert not table.null_sample.flags.writeable
    assert np.array_equal(table.null_sample, sample)
