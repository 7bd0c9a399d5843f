"""batch_subset_test against a plain loop of run_tests over subset panels."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factorlens import SeedSpec, batch_subset_test, ingest_csv, run_tests
from factorlens import report
from factorlens.calibrate import READERS
from factorlens.cli import main
from factorlens.errors import NotPositiveDefinite, Singular
from factorlens.panel import ReturnsPanel
from factorlens.report import TESTS
from conftest import halve_v_of, record_v_addresses


def _panel(p, K, T, demean, seed=11, duplicate=None) -> ReturnsPanel:
    """Factor model with noise; duplicate=(i, j) makes asset j a copy of asset i."""
    rng = np.random.default_rng(seed)
    F = rng.normal(0.0, 1.0, (K, T))
    X = rng.normal(0.0, 1.0, (p, K)) @ F + rng.normal(0.0, 1.0, (p, T))
    if duplicate is not None:
        X[duplicate[1]] = X[duplicate[0]]
    return ReturnsPanel(
        labels=tuple(f"c{i}" for i in range(p + K)),
        times=tuple(str(t) for t in range(T)),
        values=np.vstack([X, F]).T,
        asset_columns=tuple(range(p)),
        factor_columns=tuple(range(p, p + K)),
        demean=demean,
    )


def _subsets(p, subset_size, num_subsets, seed):
    return [
        np.sort(SeedSpec(seed, i).generator().choice(p, size=subset_size, replace=False))
        for i in range(num_subsets)
    ]


def _record_decisions(monkeypatch):
    """Capture the statistics of each kernel batch_subset_test decides on, and the result."""
    calls = []
    decide = report._decide

    def recording(criticals, kernel):
        decided = decide(criticals, kernel)
        observed = {name: read(kernel) for name, read in READERS.items()}
        calls.append((observed, kernel.ln_t_lr_star, decided))
        return decided

    monkeypatch.setattr(report, "_decide", recording)
    return calls


# (source, demeaned, K, p, T, subset_size, num_subsets); the last three
# rows sit on the boundary subset_size + K = T_eff - 1, where dof_n = 2
CASES = [
    ("closed-form", True, 2, 12, 80, 6, 40),
    ("closed-form", False, 0, 10, 60, 5, 40),
    ("calibrated", False, 0, 10, 60, 5, 40),
    ("calibrated", True, 2, 9, 70, 4, 40),
    ("highdim", True, 1, 12, 60, 8, 30),
    ("highdim", False, 0, 14, 40, 10, 30),
    ("closed-form", True, 1, 28, 30, 27, 20),
    ("calibrated", True, 1, 28, 30, 27, 20),
    ("highdim", False, 2, 29, 32, 29, 3),
]


@pytest.mark.parametrize("source, demeaned, K, p, T, subset_size, num_subsets", CASES)
def test_batch_matches_per_subset_run_tests(
    monkeypatch, source, demeaned, K, p, T, subset_size, num_subsets
):
    panel = _panel(p, K, T, demeaned, seed=p + 10 * K + T)
    calib = {"calibration_reps": 1000, "calibration_seed": 4}
    # the last case sits at boundary slack d = 1 on purpose, where highdim warns
    low_slack = source == "highdim" and T - demeaned - K - subset_size < 4

    def slack_warning():
        if low_slack:
            return pytest.warns(UserWarning, match="boundary slack d=")
        return contextlib.nullcontext()

    calls = _record_decisions(monkeypatch)
    with slack_warning():
        summary = batch_subset_test(
            panel, subset_size, num_subsets, critical_source=source, subset_seed=9, **calib
        )
    monkeypatch.undo()
    tables = None
    if source == "calibrated":
        tables = report.resolve_criticals(
            source, report.FactorModelSpec(p=subset_size, K=K, T=T, demeaned=demeaned),
            0.05, **calib,
        ).tables
    with slack_warning():
        refs = [
            run_tests(panel.subset(idx), critical_source=source, tables=tables)
            for idx in _subsets(p, subset_size, num_subsets, 9)
        ]

    observed = {name: np.concatenate([c[0][name] for c in calls]) for name in TESTS}
    ln_star = np.concatenate([c[1] for c in calls])
    assert_allclose(observed["T_el"], [r.statistics.t_el for r in refs], rtol=1e-9)
    assert_allclose(observed["T_pr"], [r.statistics.t_pr for r in refs], rtol=1e-9)
    assert_allclose(observed["T_LR"], [r.statistics.t_lr for r in refs], rtol=1e-9)
    assert_allclose(ln_star, [r.statistics.ln_t_lr_star for r in refs], rtol=1e-9)

    for name in TESTS:
        got = np.concatenate([c[2][name][1] for c in calls])
        want = np.array([r.tests[name].p_value for r in refs])
        if source == "calibrated":
            sample = tables[name].null_sample
            for k in np.flatnonzero(got != want):
                stat = refs[k].tests[name].statistic_value
                assert np.min(np.abs(sample - stat)) <= 1e-9 * abs(stat), (name, k)
        else:
            # at dof_n = 2 both paths' statistics carry ~1e-11 relative rounding
            # (E[S, S] is ill-conditioned), which moves p-values by ~2e-12
            dof_n = T - demeaned - K - subset_size + 1
            assert_allclose(got, want, rtol=0.0, atol=1e-12 if dof_n > 2 else 1e-11)
        got_q = [summary.quantiles[name][key] for key in ("min", "q1", "median", "q3", "max")]
        assert got_q == np.quantile(got, [0.0, 0.25, 0.5, 0.75, 1.0]).tolist()


def test_batch_raises_singular_only_when_a_subset_holds_both_copies():
    # asset 5 copies asset 2: the stacked scatter of any subset holding both is singular
    p, subset_size, num_subsets = 8, 3, 6
    panel = _panel(p, 1, 50, True, duplicate=(2, 5))

    def holds_both(seed):
        return [{2, 5} <= set(idx.tolist()) for idx in _subsets(p, subset_size, num_subsets, seed)]

    clean = next(s for s in range(100) if not any(holds_both(s)))
    hit = next(s for s in range(100) if any(holds_both(s)))

    for idx in _subsets(p, subset_size, num_subsets, clean):
        run_tests(panel.subset(idx), critical_source="closed-form")
    summary = batch_subset_test(
        panel, subset_size, num_subsets, critical_source="closed-form", subset_seed=clean
    )
    assert all(0.0 <= summary.quantiles[t]["min"] <= 1.0 for t in TESTS)

    bad = _subsets(p, subset_size, num_subsets, hit)[holds_both(hit).index(True)]
    with pytest.raises(Singular):
        run_tests(panel.subset(bad), critical_source="closed-form")
    with pytest.raises(Singular):
        batch_subset_test(
            panel, subset_size, num_subsets, critical_source="closed-form", subset_seed=hit
        )


def test_batch_singular_names_the_subset_and_its_assets(tmp_path, capsys):
    # asset A5 copies A2: the first subset holding both stops the command
    p, T = 8, 60
    rng = np.random.default_rng(0)
    f = rng.normal(size=T)
    x = np.outer(rng.normal(size=p), f) + rng.normal(size=(p, T))
    x[5] = x[2]
    path = tmp_path / "panel.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date," + ",".join(f"A{i}" for i in range(p)) + ",MKT\n")
        for t in range(T):
            cells = [repr(float(v)) for v in x[:, t]] + [repr(float(f[t]))]
            fh.write(f"d{t}," + ",".join(cells) + "\n")
    subsets = _subsets(p, 3, 40, 1)
    first = next(i for i, idx in enumerate(subsets) if {2, 5} <= set(idx.tolist()))
    names = ", ".join(f"A{j}" for j in subsets[first])
    argv = [
        "batch-test", "--input", str(path), "--assets", ",".join(f"A{i}" for i in range(p)),
        "--factors", "MKT", "--criticals", "closed-form", "--subset-size", "3",
        "--num-subsets", "40", "--subset-seed", "1", "--out", str(tmp_path / "batch.csv"),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"factorlens: error: subset {first} (assets {names}): "
        "a stacked covariance is not positive definite"
    )
    panel = ingest_csv(path, [f"A{i}" for i in range(p)], ["MKT"])
    with pytest.raises(Singular) as exc:
        batch_subset_test(panel, 3, 40, critical_source="closed-form", subset_seed=1)
    assert exc.value.index == first
    assert f"(assets {names})" in str(exc.value)


def test_batch_in_chunks_of_4_equals_one_chunk_through_one_workspace(monkeypatch):
    # 10 = 4 + 4 + 2 subsets: the last chunk uses the workspace's first rows
    panel = _panel(8, 1, 60, True)
    whole = batch_subset_test(panel, 3, 10, critical_source="closed-form", subset_seed=5)
    monkeypatch.setattr(report, "default_chunk", lambda p: 4)
    addresses = record_v_addresses(monkeypatch)
    chunked = batch_subset_test(panel, 3, 10, critical_source="closed-form", subset_seed=5)
    assert len(addresses) == 3 and len(set(addresses)) == 1
    assert chunked.quantiles == whole.quantiles


def test_batch_chunks_bound_memory():
    # unchunked, 5000 subsets of 40 hold about 375 MB of kernel arrays
    panel = _panel(60, 1, 120, True)
    tracemalloc.start()
    try:
        batch_subset_test(panel, 40, 5000, critical_source="closed-form")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_batch_refusal_of_v_names_a_subset_past_the_first_chunk(monkeypatch):
    # chunks of 4 subsets: subset 6 is the second chunk's row 2
    monkeypatch.setattr(report, "default_chunk", lambda p: 4)
    halve_v_of(monkeypatch, 6)
    panel = _panel(8, 1, 60, True)
    names = ", ".join(f"c{j}" for j in _subsets(8, 3, 10, 5)[6])
    with pytest.raises(NotPositiveDefinite) as exc:
        batch_subset_test(panel, 3, 10, critical_source="closed-form", subset_seed=5)
    assert exc.value.index == 6
    assert str(exc.value) == (
        f"subset 6 (assets {names}): "
        "diagonal product of V11 and its inverse fell below one in replicate 6"
    )
