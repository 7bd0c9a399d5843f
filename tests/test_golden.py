"""Golden outputs recorded from the engine, the power study and the data path.

The hashes are SHA-256 digests of the little-endian float64 bytes of each
output array; they pin the calibration engine's null samples, the
power-study rates, generated s2 and s3 datasets with their statistics, and
stats_from_precision bit for bit. Child processes on one and on two BLAS
threads recompute the s2, s3 and stats_from_precision digests, s2's
structure at p = 200, null samples at p = 200, and the statistics and a
batch-test summary of a p = 150 panel, which must match in both.
The data-path statistics of hand-built panels are pinned to a relative
tolerance, since refactors of the linear algebra may move the last digits.
The test and batch-test outputs are pinned as SHA-256 digests of the text
written: the report JSON as the CLI writes it, and the batch CSV, whose
p-values print at 10 digits. Regenerate a value only for a deliberate
change of the law or the substream layout, and say so where the change is
recorded.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import factorlens as fl
from factorlens.powersim import ScenarioConfig, run_power_study
from factorlens.report import resolve_criticals

ALL_STATISTICS = (
    "T_el", "T_pr", "T_LR", "ln_T_LR_star", "T_LR_standardized", "T_ij_21", "T_j_1"
)


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


# Statistics that read the precision block V.
NULL_SAMPLE_HASHES = {
    (6, 40, 2, False): {
        "T_el": "d2df5e7ef292d99d2abc54432568c0b58dd4c269fa2cee5f65f066bdce2c09af",
        "T_pr": "94f85a993f9ef72fb5352a717aeb4fcde242c6948717166385253f4e6fe6c2c0",
        "T_ij_21": "c704b8e094a5966858b9e4d04ceb26e91b45dc252feb7496f681e5f3f2e923e5",
        "T_j_1": "310d12367967be9f565cc489fdb470d727302413642de6f206c02ed93bd107cb",
    },
    # boundary: p + K = T_eff - 1, the largest p the model allows (dof_n = 2)
    (2, 5, 2, False): {
        "T_el": "d62eef581567da97dd8facab9aff8a3d10cfc602d519270923d2d73169cc40b1",
        "T_pr": "69fea282deee642dd5baef957b84890d15259dc1b1f8fbeaac78dc1bf44b2313",
        "T_ij_21": "d62eef581567da97dd8facab9aff8a3d10cfc602d519270923d2d73169cc40b1",
        "T_j_1": "a749020fbb9ada4bcc413ae5149779459144fbe3813cd59aff5156e70c74f6e8",
    },
    (4, 30, 1, True): {
        "T_el": "ace2749f88ebac36c96387077ba473b90a5f9986c5a3b3a7fca617e6f55dab96",
        "T_pr": "b9b2e59ed6c2532867fbf30409ee1bf3ea952c46b47a85236c3056c798417d71",
        "T_ij_21": "3d47b6bbfc54a3311c707a72117a5f2b81369f7fdf4e8b2dcea4861c9122ffd2",
        "T_j_1": "d7ebcf25f54d7d91e49f8fff24aa5eb54670b9d293c18a4fd7cc608b5f2bdd00",
    },
}

# The likelihood-ratio family reads diag E and ln det E only, never V, so
# these must not move when the way V is computed changes.
LIKELIHOOD_RATIO_HASHES = {
    (6, 40, 2, False): {
        "T_LR": "4c1076137583d531de36905a2f9ea486d307940899266339ca399367edac39e1",
        "ln_T_LR_star": "275d8da3e76643b7c458580aeeacea623d3cce12725118e3df63094521843cb6",
        "T_LR_standardized": "856addbbb097813ad9d52403ce0270d41b731c5220ddc6f3e18d21d33172e5da",
    },
    (2, 5, 2, False): {
        "T_LR": "94539bf33565c49e547a4e975582cb667d96fd575d8bb3c302f0a6f126e63de2",
        "ln_T_LR_star": "5befefd4aa10ec0711836a0a0cc3cd65208a8284d864d32ea144ce80bd2ff9f3",
        "T_LR_standardized": "3128ce2501d5219b65edc5a0887638e38f6efa5a9a625d04faec908bc48fa5a1",
    },
    (4, 30, 1, True): {
        "T_LR": "008b2b0e59fab1ee559ba3e80d68b18363ab8e45d391fde56bb88f7ccc2fd845",
        "ln_T_LR_star": "399bda582231b7d87af65adab2d628499821ad145a8af36a9be196eb9825458e",
        "T_LR_standardized": "a4502a21934e02a5ff72c7278aff7a1c9c52fe8bef71b8430d5bbc3ebe73d789",
    },
}


@pytest.mark.parametrize("setting", sorted(NULL_SAMPLE_HASHES))
def test_golden_null_samples(setting):
    p, T, K, demeaned = setting
    out = fl.simulate_null_statistics(
        ALL_STATISTICS, p, T, K, reps=300, master_seed=11, demeaned=demeaned
    )
    assert {s: _sha(out[s]) for s in ALL_STATISTICS} == {
        **NULL_SAMPLE_HASHES[setting], **LIKELIHOOD_RATIO_HASHES[setting]
    }


def test_golden_power_rates_s1_closed_form():
    cfg = ScenarioConfig("s1", p=4, K=2, T=30, reps=60, master_seed=5)
    criticals = resolve_criticals("closed-form", cfg.model, cfg.alpha)
    curve = run_power_study(cfg, (-0.5, 0.0, 0.5), criticals)
    assert {t: _sha(r) for t, r in curve.rates.items()} == {
        "T_el": "09856728937e9c895bcbaf5b21a49eb41f0141ae83bf7e9ef70dd5332b02e926",
        "T_pr": "ab478eefaaf3db61fb28301932f199812ef721bbac3b97c686974925d9bb9e67",
        "T_LR": "e3aefc8e829a12cc50ef8691f89e041873ad75535acc3301008d656b1c49f50d",
    }


def test_golden_power_rates_s4_calibrated():
    cfg = ScenarioConfig("s4", p=3, K=1, T=25, reps=60, master_seed=6)
    tables = fl.calibrate_many(
        ("T_el", "T_pr", "T_LR"), 3, 25, 1, alphas=(0.05,), reps=1000, master_seed=8
    )
    criticals = resolve_criticals("calibrated", cfg.model, cfg.alpha, tables=tables)
    curve = run_power_study(cfg, (0, 2), criticals)
    assert {t: _sha(r) for t, r in curve.rates.items()} == {
        "T_el": "d7dee936ca91cce5242cc51a8312690ea5755850b14943a02b4c157653342c77",
        "T_pr": "e706caf4ac6d6e647dc9ebec3e8b1e1d3de41241c4fbda4bb2a6c2e2f16cb2f7",
        "T_LR": "a2184c59bc6152b81b9e4b9f63ff34e811b5274bda7397e14452059257a382a0",
    }


# (seed, p, K, T, demeaned) -> (t_el, t_el_argmax, t_pr, t_pr_argmax, ln_t_lr_star, t_lr)
DATA_PATH_VALUES = {
    (1, 5, 2, 40, False): (17.397418478986104, (2, 1), 7.756958053780803, 2,
                           19.99179789492338, 35.485441263489),
    (2, 8, 3, 60, True): (15.598816738812179, (2, 1), 4.135605778072181, 1,
                          27.711912042939243, 49.317809567942724),
    (3, 3, 0, 12, False): (15.342484409209659, (2, 1), 8.282709366606548, 1,
                           5.899387375956948, 9.99618416481594),
    # boundary: p + K = T_eff - 1
    (4, 2, 2, 6, True): (1.3850873671940367, (2, 1), 1.385087367194037, 1,
                         1.3155813389321336, 0.7893488033592801),
    (5, 12, 1, 30, True): (7.3817704839021845, (4, 2), 2.2493326408324474, 4,
                           37.268900939590935, 59.54456586900161),
}


@pytest.mark.parametrize("setting", sorted(DATA_PATH_VALUES))
def test_golden_data_path_statistics(setting):
    seed, p, K, T, demeaned = setting
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((K, T))
    X = rng.uniform(-1, 1, (p, K)) @ F + rng.standard_normal((p, T)) + 0.3
    X[1] += 0.4 * X[0]
    s = fl.compute_all(fl.precision_stats_from_data(X, F if K else None, demeaned=demeaned))
    t_el, el_arg, t_pr, pr_arg, ln_star, t_lr = DATA_PATH_VALUES[setting]
    assert s.t_el_argmax == el_arg and s.t_pr_argmax == pr_arg
    assert_allclose(
        [s.t_el, s.t_pr, s.ln_t_lr_star, s.t_lr], [t_el, t_pr, ln_star, t_lr], rtol=1e-9
    )


def _golden_panel(p, K, T, demean, seed) -> fl.ReturnsPanel:
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((K, T))
    X = rng.uniform(-1, 1, (p, K)) @ F + rng.standard_normal((p, T)) + 0.3
    X[1] += 0.3 * X[0]
    return fl.ReturnsPanel(
        labels=tuple(f"c{i}" for i in range(p + K)),
        times=tuple(str(t) for t in range(T)),
        values=np.vstack([X, F]).T,
        asset_columns=tuple(range(p)),
        factor_columns=tuple(range(p, p + K)),
        demean=demean,
    )


# source -> digest of the report JSON at p=6, K=2, T=60, demeaned
REPORT_HASHES = {
    "calibrated": "6fbd6ef82a5685f820b6dc47cf2deba3cb834ae4efda687ee3cfc5395942738d",
    "closed-form": "dbf1f14f3bfbcc57dfce5241df1bcd678d72a9a9f4088481271e4794214e5210",
    "highdim": "b810ced9db96c19f312d63ec2838c3370073fa942575137027388ec0eca3f78e",
}


@pytest.mark.parametrize("source", sorted(REPORT_HASHES))
def test_golden_report_json(source):
    report = fl.run_tests(
        _golden_panel(6, 2, 60, True, seed=21), critical_source=source,
        calibration_reps=1000, calibration_seed=3,
    )
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_HASHES[source]


# (source, demeaned, K, p, T, subset_size, num_subsets) -> digest of the CSV.
# The calibrated boundary row has subset_size + K = T_eff - 1 (dof_n = 2);
# the highdim rows take the concentration and the boundary regime, the
# boundary one with and without demeaning (T_eff = 34, d = 23 when demeaned).
BATCH_HASHES = {
    ("calibrated", True, 1, 28, 30, 27, 20):
        "f4b68d359f3ef0529550f71bca45c1560e5e4274d427f806c4d2d5d0d662ba21",
    ("calibrated", False, 2, 10, 60, 4, 40):
        "bb7d1897783cdde06af1c127e21b827421410645716c95f434c9d58a61d6ae17",
    ("closed-form", True, 2, 12, 80, 5, 60):
        "d7e79c3123fd9919f0bb3ecc53b01987fe3d65f52a516ae3e475138581f85257",
    ("closed-form", False, 0, 10, 50, 4, 60):
        "60b4333b8113efcc216d1be59619af42cb1f058186d302f6a1a1e599c746cdac",
    ("highdim", True, 1, 14, 60, 8, 40):
        "7db3540506c3a27c9b2c57c22a2c1ee9229aaa272de289ba255ba7104d16dcf0",
    ("highdim", False, 0, 14, 35, 10, 40):
        "008a8467443900b665529840bf32db1a54e4efac69d8ccc610bdf7bb1a1597c8",
    ("highdim", True, 1, 14, 35, 10, 40):
        "bbd1e10ae38e439758222685e3bfacef4bdd37832cf419066659bc0e55664f2a",
}


@pytest.mark.parametrize(
    "source, demeaned, K, p, T, subset_size, num_subsets", sorted(BATCH_HASHES)
)
def test_golden_batch_csv(tmp_path, source, demeaned, K, p, T, subset_size, num_subsets):
    summary = fl.batch_subset_test(
        _golden_panel(p, K, T, demeaned, seed=p + K + T), subset_size, num_subsets,
        critical_source=source, calibration_reps=1000, calibration_seed=3, subset_seed=7,
    )
    path = tmp_path / "batch.csv"
    summary.to_csv(path)
    setting = (source, demeaned, K, p, T, subset_size, num_subsets)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BATCH_HASHES[setting]


def _data_path_digest(scenario: str, rho: float, draws: int = 3) -> str:
    """SHA-256 over each draw's X and its compute_all statistics, draw by draw."""
    cfg = ScenarioConfig(scenario, p=5, K=2, T=30, master_seed=9)
    h = hashlib.sha256()
    for rep in range(draws):
        X, F = fl.generate_dataset(cfg, rho, rep)
        s = fl.compute_all(fl.precision_stats_from_data(X, F))
        stats = [s.t_el, *s.t_el_argmax, s.t_pr, s.t_pr_argmax, s.ln_t_lr_star, s.t_lr]
        h.update(np.ascontiguousarray(X, dtype="<f8").tobytes())
        h.update(np.asarray(stats, dtype="<f8").tobytes())
    return h.hexdigest()


def _asymmetric_precision_digest() -> str:
    """SHA-256 of stats_from_precision on a V11 whose lower triangle is noise."""
    rng = np.random.default_rng(13)
    g = rng.standard_normal((5, 5))
    v11 = g @ g.T + 0.5 * np.eye(5)
    v11[np.tril_indices(5, -1)] = rng.uniform(-3.0, 3.0, 10)  # never read
    s = fl.stats_from_precision(v11, T=40, K=2)
    return _sha(np.concatenate([s.t_ij[0], s.t_j[0], s.ln_t_lr_star, s.t_lr, s.v[0].ravel()]))


def data_path_digests() -> dict[str, str]:
    return {
        **{f"{scenario} {rho}": _data_path_digest(scenario, rho)
           for scenario, rho in (("s2", -0.35), ("s2", 0.45), ("s3", -0.4), ("s3", 0.25))},
        "stats_from_precision": _asymmetric_precision_digest(),
    }


# s2 builds its correlation structure through invert_spd, s3 directly.
DATA_PATH_HASHES = {
    "s2 -0.35": "445e8f52057cbd9581622d07ee80a4bb4e8a8b361a93f20ba8a3003dd97d99b9",
    "s2 0.45": "0cb2452deb86ad2549074d0e7924d9aab7a6ea30112c9cf42914fbb1860951cf",
    "s3 -0.4": "83f41976899575b01934d7af4fcb01f7de51144abb0144abfe4e231a17090c5d",
    "s3 0.25": "c8a878093a5990634b1b53165cbadd76bdc579004ebc9a8e410819bdc31465f3",
    "stats_from_precision": "68384aa293e0bf2beee41fe5aab927dd51b4ebcf3b3200a50f0bca9cd470c556",
}


@pytest.mark.parametrize("name", sorted(DATA_PATH_HASHES))
def test_golden_data_path_digests(name):
    assert data_path_digests()[name] == DATA_PATH_HASHES[name]


def _wide_panel_outputs() -> dict:
    """Statistics and a batch-test summary of a 153 by 400 panel (p = 150, K = 3)."""
    panel = _golden_panel(150, 3, 400, False, seed=5)
    kernel = fl.precision_stats_from_data(*panel.data_matrices())
    summary = fl.batch_subset_test(panel, 120, 20, critical_source="closed-form", subset_seed=7)
    return {
        "statistics": [kernel.t_el[0], kernel.ln_t_lr_star[0], kernel.t_lr[0],
                       *kernel.t_j[0], *kernel.t_ij[0]],
        "batch quantiles": summary.quantiles,
    }


def cross_thread_outputs() -> dict:
    """Outputs where BLAS threads split the work: data-path digests, s2's
    structure and null samples at p = 200, and the data path at p = 150."""
    samples = fl.simulate_null_statistics(("T_el", "T_pr", "T_LR"), 200, 260, 1, reps=300,
                                          master_seed=11)
    return {
        "digests": {**data_path_digests(), "s2 structure p=200": _sha(fl.build_sigma_u("s2", 200, 0.3))},
        **{s: v.tolist() for s, v in samples.items()},
        "p=150": _wide_panel_outputs(),
    }


@pytest.fixture(scope="module")
def computed_per_thread_count() -> dict[int, dict]:
    """cross_thread_outputs() from child processes on one and on two OpenBLAS threads."""
    package_root = str(Path(fl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = "import json, test_golden; print(json.dumps(test_golden.cross_thread_outputs()))"
    out = {}
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
            capture_output=True, text=True, check=True,
        )
        out[threads] = json.loads(done.stdout)  # floats round-trip exactly through JSON
    return out


# numpy's Cholesky factorization and scipy's dsyrk split over BLAS threads at
# this p; linalg runs both on one thread, so the factor is the same on any count
S2_STRUCTURE_P200_HASH = "286789d54fd29b68b982d4bef30bc3dac1e8260a0274000404f5a9a352c4ba82"


def test_golden_data_path_digests_on_any_blas_thread_count(computed_per_thread_count):
    for threads, out in computed_per_thread_count.items():
        assert out["digests"] == {**DATA_PATH_HASHES, "s2 structure p=200": S2_STRUCTURE_P200_HASH}, (
            f"{threads} BLAS threads"
        )


def test_null_samples_at_p200_agree_across_blas_thread_counts(computed_per_thread_count):
    # the kernel's inverse runs on one BLAS thread whatever the count outside it
    one, two = computed_per_thread_count[1], computed_per_thread_count[2]
    for statistic in ("T_el", "T_pr", "T_LR"):
        assert two[statistic] == one[statistic], statistic


def test_data_path_at_p150_agrees_across_blas_thread_counts(computed_per_thread_count):
    # the stacked scatter, its Cholesky factor and batch-test's panel scatter
    # run on one BLAS thread, so the data path at large p is the same on any count
    one, two = computed_per_thread_count[1]["p=150"], computed_per_thread_count[2]["p=150"]
    assert two["statistics"] == one["statistics"]
    assert two["batch quantiles"] == one["batch quantiles"]
