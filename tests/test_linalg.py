import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factorlens import cholesky, invert_spd
from factorlens.errors import NotPositiveDefinite
from conftest import rand_spd


def test_cholesky_identity():
    assert_allclose(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_hand_example():
    # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]
    L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert_allclose(L, np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]]), rtol=1e-14)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1


def test_cholesky_rejects_tiny_pivot():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([1.0, 1e-14]))


def test_cholesky_reconstructs(rng):
    for _ in range(20):
        m = rand_spd(rng, int(rng.integers(1, 12)))
        L = cholesky(m)
        assert np.array_equal(L, np.tril(L))
        err = np.abs(L @ L.T - m).max()
        assert err <= 1e-10 * np.abs(m).max()


def test_log_det_examples():
    # ln det m = 2 * sum ln diag L, as the statistics kernel takes it
    def log_det(m):
        return 2.0 * float(np.sum(np.log(np.diagonal(cholesky(m)))))

    assert log_det(np.eye(5)) == 0.0
    assert_allclose(log_det(np.array([[2.0, 1.0], [1.0, 2.0]])), math.log(3.0))
    assert_allclose(log_det(np.diag([2.0, 3.0])), math.log(6.0))


def test_invert_identity():
    assert_allclose(invert_spd(np.eye(4)), np.eye(4))


def test_invert_2x2_closed_form():
    inv = invert_spd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    assert_allclose(inv, expected, rtol=1e-14)


def test_invert_diagonal():
    d = np.array([2.0, 5.0, 0.25])
    assert_allclose(invert_spd(np.diag(d)), np.diag(1.0 / d), rtol=1e-14)


def test_invert_roundtrip_and_logdet(rng):
    # invert twice returns the original; log dets of m and inv(m) cancel
    for _ in range(100):
        m = rand_spd(rng, int(rng.integers(1, 10)))
        inv = invert_spd(m)
        assert np.array_equal(inv, inv.T)
        back = invert_spd(inv)
        assert_allclose(back, m, rtol=1e-8, atol=1e-10)
        assert abs(np.linalg.slogdet(m)[1] + np.linalg.slogdet(inv)[1]) <= 1e-8
        assert_allclose(m @ inv, np.eye(len(m)), rtol=1e-9, atol=1e-9)


def test_principal_block_of_spd_is_spd(rng):
    for _ in range(20):
        m = rand_spd(rng, 7)
        cholesky(m[:4, :4])  # must not raise
