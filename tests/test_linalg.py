import ctypes
import glob
import math
import os
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

from factorlens import FactorStats, cholesky, invert_spd
from factorlens.errors import BadDimension, NotPositiveDefinite
from factorlens import linalg
from factorlens.linalg import inverse_lower, mirror_lower
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


def test_invert_spd_reads_only_the_lower_triangle(rng):
    m = rand_spd(rng, 6)
    noisy = m.copy()
    noisy[np.triu_indices(6, 1)] = rng.uniform(-5.0, 5.0, 15)
    assert np.array_equal(invert_spd(noisy), invert_spd(m))


@pytest.mark.parametrize("p", [2, 5, 40])  # the kernel takes p >= 2
def test_invert_spd_is_the_kernel_v_bitwise(rng, p):
    # one way to invert: the kernel's V of a matrix's Cholesky factor
    m = rand_spd(rng, p)
    kernel = FactorStats(cholesky(m)[None], 2 * p + 4, 0)
    assert np.array_equal(invert_spd(m), kernel.v[0])


def test_inverse_lower_of_a_stack(rng):
    # any layout of the factors: the update is written in place into V, so
    # a copy of its argument would leave V zero
    m = np.stack([rand_spd(rng, 7) for _ in range(4)])
    factors = np.linalg.cholesky(m)
    padded = np.zeros((4, 9, 9))
    padded[:, 2:, 2:] = factors
    for layout in (factors, np.asfortranarray(factors), padded[:, 2:, 2:]):
        v = inverse_lower(layout)
        assert not np.triu(v, 1).any()
        assert_allclose(np.tril(v), np.tril(np.linalg.inv(m)), rtol=1e-10, atol=1e-12)


def _address(function) -> int:
    return ctypes.cast(function, ctypes.c_void_p).value


def _capsules_pin():
    """One thread for the OpenBLAS bundled in scipy's wheel, which the capsules run; or no pin."""
    import scipy

    site = os.path.dirname(os.path.dirname(scipy.__file__))
    libs = glob.glob(os.path.join(site, "scipy.libs", "*openblas*"))
    return linalg._thread_pin(ctypes.CDLL(libs[0]) if libs else None) or linalg._UNPINNED


@pytest.mark.parametrize("p", [1, 2, 20, 100])
def test_inverse_lower_on_scipy_linalg_exports_is_the_default_route_bitwise(rng, monkeypatch, p):
    # with no bundled library in numpy the routines are the functions behind
    # scipy.linalg's Cython capsules; they run the same LAPACK on 32-bit
    # integers, and on one thread give the same bits
    capsules = linalg._routines(None)
    if linalg._OPENBLAS is not None:
        assert list(map(_address, capsules[:2])) != list(map(_address, linalg._ROUTINES[:2]))
    factors = np.linalg.cholesky(np.stack([rand_spd(rng, p) for _ in range(3)]))
    expected, empty = inverse_lower(factors), inverse_lower(np.empty((0, p, p)))
    monkeypatch.setattr(linalg, "_ROUTINES", capsules)
    with _capsules_pin():
        assert np.array_equal(inverse_lower(factors), expected)
    assert inverse_lower(np.empty((0, p, p))).shape == empty.shape == (0, p, p)


@pytest.mark.parametrize("shape", [(3, 3), (2, 1, 3), (2, 3, 2)])
def test_inverse_lower_refuses_what_is_not_a_stack_of_square_factors(shape):
    with pytest.raises(BadDimension):
        inverse_lower(np.ones(shape))


@pytest.mark.parametrize("prefix", ["scipy_", ""])
def test_routines_take_the_ilp64_exports_on_64_bit_integers(prefix):
    # numpy 2.x's bundled OpenBLAS exports scipy_dtrtri_64_ and
    # scipy_dsyrk_64_, numpy 1.x's dtrtri_64_ and dsyrk_64_; the capsules
    # take 32-bit integers
    dtrtri, dsyrk, integer = linalg._routines(None)
    assert ctypes.sizeof(integer) == 4
    lib = types.SimpleNamespace(**{prefix + "dtrtri_64_": dtrtri, prefix + "dsyrk_64_": dsyrk})
    assert linalg._routines(lib) == (dtrtri, dsyrk, ctypes.c_int64)


def test_mirror_lower_copies_the_lower_triangle():
    a = np.arange(9.0).reshape(3, 3)
    mirrored = mirror_lower(a)
    assert np.array_equal(mirrored, np.tril(a) + np.tril(a, -1).T)
    assert np.array_equal(a, np.arange(9.0).reshape(3, 3))  # a copy, a unchanged
    assert np.array_equal(mirror_lower(a[None])[0], mirrored)


def test_principal_block_of_spd_is_spd(rng):
    for _ in range(20):
        m = rand_spd(rng, 7)
        cholesky(m[:4, :4])  # must not raise
