"""Tests for the dense complex kernels."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stia.numerics import (
    SingularMatrixError,
    _guarded_solve,
    solve_right,
)


def _cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def test_solve_identity_returns_rhs():
    rng = np.random.default_rng(0)
    b = _cn(rng, (3, 3))
    x = solve_right(np.eye(3), b)
    np.testing.assert_allclose(x, b, rtol=0, atol=1e-14)


def test_solve_scaled_identity():
    x = solve_right(2.0 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(x, 0.5 * np.eye(2), rtol=0, atol=1e-15)


def test_solve_residual_is_its_own_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = _cn(rng, (3, 3))
        if np.linalg.cond(a) > 1e4:
            continue
        b = _cn(rng, (3, 3))
        x = solve_right(a, b)
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-10 * np.max(np.abs(b))


def test_solve_residual_bound_up_to_cond_1e6():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 200:
        a = _cn(rng, (4, 4))
        if np.linalg.cond(a) >= 1e6:
            continue
        b = _cn(rng, (4, 4))
        x = solve_right(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * np.max(np.abs(b))
        checked += 1


def test_solve_singular_raises_with_condition():
    a = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
    with pytest.raises(SingularMatrixError) as err:
        solve_right(a, np.eye(2))
    assert err.value.condition > 1e8


def test_solve_shape_validation():
    with pytest.raises(ValueError):
        solve_right(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError):
        solve_right(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        solve_right(np.array([[np.inf, 0], [0, 1]]), np.eye(2))


@pytest.mark.parametrize("call", [
    lambda: solve_right(np.ones(3), np.eye(3)),
    lambda: solve_right(np.eye(2), np.ones(2)),
], ids=["solve-1d-a", "solve-1d-b"])
def test_matrix_fronts_reject_input_that_is_not_2d(call):
    with pytest.raises(ValueError, match="expected a 2-D matrix"):
        call()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_guard_value_brackets_spectral_condition(n):
    # kappa_2 <= ||A||_F ||A^-1||_F <= n kappa_2, on random stacks and on
    # stacks pushed past the guard limit by shrinking one singular value. A
    # computed inverse carries a relative error of order n kappa_2 eps.
    rng = np.random.default_rng(10 + n)
    a = _cn(rng, (200, n, n))
    u, s, vh = np.linalg.svd(a)
    s[100:, -1] *= np.logspace(-2, -10, 100)
    a[100:] = (u[100:] * s[100:, None, :]) @ vh[100:]
    inv, cond = _guarded_solve(a)
    kappa2 = np.linalg.cond(a)
    slack = 1.0 + n * kappa2 * np.finfo(float).eps
    assert np.all(kappa2 <= cond * slack)
    assert np.all(cond <= n * kappa2 * slack)
    assert cond[100:].max() > 1e9


def test_guard_singular_item_gives_inf_without_raising():
    rng = np.random.default_rng(20)
    a = _cn(rng, (4, 3, 3))
    a[2, 1] = a[2, 0]
    inv, cond = _guarded_solve(a)
    assert cond[2] == np.inf
    assert np.all(np.isfinite(cond[[0, 1, 3]]))
    for c in (0, 1, 3):
        np.testing.assert_array_equal(inv[c], np.linalg.solve(a[c], np.eye(3)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lapack_inverse_is_the_solve_of_the_identity_bit_for_bit(n):
    # The guard takes np.linalg.inv for n >= 3; the byte pins were recorded with solve(A, I).
    a = _cn(np.random.default_rng(30 + n), (2000, n, n))
    np.testing.assert_array_equal(np.linalg.inv(a), np.linalg.solve(a, np.broadcast_to(np.eye(n), a.shape)))


@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-300.0, 300.0))
def test_guard_value_and_inverse_do_not_depend_on_scale(n, seed, exponent):
    # Past about 1e+-154 a 2x2 stack's products, and past 1e+-170 a larger stack's norms, leave
    # float range; those items are solved again after a power-of-two shift, with no warning.
    a = _cn(np.random.default_rng(seed), (n, n))
    scale = 10.0 ** exponent
    ref_inv, ref_cond = _guarded_solve(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv, cond = _guarded_solve(a * scale)
    # Rounding a * scale moves each entry by eps relatively: kappa_F and A^-1 move by about n kappa_F eps.
    tol = 8 * n * ref_cond * np.finfo(float).eps
    assert abs(cond / ref_cond - 1) <= tol
    assert np.linalg.norm(inv * scale - ref_inv) <= tol * np.linalg.norm(ref_inv)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_guard_keeps_every_bit_of_a_normal_range_stack_under_a_power_of_two(n):
    a = _cn(np.random.default_rng(40 + n), (200, n, n))
    ref_inv, ref_cond = _guarded_solve(a)
    for k in (-1000, -600, -40, 40, 600, 1000):
        inv, cond = _guarded_solve(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k))
        np.testing.assert_array_equal(cond, ref_cond)
        np.testing.assert_array_equal(np.ldexp(inv.real, k) + 1j * np.ldexp(inv.imag, k), ref_inv)


def test_guard_singular_items_stay_singular_at_every_scale():
    # A subnormal stack's inverse is past float range at any shift, so it is refused like a singular one.
    for a in (np.zeros((2, 2)), np.ones((2, 2)), np.ones((3, 3)), np.diag([1e-200, 1e200]), np.diag([1e-320] * 3)):
        inv, cond = _guarded_solve(a.astype(complex))
        assert cond == np.inf
        np.testing.assert_array_equal(inv, np.eye(len(a)))


def test_one_by_one_guard_is_the_reciprocal_with_no_lapack_call(monkeypatch):
    # ZF at K=2 guards 1x1 stacks: kappa_F = |a| |1/a| is 1 up to rounding at any normal scale, and
    # a zero or subnormal stack, whose reciprocal is past float range, is refused as singular.
    monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("np.linalg.inv was called"))
    a = _cn(np.random.default_rng(50), (200, 1, 1))
    inv, cond = _guarded_solve(a)
    np.testing.assert_array_equal(inv, 1 / a)
    np.testing.assert_allclose(cond, 1.0, rtol=4 * np.finfo(float).eps)
    for k in (-1000, -600, 600, 1000):
        scaled, scaled_cond = _guarded_solve(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k))
        np.testing.assert_array_equal(np.ldexp(scaled.real, k) + 1j * np.ldexp(scaled.imag, k), inv)
        np.testing.assert_array_equal(scaled_cond, cond)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv, cond = _guarded_solve(np.array([0.0, 1e-320, 1e300j], dtype=complex).reshape(3, 1, 1))
    np.testing.assert_array_equal(cond[:2], np.inf)
    np.testing.assert_array_equal(inv[:2], 1.0)
    assert cond[2] == pytest.approx(1.0) and inv[2, 0, 0] == pytest.approx(-1e-300j)
