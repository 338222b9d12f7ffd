"""Tests for the dense complex kernels."""

import numpy as np
import pytest

from stia.numerics import (
    SingularMatrixError,
    _guarded_solve,
    condition_estimate,
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
        if condition_estimate(a) > 1e4:
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
        if condition_estimate(a) >= 1e6:
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


def test_condition_identity_and_diagonal():
    assert condition_estimate(np.eye(4)) == pytest.approx(1.0)
    assert condition_estimate(np.diag([10.0, 0.1])) == pytest.approx(100.0)


def test_condition_matches_2x2_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = _cn(rng, (2, 2))
        fro2 = np.sum(np.abs(a) ** 2)
        det = np.linalg.det(a)
        disc = np.sqrt(max(fro2**2 - 4 * np.abs(det) ** 2, 0.0))
        s1 = np.sqrt((fro2 + disc) / 2)
        s2 = np.sqrt((fro2 - disc) / 2)
        assert condition_estimate(a) == pytest.approx(s1 / s2, rel=1e-8)


def test_condition_at_least_one_and_inf_for_singular():
    rng = np.random.default_rng(6)
    for _ in range(50):
        assert condition_estimate(_cn(rng, (3, 3))) >= 1.0
    assert condition_estimate(np.zeros((2, 2))) == np.inf
    assert condition_estimate(np.array([[1.0, 1.0], [1.0, 1.0]])) > 1e15


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
    x, inv, cond = _guarded_solve(a)
    np.testing.assert_array_equal(x, inv)
    kappa2 = np.array([condition_estimate(m) for m in a])
    slack = 1.0 + n * kappa2 * np.finfo(float).eps
    assert np.all(kappa2 <= cond * slack)
    assert np.all(cond <= n * kappa2 * slack)
    assert cond[100:].max() > 1e9


def test_guard_singular_item_gives_inf_without_raising():
    rng = np.random.default_rng(20)
    a = _cn(rng, (4, 3, 3))
    b = _cn(rng, (4, 3, 2))
    a[2, 1] = a[2, 0]
    x, inv, cond = _guarded_solve(a, b)
    assert cond[2] == np.inf
    assert np.all(np.isfinite(cond[[0, 1, 3]]))
    for c in (0, 1, 3):
        np.testing.assert_array_equal(x[c], np.linalg.solve(a[c], b[c]))
        np.testing.assert_array_equal(inv[c], np.linalg.solve(a[c], np.eye(3)))
