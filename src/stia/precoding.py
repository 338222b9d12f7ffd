"""Beamformer constructions: aligning precoders and the zero-forcing baseline.

The aligning precoder for user k maps the current channels of the other
K-1 users onto their channels at an earlier reference slot. Every receiver
then observes, during the precoded slots, exactly the interference mixture
it already recorded at the reference slot, so a single subtraction cancels
all of it. With ``n_t = K - 1`` transmit antennas the stacked interferer
matrix is square and the construction is a direct solve.

Precoders are built unnormalized; power scaling is a per-slot scalar
applied by the protocol layer, which commutes with the alignment property.
"""

from __future__ import annotations

import numpy as np

from .numerics import CONDITION_LIMIT, SingularMatrixError, _guarded_solve, solve_right

__all__ = [
    "IllConditionedChannelError",
    "build_stia_precoders",
    "build_zf_precoder",
]


class IllConditionedChannelError(Exception):
    """A stacked channel matrix was singular to tolerance.

    Under continuous fading this has probability zero; callers resample the
    offending block and count the event. ``condition`` is the guard value
    ``kappa_F = ||A||_F ||A^-1||_F`` (``inf`` for an exactly singular stack).
    """

    def __init__(self, user, condition: float):
        self.user = user
        self.condition = float(condition)
        super().__init__(
            f"stacked channel for user {user} has condition estimate {self.condition:.3e}"
        )


def _stia_precoders(current: np.ndarray, outdated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aligning precoders (..., K, n_t, n_t) and interferer-stack guard values (..., K)."""
    K, n_t = current.shape[-2:]
    v = np.empty(current.shape[:-2] + (K, n_t, n_t), dtype=complex)
    cond = np.empty(current.shape[:-1])
    for k in range(K):
        rows = [j for j in range(K) if j != k]
        a = current[..., rows, :]
        b = np.broadcast_to(outdated[..., rows, :], a.shape)
        v[..., k, :, :], _, cond[..., k] = _guarded_solve(a, b)
    return v, cond


def build_stia_precoders(current, outdated, K: int | None = None) -> np.ndarray:
    """Aligning precoders for one or more slots from current and reference CSI.

    Parameters
    ----------
    current : (..., K, K-1) array
        Per-user channel rows at the slot being precoded; leading axes
        stack several precoded slots.
    outdated : (K, K-1) array
        Per-user channel rows at the reference slot.
    K : int, optional
        User count; validated against the array shapes when given.

    Returns (..., K, K-1, K-1) with user k's precoder at index k-1, so
    ``current[j] @ V[k-1] == outdated[j]`` for every interferer j != k.
    """
    cur = np.asarray(current, dtype=complex)
    out = np.asarray(outdated, dtype=complex)
    if out.ndim != 2 or cur.ndim < 2:
        raise ValueError("expected (K, n_t) channel arrays")
    if cur.shape[-2:] != out.shape:
        raise ValueError("current and outdated CSI must have identical shapes")
    k_users, n_t = out.shape
    if K is not None and K != k_users:
        raise ValueError(f"K={K} does not match channel arrays with {k_users} users")
    if n_t != k_users - 1:
        raise ValueError("the square construction needs n_t == K - 1 antennas")
    if not (np.all(np.isfinite(cur)) and np.all(np.isfinite(out))):
        raise ValueError("channel entries must be finite")
    v, cond = _stia_precoders(cur, out)
    worst = cond.reshape(-1, k_users).max(axis=0)
    if worst.max() > CONDITION_LIMIT:
        raise IllConditionedChannelError(int(np.argmax(worst > CONDITION_LIMIT)) + 1, worst.max())
    return v


def _zf_gains(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZF gains ``1 / ||column i of h^-1||^2`` of stacked served channels, ``h^-1`` and its guard value."""
    _, inv, cond = _guarded_solve(h)
    return 1.0 / np.sum(np.abs(inv) ** 2, axis=-2), inv, cond


def build_zf_precoder(current, served_users) -> np.ndarray:
    """Zero-forcing precoder for ``n_t`` served users with current CSI.

    Column i of the result has unit norm and is orthogonal to the channel
    of every served user except ``served_users[i]``.
    """
    cur = np.asarray(current, dtype=complex)
    if cur.ndim != 2:
        raise ValueError("expected a (K, n_t) channel array")
    k_users, n_t = cur.shape
    served = list(served_users)
    if len(served) != n_t or len(set(served)) != n_t:
        raise ValueError(f"served_users must be {n_t} distinct users")
    if not all(1 <= u <= k_users for u in served):
        raise ValueError(f"served users must lie in 1..{k_users}")
    h = cur[[u - 1 for u in served]]
    try:
        w = solve_right(h, np.eye(n_t, dtype=complex))
    except SingularMatrixError as err:
        raise IllConditionedChannelError(tuple(served), err.condition) from err
    return w / np.linalg.norm(w, axis=0, keepdims=True)
