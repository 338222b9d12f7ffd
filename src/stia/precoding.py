"""Beamformer constructions: aligning precoders and the zero-forcing baseline.

The aligning precoder for user k maps the current channels of the other
K-1 users onto their channels at an earlier reference slot. Every receiver
then observes, during the precoded slots, exactly the interference mixture
it already recorded at the reference slot, so a single subtraction cancels
all of it. With ``n_t = K - 1`` transmit antennas every interferer stack is
square, and one inverse per slot, of the stack of users 1..K-1, gives all K.

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


def _interferer_guard(current: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Null vectors ``z = (c, -1)`` (..., K), each user's kappa_F and ``A^-1`` of slot channels (..., K, K-1).

    ``c = h_K A^-1`` for ``A`` the stack of users 1..K-1, which is user K's stack. User k's is ``A``
    with row k set to ``h_K`` (row order keeps Frobenius norms), inverted by the rank-one update
    ``A^-1 - A^-1 e_k (c - e_k)^T / c_k``. ``kappa_F`` is ``inf`` for a singular stack.
    """
    _, inv, cond_ref = _guarded_solve(current[..., :-1, :])
    c = np.einsum("...i,...ij->...j", current[..., -1, :], inv)
    rows = np.sum(np.abs(current) ** 2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = (c[..., None, :] - np.eye(c.shape[-1])) / c[..., :, None]  # row k: (c - e_k) / c_k
        inv_fro = [np.sum(np.abs(inv - inv[..., :, k, None] * w[..., k, None, :]) ** 2, axis=(-2, -1))
                   for k in range(c.shape[-1])]
        cond = np.sqrt((rows.sum(axis=-1, keepdims=True) - rows[..., :-1]) * np.stack(inv_fro, axis=-1))
    cond = np.where(np.isfinite(cond) & np.isfinite(cond_ref)[..., None], cond, np.inf)
    z = np.concatenate([c, np.full(c[..., :1].shape, -1.0)], axis=-1)
    return z, np.concatenate([cond, cond_ref[..., None]], axis=-1), inv


def _stia_precoders(inv: np.ndarray, z: np.ndarray, outdated: np.ndarray) -> np.ndarray:
    """Aligning precoders (..., K, K-1, K-1) from a slot's guard inverse ``A^-1`` and ``z = (c, -1)``.

    ``V_K = A^-1 B`` for B the reference rows of users 1..K-1; for k < K, ``V_k = V_K - A^-1 e_k m / c_k``
    with ``m = z^T H_ref``, so rows j < K but k keep ``h_j V_K = b_j`` and ``h_K = c A`` meets ``b_K``.
    """
    v_last = inv @ outdated[..., :-1, :]
    mix = (z[..., None, :] @ outdated) / z[..., :-1, None]  # row k: m / c_k
    v = np.empty(v_last.shape[:-2] + z.shape[-1:] + v_last.shape[-2:], dtype=complex)
    v[..., -1, :, :] = v_last
    for k in range(z.shape[-1] - 1):
        v[..., k, :, :] = v_last - inv[..., :, k, None] * mix[..., k, None, :]
    return v


def _accepted_null_vectors(current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_interferer_guard`'s ``z`` and ``A^-1``; raises IllConditionedChannelError past the limit."""
    z, cond, inv = _interferer_guard(current)
    worst = cond.reshape(-1, current.shape[-2]).max(axis=0)
    if worst.max() > CONDITION_LIMIT:
        raise IllConditionedChannelError(int(np.argmax(worst > CONDITION_LIMIT)) + 1, worst.max())
    return z, inv


def build_stia_precoders(current, outdated) -> np.ndarray:
    """Aligning precoders for one or more slots from current and reference CSI.

    Parameters
    ----------
    current : (..., K, K-1) array
        Per-user channel rows at the slot being precoded; leading axes
        stack several precoded slots.
    outdated : (K, K-1) array
        Per-user channel rows at the reference slot.

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
    if n_t != k_users - 1:
        raise ValueError("the square construction needs n_t == K - 1 antennas")
    if not (np.all(np.isfinite(cur)) and np.all(np.isfinite(out))):
        raise ValueError("channel entries must be finite")
    z, inv = _accepted_null_vectors(cur)
    return _stia_precoders(inv, z, out)


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
