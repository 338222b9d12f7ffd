"""Beamformer constructions: aligning precoders and the zero-forcing gains.

The aligning precoder for user k maps the current channels of the other
K-1 users onto their channels at an earlier reference slot. Every receiver
then observes, during the precoded slots, exactly the interference mixture
it already recorded at the reference slot, so a single subtraction cancels
all of it. With ``n_t = K - 1`` transmit antennas every interferer stack is
square, and one inverse per slot, of the stack of users 1..K-1, gives all K.

Precoders are built unnormalized; power scaling is a per-slot scalar
applied by the protocol layer, which commutes with the alignment property.
No ZF precoder is formed: :func:`_zf_gains` takes the ZF gains from the
served stack's inverse, whose columns scaled to unit norm are the ZF beams.
"""

from __future__ import annotations

import numpy as np

from .numerics import CONDITION_LIMIT, _guarded_solve, _ldexp, _rescaled, _term_sum
from .numerics import solve_right  # noqa: F401  (a lookup site perfbench's tracer wraps)

__all__ = [
    "IllConditionedChannelError",
    "build_stia_precoders",
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
    ``A^-1 - A^-1 e_k (c - e_k)^T / c_k``. ``kappa_F`` is ``inf`` for a singular stack. At K=3 the
    stacks are 2x2, with ``||.||_F^2 / |det|`` as their ``kappa_F``: user k's has determinant
    ``+-c_k det A``, so it is ``(R - r_k) kappa_ref / ((r_1 + r_2) |c_k|)`` for ``r_k = ||h_k||^2``.
    """
    if current.shape[-2] == 3:  # entry by entry over the flattened stack, as _guarded_solve's 2x2 case
        cur = current.reshape(-1, 3, 2)
        inv, cond_ref = _guarded_solve(cur[:, :2])
        (i00, i01), (i10, i11) = inv.transpose(1, 2, 0)
        x0, x1 = cur[:, 2].T
        z, cond = np.empty(cur.shape[:2], dtype=complex), np.empty(cur.shape[:2])
        z[:, 0], z[:, 1], z[:, 2], cond[:, 2] = x0 * i00 + x1 * i10, x0 * i01 + x1 * i11, -1.0, cond_ref
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sq = cur.real ** 2 + cur.imag ** 2
            r1, r2, r3 = (sq[..., 0] + sq[..., 1]).T
            scale, total = cond_ref / (r1 + r2), r1 + r2 + r3
            cond[:, 0], cond[:, 1] = (total - r1) * scale / np.abs(z[:, 0]), (total - r2) * scale / np.abs(z[:, 1])
        shape, cond = current.shape[:-1], np.where(np.isfinite(cond), cond, np.inf)
        return z.reshape(shape), cond.reshape(shape), inv.reshape(shape[:-1] + (2, 2))
    inv, cond_ref = _guarded_solve(current[..., :-1, :])
    z, cond = np.empty(current.shape[:-1], dtype=complex), np.empty(current.shape[:-1])
    z[..., :-1], z[..., -1], cond[..., -1] = np.einsum("...i,...ij->...j", current[..., -1, :], inv), -1.0, cond_ref
    c = z[..., :-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = (abs(current) ** 2).sum(axis=-1)
        w = (c[..., None, :] - np.eye(c.shape[-1])) / c[..., :, None]  # row k: (c - e_k) / c_k
        for k in range(c.shape[-1]):
            cond[..., k] = (abs(inv - inv[..., :, k, None] * w[..., k, None, :]) ** 2).sum(axis=(-2, -1))
        cond[..., :-1] = np.sqrt((rows.sum(axis=-1, keepdims=True) - rows[..., :-1]) * cond[..., :-1])
    return z, np.where(np.isfinite(cond) & np.isfinite(cond_ref)[..., None], cond, np.inf), inv


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
    """:func:`_interferer_guard`'s ``z`` and ``A^-1``; raises IllConditionedChannelError past the limit.

    A slot whose guard values leave float range is guarded again after a power-of-two shift, as in
    :func:`_guarded_solve`: ``z`` and ``kappa_F`` do not depend on the scale, and ``A^-1`` is shifted
    back; a slot whose ``A^-1`` is then past float range is refused.
    """
    z, cond, inv = _interferer_guard(current)
    if not cond.max() <= CONDITION_LIMIT:
        redo = ~np.isfinite(cond).all(axis=-1)
        scaled, shift = _rescaled(current, redo)
        z[redo], sub_cond, sub_inv = _interferer_guard(scaled)
        inv[redo] = sub_inv = _ldexp(sub_inv, shift)
        cond[redo] = np.where(np.isfinite(sub_inv).all(axis=(-2, -1))[:, None], sub_cond, np.inf)
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
    inv, cond = _guarded_solve(h)
    return 1.0 / _term_sum(abs(inv) ** 2, -2), inv, cond

