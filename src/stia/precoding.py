"""Beamformer constructions: aligning precoders and the zero-forcing gains.

The aligning precoder for user k maps the current channels of the other
K-1 users onto their channels at an earlier reference slot. Every receiver
then observes, during the precoded slots, exactly the interference mixture
it already recorded at the reference slot, so a single subtraction cancels
all of it. With ``n_t = K - 1`` transmit antennas every interferer stack is
square, and one inverse per slot, of the stack of users 1..K-1, gives all K.
At K=4 the six cross products of a slot's rows give every stack's determinant
and guard value and that inverse in closed form; LAPACK inverts only the slots
past their gate, where the closed form is not accurate enough.

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
    At K=4 all of it comes from cross products, :func:`_cross_product_guard`.
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
    if current.shape[-2] == 4:
        return _cross_product_guard(current)
    return _lapack_guard(current)


# The K=4 pairs x_ij = h_i x h_j, oriented so that A^-1 = [x_23 | x_31 | x_12] / D_4: x_12, x_31, x_14, x_23,
# x_24, x_34, whose component c is h_i[c+1] h_j[c+2] - h_i[c+2] h_j[c+1], each product gathered as (h_i, h_j).
# Each user's determinant, with D_2's sign flipped, is h_i . x_jl for the rows and pairs of _DETS.
_CROSS = tuple((np.array([[0, 2, 0, 1, 1, 2], [1, 0, 3, 2, 3, 3]])[:, :, None], np.array(cols)[:, None, :])
               for cols in ([[1, 2, 0], [2, 0, 1]], [[2, 0, 1], [1, 2, 0]]))
_DETS = np.array([[1, 2, 0, 0], [9, 6, 8, 7]])  # rows of [h_1..h_4, x_12..x_34]: h_2 . x_34 = D_1, h_3 . x_14 = -D_2
# Per user k, the rows of the other three users and their three pairs, whose |.|^2 sum to ||A_k||_F^2 and
# to |D_k|^2 ||A_k^-1||_F^2.
_NORMS = np.array([[[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], [[7, 8, 9], [5, 6, 9], [4, 6, 8], [4, 5, 7]]])
# Past this kappa_F a K=4 slot takes LAPACK: the adjugate is not backward stable, its residual grows as eps kappa^2.
_CLOSED_FORM_LIMIT = 100.0
# A pair sum below this could hold an underflowed product, which no non-finite value would flag.
_TINY_SUM = np.finfo(float).tiny / np.finfo(float).eps


def _cross_product_guard(current: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_interferer_guard` at K=4 from the six cross products of rows ``h_1..h_4``, matrix axes first.

    User k's stack has determinant ``D_k = h_i . x_jl`` and ``kappa_F`` the root of the ``||h||^2`` of its
    rows times the root of the ``||x||^2`` of its pairs, over ``|D_k|``; ``c = (D_1, -D_2, D_3) / D_4``.
    An item whose ``kappa_F`` exceeds :data:`_CLOSED_FORM_LIMIT` or is not finite, or whose pair sums are
    subnormal, takes :func:`_lapack_guard`.
    """
    n = current.size // 12
    hx = np.empty((10, 3, n), dtype=complex)  # rows h_1..h_4, then the six pairs
    hx[:4] = current.reshape(n, 4, 3).transpose(1, 2, 0)
    with np.errstate(all="ignore"):  # products in place and temporaries dropped: the working set stays near 2x hx
        np.multiply(*hx[_CROSS[0]], out=hx[4:])
        t = hx[_CROSS[1]]
        hx[4:] -= np.multiply(t[0], t[1], out=t[0])
        del t
        t = hx[_DETS]
        t = np.multiply(t[0], t[1], out=t[0])
        det = t[:, 0] + t[:, 1] + t[:, 2]
        del t
        t = hx.real ** 2
        t += hx.imag ** 2
        t = (t[:, 0] + t[:, 1] + t[:, 2])[_NORMS]
        sums = t[..., 0, :] + t[..., 1, :] + t[..., 2, :]
        roots = np.sqrt(sums)
        z, cond, inv = np.empty((n, 4), dtype=complex), np.empty((n, 4)), np.empty((n, 3, 3), dtype=complex)
        np.divide(roots[0] * roots[1], abs(det), out=cond.T)
        closed = ((cond.T <= _CLOSED_FORM_LIMIT) & (sums[1] >= _TINY_SUM)).all(axis=0)
        rdet = 1 / det[3]
        np.multiply(det[:3], rdet, out=z.T[:3])
        np.multiply(hx[[7, 5, 4]], rdet, out=inv.transpose(2, 1, 0))
    z[:, 3] = -1.0
    if not closed.all():
        far = ~closed
        z[far], cond[far], inv[far] = _lapack_guard(hx[:4, :, far].transpose(2, 0, 1).copy())
    shape = current.shape[:-1]
    return z.reshape(shape), cond.reshape(shape), inv.reshape(shape[:-1] + (3, 3))


def _lapack_guard(current: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_interferer_guard` from LAPACK's ``A^-1`` and its rank-one updates, at any K."""
    inv, cond_ref = _guarded_solve(current[..., :-1, :])
    z, cond = np.empty(current.shape[:-1], dtype=complex), np.empty(current.shape[:-1])
    z[..., :-1], z[..., -1], cond[..., -1] = np.einsum("...i,...ij->...j", current[..., -1, :], inv), -1.0, cond_ref
    c = z[..., :-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = (abs(current) ** 2).sum(axis=-1)
        w = (c[..., None, :] - np.eye(c.shape[-1])) / c[..., :, None]  # row k: (c - e_k) / c_k
        for k in range(c.shape[-1]):
            t = inv - inv[..., :, k, None] * w[..., k, None, :]
            cond[..., k] = (t.real ** 2 + t.imag ** 2).sum(axis=(-2, -1))
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

