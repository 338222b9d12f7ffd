"""Dense complex linear-algebra kernels for small beamforming problems.

Everything here operates on stacked channel matrices no larger than a
handful of rows. A 1x1 stack, ZF's at K=2, is inverted as its reciprocal and
a 2x2 stack, every stack of the 3-user case, in closed form with matrix axes
first, because on matrices that small a LAPACK call costs more than its
arithmetic; larger stacks take LAPACK's ``inv`` through numpy (the K=4 slot
guard in ``precoding`` calls it only past its own closed form's gate). Every
beamformer (aligning precoders, ZF beams and gains) comes from the inverse
:func:`_guarded_solve` returns, whose guard reuses it instead of an SVD, as
does every decode and rank flag, so no stia code takes an SVD.
The guard is scale free: an item whose values leave float range at its own
scale is solved again after an exact power-of-two shift. The kernels check
no input; the public entry points validate theirs once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "solve_right",
]

# Condition estimate above which a stacked channel is treated as singular.
# The guarded solves compare kappa_F = ||A||_F ||A^-1||_F, which is
# at least the spectral kappa_2, against it, so they reject every draw a
# kappa_2 guard would. Continuous fading makes exact singularity a
# probability-zero event, so the guard only catches numerically degenerate
# draws.
CONDITION_LIMIT = 1e8


class SingularMatrixError(np.linalg.LinAlgError):
    """Matrix is singular to working tolerance.

    Carries the offending guard value ``kappa_F`` so callers can decide
    whether to resample the channel draw.
    """

    def __init__(self, condition: float):
        self.condition = float(condition)
        super().__init__(f"matrix is singular to tolerance (condition estimate {self.condition:.3e})")


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _guarded_solve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A^-1`` and ``kappa_F = ||A||_F ||A^-1||_F`` of stacked square matrices.

    ``kappa_F`` lies between ``kappa_2`` and ``n kappa_2``. An item whose inverse or ``kappa_F``
    leaves float range at its own scale is shifted by a power of two, exact and without effect on
    ``kappa_F``, that brings its largest entry to [1/2, 1), and solved again. Items singular there,
    or whose inverse shifted back is past float range, are inverted as the identity and get ``inf``.
    """
    inv, cond = _inverse(a)
    redo = ~np.isfinite(cond)
    if redo.any():
        m, shift = _rescaled(a, redo)
        sub_inv, sub_cond = _inverse(m)
        sub_inv = _ldexp(sub_inv, shift)
        singular = ~(np.isfinite(sub_cond) & np.isfinite(sub_inv).all(axis=(-2, -1)))
        inv[redo] = np.where(singular[:, None, None], np.eye(a.shape[-1]), sub_inv)
        cond[redo] = np.where(singular, np.inf, sub_cond)
    return inv, cond


def _inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_guarded_solve` at the stack's own scale; ``kappa_F`` is not finite where a value leaves float range.

    A 1x1 stack takes the reciprocal and ``kappa_F = |a| |1/a|``. A 2x2 stack takes the adjugate over
    ``det A`` and ``kappa_F = ||A||_F^2 / |det A|``, entry by entry with matrix axes first: each step is
    one operation over the flattened stack, so that one matrix rounds as it does in a stack. Larger
    stacks take LAPACK's ``inv``, the solve of ``A X = I``.
    """
    if a.shape[-1] == 1:
        with np.errstate(all="ignore"):
            inv = 1 / a
            cond = abs(a[..., 0, 0]) * abs(inv[..., 0, 0])
        return inv, np.where(np.isfinite(cond), cond, np.inf)
    if a.shape[-1] == 2:
        m = a.reshape(-1, 2, 2)
        (p, q), (r, s) = m.transpose(1, 2, 0)
        with np.errstate(all="ignore"):
            det = p * s - q * r
            rdet, inv = 1 / det, np.empty(m.shape, dtype=complex)
            inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 0], inv[:, 1, 1] = s * rdet, -q * rdet, -r * rdet, p * rdet
            sq = m.real ** 2 + m.imag ** 2
            cond = (sq[:, 0, 0] + sq[:, 0, 1] + sq[:, 1, 0] + sq[:, 1, 1]) / np.abs(det)
        return inv.reshape(a.shape), np.where(np.isfinite(rdet), cond, np.inf).reshape(a.shape[:-2])
    try:
        inv = np.linalg.inv(a)
        singular = False
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(a)[0] == 0
        inv = np.linalg.inv(np.where(singular[..., None, None], np.eye(a.shape[-1]), a))
    with np.errstate(all="ignore"):  # each factor is the expression np.linalg.norm(x, axis=(-2, -1)) evaluates
        fro_a, fro_inv = (np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1))) for x in (a, inv))
        cond = fro_a * fro_inv
    return inv, np.where(singular, np.inf, cond)


def _term_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum of ``x`` over a short ``axis`` by whole slices from the left, where numpy runs one tiny loop per row.

    The order is numpy's too, except along a last axis of 8 or more terms, which numpy regroups.
    """
    axis %= x.ndim
    terms = x.transpose(axis, *range(axis), *range(axis + 1, x.ndim)) if axis else x  # np.moveaxis, without its checks
    return sum(terms[1:], terms[0])


def _rescaled(a: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a[items]``, each shifted by the power of two that brings its largest entry to [1/2, 1), and the shifts."""
    m = a[items]
    shift = -np.frexp(abs(m).max(axis=(-2, -1)))[1]
    return _ldexp(m, shift), shift


def _ldexp(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Stacked complex matrices times ``2**shift``, one power per item, exactly unless a value leaves float range."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(x).view(float), shift[:, None, None]).view(complex)


def solve_right(a, b) -> np.ndarray:
    """Solve ``A X = B`` for X once :func:`_guarded_solve` accepts ``A``.

    Raises :class:`SingularMatrixError`, carrying ``kappa_F``, when
    ``kappa_F = ||A||_F ||A^-1||_F`` of the square ``a`` exceeds
    :data:`CONDITION_LIMIT`. For well-conditioned inputs the residual
    ``||A X - B||_inf`` stays below ``1e-10 * ||B||_inf``.
    """
    am = _as_matrix(a)
    bm = _as_matrix(b)
    if am.shape[0] != am.shape[1]:
        raise ValueError("A must be square")
    if bm.shape[0] != am.shape[0]:
        raise ValueError("A and B are not conformable")
    cond = _guarded_solve(am)[1]
    if cond > CONDITION_LIMIT:
        raise SingularMatrixError(cond)
    return np.linalg.solve(am, bm)
