"""Dense complex linear-algebra kernels for small beamforming problems.

Everything here operates on stacked channel matrices no larger than a
handful of rows, so direct LAPACK factorizations through numpy are used
throughout. Every beamformer (aligning precoders, ZF beams and gains,
:func:`solve_right`) comes from the inverse :func:`_guarded_solve` returns,
and its guard reuses that inverse instead of an SVD; singular values are
computed only where a caller reports rank or the spectral condition number.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CONDITION_LIMIT",
    "DEFAULT_RANK_TOL",
    "SingularMatrixError",
    "condition_estimate",
    "solve_right",
]

# Numerical rank cutoff relative to the largest singular value.
DEFAULT_RANK_TOL = 1e-9

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


def _conditioning(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of stacked matrices and ``s_max / s_min``, ``inf`` where singular."""
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[..., 0] / s[..., -1]
    return s, np.where(np.isfinite(cond), cond, np.inf)


def _guarded_solve(a: np.ndarray, b: np.ndarray | None = None):
    """``A^-1 B``, ``A^-1`` and ``kappa_F = ||A||_F ||A^-1||_F`` of stacked square matrices.

    ``kappa_F`` lies between ``kappa_2`` and ``n kappa_2``. Exactly singular
    items are solved against the identity instead and get ``inf``; with ``b``
    omitted the first result is ``A^-1``.
    """
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    singular = np.zeros(a.shape[:-2], dtype=bool)
    try:
        inv = np.linalg.solve(a, eye)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(a)[0] == 0
        a = np.where(singular[..., None, None], eye, a)
        inv = np.linalg.solve(a, eye)
    x = inv if b is None else np.linalg.solve(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    return x, inv, np.where(np.isfinite(cond) & ~singular, cond, np.inf)


def condition_estimate(a) -> float:
    """Ratio of largest to smallest singular value; ``inf`` if singular."""
    m = _as_matrix(a)
    if m.size == 0:
        return float("inf")
    return float(_conditioning(m)[1])


def solve_right(a, b) -> np.ndarray:
    """Solve ``A X = B`` for X by the guarded solve.

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
    x, _, cond = _guarded_solve(am, bm)
    if cond > CONDITION_LIMIT:
        raise SingularMatrixError(cond)
    return x
