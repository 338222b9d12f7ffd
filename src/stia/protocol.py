"""The alignment round as one batched kernel, run in stages by every caller.

A round spans K slots falling in K different coherence blocks. The first
slot broadcasts every user's K-1 symbols unprecoded (the transmitter is
still blind there); each of the K-1 later slots is precoded so that every
receiver sees the same interference mixture it recorded in the first slot.
Subtracting each precoded observation from the broadcast observation
removes all inter-user interference and leaves a (K-1) x (K-1) effective
channel over the user's own symbols, which is full rank with probability
one, so the round delivers K(K-1) symbols in K slots.

Every stage below works on stacked rounds with channels of shape
(count, K, K, K-1): round, slot (broadcast slot first), user, antenna.
:func:`run_stia_round` is a batch of one through all of them; the rate
engine in ``analysis`` stops at the eigenvalues and prices them with
:func:`_round_bits`, the one aligned-rate formula :func:`round_rate` uses too.

At finite transmit power a scalar is applied per slot so the expected
transmit power equals the budget; receivers divide it back out (they know
their effective channels), which keeps the cancellation exact. Noise-free
operation (``noise_std=0``) is a first-class configuration and the oracle
path for the alignment and decoding checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import complex_normal
from .numerics import CONDITION_LIMIT, DEFAULT_RANK_TOL, _conditioning
from .precoding import IllConditionedChannelError, _stia_precoders, build_stia_precoders

__all__ = [
    "DecodeFailureError",
    "StiaRoundResult",
    "SymbolBlock",
    "batch_effective_channels",
    "batch_rounds",
    "decode_round",
    "difference_noise_covariance",
    "draw_round_channels",
    "round_rate",
    "run_stia_round",
    "whitening_matrix",
]

# Draw passes before a guarded draw gives up; continuous fading makes even
# one rejection rare, so this many in a row means the draws are degenerate.
_MAX_PASSES = 64


class DecodeFailureError(Exception):
    """The effective channel was rank deficient; the round cannot be decoded."""

    def __init__(self, condition: float):
        self.condition = float(condition)
        super().__init__(
            f"effective channel is rank deficient (condition estimate {self.condition:.3e})"
        )


@dataclass
class SymbolBlock:
    """K-1 data symbols per user for one round, keyed by user index."""

    per_user: dict[int, np.ndarray]

    def __post_init__(self):
        users = sorted(self.per_user)
        k = len(users)
        if k < 2 or users != list(range(1, k + 1)):
            raise ValueError("per_user must map users 1..K")
        for u in users:
            vec = np.asarray(self.per_user[u], dtype=complex).reshape(-1)
            if vec.shape != (k - 1,):
                raise ValueError(f"user {u}: expected {k - 1} symbols, got {vec.shape[0]}")
            self.per_user[u] = vec

    @property
    def K(self) -> int:
        return len(self.per_user)

    @classmethod
    def zeros(cls, K: int) -> "SymbolBlock":
        return cls({k: np.zeros(K - 1, dtype=complex) for k in range(1, K + 1)})

    @classmethod
    def random(cls, K: int, rng: np.random.Generator) -> "SymbolBlock":
        """Independent unit-variance CN(0,1) symbols for every user."""
        return cls({k: complex_normal(rng, K - 1) for k in range(1, K + 1)})

    def stacked(self) -> np.ndarray:
        """(K, K-1) array with user k on row k-1."""
        return np.stack([self.per_user[u] for u in sorted(self.per_user)])


@dataclass
class StiaRoundResult:
    """Outputs of one executed round; effective channels are (K-1, K-1) arrays."""

    decoded: SymbolBlock
    residual_interference: dict[int, float]
    per_user_rate_bits: dict[int, float] | None
    effective_channels: dict[int, np.ndarray] = field(default_factory=dict)


def difference_noise_covariance(K: int) -> np.ndarray:
    """Covariance of the K-1 differenced noises at unit noise variance.

    The broadcast-slot noise is common to every difference, giving 2 on
    the diagonal and 1 off it.
    """
    m = K - 1
    return np.eye(m) + np.ones((m, m))


def whitening_matrix(K: int) -> np.ndarray:
    """Inverse square root of :func:`difference_noise_covariance` at unit variance."""
    m = K - 1
    beta = (1.0 / np.sqrt(K) - 1.0) / m
    return np.eye(m) + beta * np.ones((m, m))


def _inverse_sqrt(cov: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(np.asarray(cov, dtype=complex))
    if np.any(w <= 0):
        raise ValueError("noise covariance must be positive definite")
    return (v * (w**-0.5)) @ v.conj().T


def decode_round(eff, differences) -> np.ndarray:
    """Solve ``eff @ s = differences`` for stacked (..., K-1, K-1) effective channels.

    Noise-free the solve is exact. Raises :class:`DecodeFailureError` if
    any effective channel is rank deficient (smallest singular value at
    most :data:`~stia.numerics.DEFAULT_RANK_TOL` times the largest).
    """
    mat = np.asarray(eff, dtype=complex)
    d = np.asarray(differences, dtype=complex)
    if d.shape != mat.shape[:-1]:
        raise ValueError("differences do not match the effective channel")
    s, cond = _conditioning(mat)
    if np.any(s[..., -1] <= DEFAULT_RANK_TOL * s[..., 0]):
        raise DecodeFailureError(cond.max())
    return _decode(mat, d)


def round_rate(eff, snr_linear: float, K: int, noise_cov=None) -> float:
    """Per-user achievable bits per slot of one round at a given SNR.

    Log-det of the whitened effective channel with the per-symbol power
    ``snr / (K (K-1))``, spread over the K slots the round occupies. The
    default noise covariance is :func:`difference_noise_covariance`.
    """
    if snr_linear <= 0:
        raise ValueError("snr_linear must be positive")
    w = whitening_matrix(K) if noise_cov is None else _inverse_sqrt(noise_cov)
    lam = _gram_eigenvalues(np.asarray(eff, dtype=complex)[None, None], w)
    return float(_round_bits(lam, snr_linear, K).sum() / K)


def run_stia_round(
    channels,
    symbols: SymbolBlock,
    power: float | None = None,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
    snr_linear: float | None = None,
) -> StiaRoundResult:
    """Execute one complete round on explicit per-slot channels.

    Parameters
    ----------
    channels : (K, K, K-1) array
        Axis 0 is the slot within the round (broadcast slot first), axis 1
        the user, axis 2 the transmit antenna.
    symbols : SymbolBlock
    power : float, optional
        Average transmit power budget per slot; None leaves signals
        unnormalized.
    noise_std : float
        Receiver noise standard deviation; 0 selects the noise-free oracle
        path.
    snr_linear : float, optional
        When given, per-user round rates are computed alongside decoding.

    Raises :class:`IllConditionedChannelError` if a stacked interferer
    matrix is singular to tolerance (callers resample the draw) and
    :class:`DecodeFailureError` if an effective channel is rank deficient.
    """
    ch = np.asarray(channels, dtype=complex)
    K = symbols.K
    if ch.shape != (K, K, K - 1):
        raise ValueError(f"expected channels of shape {(K, K, K - 1)}, got {ch.shape}")
    if noise_std and rng is None:
        raise ValueError("an rng is required when noise_std > 0")

    v = build_stia_precoders(ch[1:], ch[0])[None]
    ch = ch[None]
    sent = symbols.stacked()[None]
    scales = _slot_scales(v, power)
    noise = noise_std * complex_normal(rng, (1, K, K)) if noise_std else None
    diffs = _differences(ch, _transmit(v, sent, scales), scales, noise)
    heff = batch_effective_channels(ch, v)
    decoded = decode_round(heff[0], np.moveaxis(diffs, 1, 2)[0])
    residual = _leakage(ch, heff, diffs, sent)[0]
    users = range(1, K + 1)
    return StiaRoundResult(
        decoded=SymbolBlock({k: decoded[k - 1] for k in users}),
        residual_interference={k: float(residual[k - 1]) for k in users},
        per_user_rate_bits=None
        if snr_linear is None
        else {k: round_rate(heff[0, k - 1], snr_linear, K) for k in users},
        effective_channels={k: heff[0, k - 1] for k in users},
    )


def draw_round_channels(K: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0,1) round channels of shape (count, K, K, K-1): slot, user, antenna."""
    return complex_normal(rng, (count, K, K, K - 1))


def _redraw_guarded(draw, guard, count: int):
    """Draw ``count`` items, redrawing each whose ``guard`` value exceeds :data:`CONDITION_LIMIT`.

    ``guard(items)`` returns guard values and per-item results, such as the
    precoders or ZF gains the guard computed on the way.
    Raises :class:`IllConditionedChannelError` after ``_MAX_PASSES`` passes.
    """
    items = draw(count)
    conds, results = guard(items)
    pending = np.flatnonzero(conds > CONDITION_LIMIT)
    resamples = 0
    for _ in range(_MAX_PASSES - 1):
        if pending.size == 0:
            break
        resamples += int(pending.size)
        items[pending] = draw(pending.size)
        cond, sub = guard(items[pending])
        conds[pending] = cond
        results[pending] = sub
        pending = pending[cond > CONDITION_LIMIT]
    if pending.size:
        raise IllConditionedChannelError("batch", float(conds.max()))
    return items, results, conds, resamples


def batch_rounds(
    K: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Draw ``count`` rounds at once, resampling ill-conditioned draws.

    Returns ``(channels, precoders, conds, resamples)`` where channels has
    shape (count, K, K, K-1), precoders (count, K-1, K, K-1, K-1), conds is
    the worst stacked-interferer guard value ``kappa_F = ||A||_F ||A^-1||_F``
    per round and resamples counts redrawn rounds.
    """

    def guard(ch):
        v, cond = _stia_precoders(ch[:, 1:], ch[:, :1])
        return cond.max(axis=(1, 2)), v

    return _redraw_guarded(lambda n: draw_round_channels(K, n, rng), guard, count)


def _slot_scales(v: np.ndarray, power: float | None) -> np.ndarray:
    """Per-slot scales (count, K): ``sqrt(power / sum_k ||V_k||_F^2)``, identity V at slot 0."""
    count, n_pre, K = v.shape[:3]
    if power is None:
        return np.ones((count, n_pre + 1))
    if power <= 0:
        raise ValueError("power must be positive")
    fro = np.sum(np.abs(v) ** 2, axis=(2, 3, 4))
    return np.sqrt(power / np.concatenate([np.full((count, 1), K * (K - 1.0)), fro], axis=1))


def _transmit(v: np.ndarray, symbols: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Scaled transmit vectors (count, K, K-1): all symbols summed, then ``sum_k V_k s_k``."""
    x0 = symbols.sum(axis=1)
    xm = np.einsum("cmkab,ckb->cma", v, symbols)
    return np.concatenate([x0[:, None], xm], axis=1) * scales[..., None]


def _differences(ch: np.ndarray, x: np.ndarray, scales: np.ndarray, noise=None) -> np.ndarray:
    """Differences ``y[broadcast] - y[m]`` (count, K-1, K) after dividing out each slot's scale."""
    y = np.einsum("cmki,cmi->cmk", ch, x)
    if noise is not None:
        y = y + noise
    y = y / scales[..., None]
    return y[:, :1] - y[:, 1:]


def batch_effective_channels(channels: np.ndarray, precoders: np.ndarray) -> np.ndarray:
    """Effective channels for a batch of rounds: shape (count, K, K-1, K-1).

    Row m of round c, user k is ``h_k[ref] - h_k[m] V_k[m]``.
    """
    hv = np.einsum("cmki,cmkij->cmkj", channels[:, 1:], precoders)
    heff = channels[:, :1] - hv
    return np.moveaxis(heff, 1, 2)


def _decode(heff: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve ``H_eff s = d`` for stacked effective channels (..., K-1, K-1)."""
    return np.linalg.solve(heff, d[..., None])[..., 0]


def _leakage(ch: np.ndarray, heff: np.ndarray, diffs: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Worst ``|difference - H_eff s|`` per round and user over the interference it recorded."""
    own = np.einsum("ckma,cka->cmk", heff, symbols)
    leak = np.abs(diffs - own).max(axis=1)
    cross = np.abs(np.einsum("cki,cji->ckj", ch[:, 0], symbols))
    scale = cross.sum(axis=2) - np.diagonal(cross, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = leak / scale
    return np.where(scale > 0.0, rel, np.where(leak < 1e-12, 0.0, np.inf))


def _round_bits(lam: np.ndarray, snr_linear: float, K: int) -> np.ndarray:
    """Bits of each aligned symbol from its Gram eigenvalue at per-symbol power ``snr / (K (K-1))``."""
    return np.log2(1.0 + snr_linear / (K * (K - 1)) * lam)


def _gram_eigenvalues(heff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eigenvalues of the whitened Gram ``(W H)(W H)^H``, clipped at 0."""
    g = np.einsum("ab,ckbj->ckaj", w, heff)
    gram = np.einsum("ckaj,ckbj->ckab", g, g.conj())
    return np.clip(np.linalg.eigvalsh(gram), 0.0, None)
