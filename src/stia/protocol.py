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
:func:`batch_rounds` yields effective channels from each precoded slot's
left null vector; only callers that transmit (:func:`run_stia_round`, a
batch of one, and ``verify``) form precoders, from that slot's guard inverse.
:func:`_round_bits` prices every round as ``log2 det(C + p H H^H) - log2 det C``.

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
from .precoding import IllConditionedChannelError, _accepted_null_vectors, _interferer_guard, _stia_precoders
from .precoding import build_stia_precoders  # noqa: F401  (a lookup site perfbench's tracer wraps)

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
        self.per_user = {u: np.asarray(self.per_user[u], dtype=complex).reshape(-1) for u in users}
        for u, vec in self.per_user.items():
            if vec.shape != (k - 1,):
                raise ValueError(f"user {u}: expected {k - 1} symbols, got {vec.shape[0]}")

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

    :func:`_round_bits` of the effective channel spread over the round's K
    slots. ``noise_cov`` defaults to :func:`difference_noise_covariance`;
    one that is not positive definite raises ValueError.
    """
    _require_positive("snr_linear", snr_linear)
    h = np.asarray(eff, dtype=complex)[None]
    if h.shape[1:] != (K - 1, K - 1):
        raise ValueError(f"expected an effective channel of shape {(K - 1, K - 1)}, got shape {h.shape[1:]}")
    cov = difference_noise_covariance(K) if noise_cov is None else noise_cov
    return float(_round_bits(h @ h.conj().swapaxes(-1, -2), cov, snr_linear, K)[0] / K)


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
    if ch.shape != (K, K, K - 1) or not np.all(np.isfinite(ch)):
        raise ValueError(f"expected finite channels of shape {(K, K, K - 1)}, got shape {ch.shape}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and non-negative, got {noise_std!r}")
    if noise_std and rng is None:
        raise ValueError("an rng is required when noise_std > 0")
    if snr_linear is not None:
        _require_positive("snr_linear", snr_linear)

    z, inv = _accepted_null_vectors(ch[1:])
    v = _stia_precoders(inv, z, ch[:1])[None]
    ch, z = ch[None], z[None]
    sent = symbols.stacked()[None]
    scales = _slot_scales(v, power)
    noise = noise_std * complex_normal(rng, (1, K, K)) if noise_std else None
    diffs = _differences(ch, _transmit(v, sent, scales), scales, noise)
    heff = batch_effective_channels(ch, z)
    decoded = decode_round(heff[0], np.moveaxis(diffs, 1, 2)[0])
    residual = _leakage(ch, v, diffs, sent)[0]
    users = range(1, K + 1)
    h, cov = heff[0], difference_noise_covariance(K)
    bits = None if snr_linear is None else _round_bits(h @ h.conj().swapaxes(-1, -2), cov, snr_linear, K) / K
    return StiaRoundResult(
        decoded=SymbolBlock({k: decoded[k - 1] for k in users}),
        residual_interference={k: float(residual[k - 1]) for k in users},
        per_user_rate_bits=None if bits is None else {k: float(bits[k - 1]) for k in users},
        effective_channels={k: heff[0, k - 1] for k in users},
    )


def draw_round_channels(K: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0,1) round channels of shape (count, K, K, K-1): slot, user, antenna."""
    return complex_normal(rng, (count, K, K, K - 1))


def _redraw_guarded(draw, guard, count: int):
    """Draw ``count`` items, redrawing each whose ``guard`` value exceeds :data:`CONDITION_LIMIT`.

    ``guard(items)`` returns guard values and per-item results, such as the
    null vectors or ZF gains the guard computed on the way.
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

    Returns ``(channels, effective_channels, conds, resamples)``: shapes
    (count, K, K, K-1) and (count, K, K-1, K-1), the worst interferer-stack
    ``kappa_F = ||A||_F ||A^-1||_F`` per round and the redrawn rounds.
    """

    def guard(ch):
        z, cond, _ = _interferer_guard(ch[:, 1:])
        return cond.max(axis=(1, 2)), z

    ch, z, conds, resamples = _redraw_guarded(lambda n: draw_round_channels(K, n, rng), guard, count)
    return ch, batch_effective_channels(ch, z), conds, resamples


def _slot_scales(v: np.ndarray, power: float | None) -> np.ndarray:
    """Per-slot scales (count, K): ``sqrt(power / sum_k ||V_k||_F^2)``, identity V at slot 0."""
    count, n_pre, K = v.shape[:3]
    if power is None:
        return np.ones((count, n_pre + 1))
    _require_positive("power", power)
    fro = np.sum(np.abs(v) ** 2, axis=(2, 3, 4))
    return np.sqrt(power / np.concatenate([np.full((count, 1), K * (K - 1.0)), fro], axis=1))


def _require_positive(name: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


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


def batch_effective_channels(channels: np.ndarray, null_vectors: np.ndarray) -> np.ndarray:
    """Effective channels for a batch of rounds: shape (count, K, K-1, K-1).

    Row m of round c, user k is ``h_k[ref] - h_k[m] V_k[m] = z^T H[ref] / z_k``,
    with ``z`` slot m's left null vector from ``null_vectors`` (count, K-1, K).
    """
    mixed = np.einsum("cmk,cka->cma", null_vectors, channels[:, 0])
    return mixed[:, None] / np.moveaxis(null_vectors, 1, 2)[..., None]


def _decode(heff: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve ``H_eff s = d`` for stacked effective channels (..., K-1, K-1)."""
    return np.linalg.solve(heff, d[..., None])[..., 0]


def _leakage(ch: np.ndarray, v: np.ndarray, diffs: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Worst ``|d - (h_k[ref] - h_k[m] V_k[m]) s_k|`` per round and user over the interference it recorded."""
    vs = np.einsum("cmkab,ckb->cmka", v, symbols)
    own = np.einsum("cka,cka->ck", ch[:, 0], symbols)[:, None] - np.einsum("cmka,cmka->cmk", ch[:, 1:], vs)
    leak = np.abs(diffs - own).max(axis=1)
    cross = np.abs(np.einsum("cki,cji->ckj", ch[:, 0], symbols))
    scale = cross.sum(axis=2) - np.diagonal(cross, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = leak / scale
    return np.where(scale > 0.0, rel, np.where(leak < 1e-12, 0.0, np.inf))


def _round_bits(gram: np.ndarray, cov, snr_linear: float, K: int) -> np.ndarray:
    """Bits ``log2 det(C + p G) - log2 det C`` of stacked Gram matrices G (..., K-1, K-1).

    C is the noise covariance and ``p = snr / (K (K-1))`` the per-symbol
    power: the whitened log-det ``log2 det(I + p C^-1/2 G C^-1/2)`` unwhitened.
    """
    return _log2det(cov + snr_linear / (K * (K - 1)) * gram) - _log2det(cov)


def _log2det(a) -> np.ndarray:
    """``log2 det`` of stacked Hermitian (..., m, m) matrices: the pivots' log2 summed over LDL^H.

    Matrix axes go first, so each column step runs on contiguous vectors. A non-positive pivot raises.
    """
    a = np.array(np.moveaxis(a, (-2, -1), (0, 1)), dtype=complex, order="C")
    bits = np.zeros(a.shape[2:])
    for j in range(a.shape[0]):
        d = a[j, j].real
        if not np.all(d > 0):
            raise ValueError("matrix is not positive definite")
        a[j + 1:, j + 1:] -= a[j + 1:, j, None] * (a[j, j + 1:] / d)
        bits += np.log2(d)
    return bits
