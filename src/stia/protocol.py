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
:func:`batch_rounds` draws a batch at once and returns each precoded slot's
left null vector (``verify`` draws the same rounds and keeps each slot's guard
inverse too); every stage after a draw runs on :func:`_slices` of it, so
the working set does not grow with the batch. Callers that transmit
(:func:`run_stia_round`, a batch of one, and ``verify``) send rounds through
:func:`_send`, the one signal path, which precodes from each slot's guard inverse.
:func:`_decode` is the one decoder: of each effective channel, or through
:func:`_decode_round` of every user of a round at once from its interference :func:`_mixture`.
:func:`_round_bits` prices rounds from effective channels H as ``log2 det(C + p H H^H) - log2 det C``.

At finite transmit power a scalar is applied per slot so the expected
transmit power equals the budget; receivers divide it back out (they know
their effective channels), which keeps the cancellation exact. Noise-free
operation (``noise_std=0``) is a first-class configuration and the oracle
path for the alignment and decoding checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _is_real, _require_count, complex_normal
from .numerics import CONDITION_LIMIT, _guarded_solve, _term_sum
from .precoding import IllConditionedChannelError, _accepted_null_vectors, _interferer_guard, _stia_precoders
from .precoding import build_stia_precoders  # noqa: F401  (a lookup site perfbench's tracer wraps)

__all__ = [
    "DecodeFailureError",
    "StiaRoundResult",
    "SymbolBlock",
    "batch_effective_channels",
    "batch_rounds",
    "decode_round",
    "draw_round_channels",
    "run_stia_round",
]

# Draw passes before a guarded draw gives up; continuous fading makes even
# one rejection rare, so this many in a row means the draws are degenerate.
_MAX_PASSES = 64

# Channel bytes per slice of the batched round kernels: each temporary after a draw is
# a small multiple of one slice, and a K=3 slice still holds 1,820 rounds.
_SLICE_BYTES = 1 << 19


class DecodeFailureError(Exception):
    """An effective channel failed the condition guard; ``condition`` is its ``kappa_F``, ``inf`` if singular."""

    def __init__(self, condition: float):
        self.condition = float(condition)
        super().__init__(
            f"effective channel is rank deficient (condition estimate {self.condition:.3e})"
        )


@dataclass
class SymbolBlock:
    """K-1 data symbols per user for one round: a (K, K-1) complex array, read-only, with user k on row k-1."""

    symbols: np.ndarray

    def __post_init__(self):
        s = self.symbols = np.array(self.symbols, dtype=complex)
        if not (s.ndim == 2 and s.shape[0] - 1 == s.shape[1] >= 1):
            raise ValueError(f"symbols must be a (K, K-1) array with K >= 2, got shape {s.shape}")
        bad = np.flatnonzero(~np.isfinite(s).all(axis=1))
        if bad.size:
            raise ValueError(f"user {bad[0] + 1}: expected {len(s) - 1} finite symbols, got {s[bad[0]]}")
        s.flags.writeable = False

    @property
    def K(self) -> int:
        return len(self.symbols)

    @classmethod
    def random(cls, K: int, rng: np.random.Generator) -> "SymbolBlock":
        """Independent unit-variance CN(0,1) symbols for every user."""
        return cls([complex_normal(rng, K - 1) for _ in range(_require_count("K", K, 2))])

    def stacked(self) -> np.ndarray:
        """The (K, K-1) symbol array, user k on row k-1."""
        return self.symbols


@dataclass
class StiaRoundResult:
    """Outputs of one executed round; effective channels are (K-1, K-1) arrays."""

    decoded: SymbolBlock
    residual_interference: dict[int, float]
    per_user_rate_bits: dict[int, float] | None
    effective_channels: dict[int, np.ndarray] = field(default_factory=dict)


def decode_round(eff, differences) -> np.ndarray:
    """Solve ``eff @ s = differences`` for stacked (..., K-1, K-1) effective channels.

    Noise-free the solve is exact. Raises :class:`DecodeFailureError` if
    any effective channel's ``kappa_F = ||H||_F ||H^-1||_F`` exceeds
    :data:`~stia.numerics.CONDITION_LIMIT`, the guard every draw passes.
    """
    mat = np.asarray(eff, dtype=complex)
    d = np.asarray(differences, dtype=complex)
    if (mat.ndim < 2 or not mat.shape[-1] == mat.shape[-2] > 0 or d.shape != mat.shape[:-1]
            or not (np.isfinite(mat).all() and np.isfinite(d).all())):
        raise ValueError(f"the effective channels must be square (..., n, n) with n >= 1 and the differences "
                         f"(..., n), both finite; got shapes {mat.shape} and {d.shape}")
    return _decode_accepted(mat, d)


def _decode_accepted(heff: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """:func:`_decode`'s symbols; raises :class:`DecodeFailureError` past :data:`~stia.numerics.CONDITION_LIMIT`."""
    decoded, cond, _ = _decode(heff, diffs)
    if not (cond <= CONDITION_LIMIT).all():
        raise DecodeFailureError(cond.max())
    return decoded


def _decode(mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symbols ``M^-1 r``, ``kappa_F`` and ``M^-1`` of stacked square M and right-hand sides r: one guarded inverse.

    M is an effective channel H with r its differences d, or a round's :func:`_mixture` for all its users at once.
    """
    inv, cond = _guarded_solve(mat)
    return (inv @ rhs[..., None])[..., 0], cond, inv


def _decode_round(mixture: np.ndarray, z: np.ndarray, diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every user's symbols (count, K, K-1) and effective-channel ``kappa_F`` (count, K) from one inverse per round.

    User k's effective channel is ``diag(1/z_.k) G`` for the :func:`_mixture` G and the slots' null-vector
    entries ``z_.k``, so ``s_k = G^-1 (z_.k * d_k)`` and its ``kappa_F`` is, exactly,
    ``sqrt(sum_m ||G_m||^2 / |z_mk|^2 * sum_m ||G^-1 e_m||^2 |z_mk|^2)``; ``inf`` where G fails its guard.
    """
    zk = z.transpose(0, 2, 1)  # user k's z_.k on row k
    decoded, cond, inv = _decode(mixture[:, None], zk * diffs)
    with np.errstate(all="ignore"):
        zz, g, gi = (x.real ** 2 + x.imag ** 2 for x in (zk, mixture, inv[:, 0]))
        fro = (g.sum(axis=-1)[:, None, :] / zz).sum(axis=-1)
        fro_inv = (gi.sum(axis=-2)[:, None, :] * zz).sum(axis=-1)
        kappa = np.sqrt(fro * fro_inv)
    return decoded, np.where(np.isfinite(kappa) & np.isfinite(cond), kappa, np.inf)


def run_stia_round(
    channels,
    symbols: SymbolBlock,
    power: float | None = None,
    noise_std: float = 0.0,
    rng: np.random.Generator | None = None,
    snr_linear: float | None = None,
) -> StiaRoundResult:
    """Execute one complete round on explicit per-slot channels: :func:`_send` on a batch of one.

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
        When given, per-user round rates (bits per slot) are computed alongside decoding.

    Raises :class:`IllConditionedChannelError` if a stacked interferer
    matrix is singular to tolerance (callers resample the draw),
    :class:`DecodeFailureError` if an effective channel fails the condition guard
    and ``ValueError`` if pricing would take a Gram ``H H^H`` past float range.
    """
    ch = np.asarray(channels, dtype=complex)
    K = symbols.K
    if ch.shape != (K, K, K - 1) or not np.isfinite(ch).all():
        raise ValueError(f"expected finite channels of shape {(K, K, K - 1)}, got shape {ch.shape}")
    if not (_is_real(noise_std) and 0 <= noise_std < np.inf):
        raise ValueError(f"noise_std must be a finite non-negative real number, got {noise_std!r}")
    if noise_std and rng is None:
        raise ValueError("an rng is required when noise_std > 0")
    for name, value in (("power", power), ("snr_linear", snr_linear)):
        if value is not None:
            _require_positive(name, value)

    ch, sent = ch[None], symbols.stacked()[None]
    z, inv = _accepted_null_vectors(ch[:, 1:])
    noise = noise_std * complex_normal(rng, (1, K, K)) if noise_std else None
    _, vs, diffs = _send(ch, z, inv, ch[:, :1], sent, power, noise)
    heff = batch_effective_channels(ch, z)
    decoded = _decode_accepted(heff[0], diffs[0])
    residual = _leakage(ch, vs, diffs, sent)[0]
    users = range(1, K + 1)
    top = float(np.abs(heff).max())  # a Gram entry is at most (K-1) top^2, and (snr/K) top^2 once scaled
    if snr_linear is not None and not max(K - 1.0, snr_linear / K) * top * top < np.inf:
        raise ValueError(f"pricing needs the effective channels' Gram inside float range; largest entry {top:.3e}")
    bits = None if snr_linear is None else _round_bits(heff[0], snr_linear) / K
    return StiaRoundResult(
        decoded=SymbolBlock(decoded),
        residual_interference=dict(zip(users, residual.tolist())),
        per_user_rate_bits=None if bits is None else dict(zip(users, bits.tolist())),
        effective_channels=dict(zip(users, heff[0])),
    )


def draw_round_channels(K: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0,1) round channels of shape (count, K, K, K-1): slot, user, antenna."""
    K = _require_count("K", K, 2)
    return complex_normal(rng, (_require_count("count", count, 0), K, K, K - 1))


def _slices(items) -> list[slice]:
    """Consecutive slices of ``items``' leading axis of at most :data:`_SLICE_BYTES` each, one item at least."""
    step = max(1, _SLICE_BYTES // max(items[:1].nbytes, 1))
    return [slice(i, i + step) for i in range(0, max(len(items), 1), step)]


def _redraw_guarded(draw, guard, count: int):
    """Draw ``count`` items, redrawing each whose ``guard`` value exceeds :data:`CONDITION_LIMIT`.

    ``guard(items)`` returns guard values followed by per-item results, such as the
    null vectors, inverses or ZF gains the guard computed on the way. Each pass is one
    ``draw`` call, guarded and concatenated per :func:`_slices` slice.
    Returns ``(items, *results, conds, resamples)``.
    Raises :class:`IllConditionedChannelError` after ``_MAX_PASSES`` passes.
    """

    def sliced_guard(items):
        parts = [guard(items[s]) for s in _slices(items)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    items = draw(count)
    conds, *results = sliced_guard(items)
    pending = np.flatnonzero(conds > CONDITION_LIMIT)
    resamples = 0
    for _ in range(_MAX_PASSES - 1):
        if pending.size == 0:
            break
        resamples += int(pending.size)
        items[pending] = draw(pending.size)
        cond, *sub = sliced_guard(items[pending])
        conds[pending] = cond
        for whole, part in zip(results, sub):
            whole[pending] = part
        pending = pending[cond > CONDITION_LIMIT]
    if pending.size:
        raise IllConditionedChannelError("batch", float(conds.max()))
    return items, *results, conds, resamples


def _slot_guard(ch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A :func:`_redraw_guarded` guard of rounds (count, K, K, K-1): each round's worst interferer-stack
    ``kappa_F``, then every precoded slot's null vector ``z`` (count, K-1, K) and ``A^-1`` (count, K-1, K-1, K-1)."""
    z, cond, inv = _interferer_guard(ch[:, 1:])
    return cond.max(axis=(1, 2)), z, inv


def batch_rounds(
    K: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Draw ``count`` rounds at once, resampling ill-conditioned draws.

    Returns ``(channels, null_vectors, conds, resamples)``: shapes
    (count, K, K, K-1) and (count, K-1, K), the worst interferer-stack
    ``kappa_F = ||A||_F ||A^-1||_F`` per round and the redrawn rounds. Callers
    build effective channels per :func:`_slices` slice with :func:`batch_effective_channels`.
    :func:`_slot_guard` guards each slice; the slots' ``A^-1`` are dropped there.
    """
    count = _require_count("count", count, 0)
    return _redraw_guarded(lambda n: draw_round_channels(K, n, rng), lambda ch: _slot_guard(ch)[:2], count)


def _slot_scales(v: np.ndarray, power: float | None) -> np.ndarray:
    """Per-slot scales (count, K): ``sqrt(power / sum_k ||V_k||_F^2)``, identity V at slot 0."""
    count, n_pre, K = v.shape[:3]
    if power is None:
        return np.ones((count, n_pre + 1))
    fro = np.empty((count, n_pre + 1))
    fro[:, 0], fro[:, 1:] = K * (K - 1.0), (abs(v) ** 2).sum(axis=(2, 3, 4))
    return np.sqrt(power / fro)


def _require_positive(name: str, value: float) -> None:
    if not (_is_real(value) and 0 < value < np.inf):
        raise ValueError(f"{name} must be a positive finite real number, got {value!r}")


def _transmit(v: np.ndarray, symbols: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``V_k s_k`` per slot and user, and scaled transmit vectors: all symbols summed, then ``sum_k V_k s_k``."""
    vs = np.einsum("cmkab,ckb->cmka", v, symbols)
    x = np.empty(scales.shape + symbols.shape[-1:], dtype=complex)
    x[:, 0], x[:, 1:] = symbols.sum(axis=1), vs.sum(axis=2)
    x *= scales[..., None]
    return vs, x


def _send(ch, z, inv, reference, symbols, power, noise) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precoders, every ``V_k s_k`` and differences ``y[broadcast] - y[m]`` (count, K, K-1).

    Precoders align to ``reference`` from each slot's guard ``z`` and ``A^-1``; slots are scaled to ``power``
    (None: unscaled), received with ``noise`` (count, K, K) or none, and unscaled; differences are user-major.
    """
    v = _stia_precoders(inv, z, reference)
    scales = _slot_scales(v, power)
    vs, x = _transmit(v, symbols, scales)
    y = np.einsum("cmki,cmi->cmk", ch, x)
    if noise is not None:
        y = y + noise
    y /= scales[..., None]
    return v, vs, (y[:, :1] - y[:, 1:]).transpose(0, 2, 1)


def batch_effective_channels(channels: np.ndarray, null_vectors: np.ndarray) -> np.ndarray:
    """Effective channels for a batch of rounds: shape (count, K, K-1, K-1).

    Row m of round c, user k is ``h_k[ref] - h_k[m] V_k[m] = z^T H[ref] / z_k``,
    with ``z`` slot m's left null vector from ``null_vectors`` (count, K-1, K). At K=3 the
    rows are formed entry by entry and held with matrix axes first, the layout :func:`_round_bits`
    reads them in; the result is a view of that array.
    """
    if null_vectors.shape[-1] == 3:
        z, ref = null_vectors, channels[:, 0]
        heff = np.empty(z.shape[1:2] + ref.shape[2:] + z.shape[:1] + (3,), dtype=complex)
        for m, a in np.ndindex(heff.shape[:2]):
            mixed = z[:, m, 0] * ref[:, 0, a] + z[:, m, 1] * ref[:, 1, a] + z[:, m, 2] * ref[:, 2, a]
            heff[m, a] = mixed[:, None] / z[:, m]
        return heff.transpose(2, 3, 0, 1)
    return _mixture(channels, null_vectors)[:, None] / null_vectors.transpose(0, 2, 1)[..., None]


def _mixture(channels: np.ndarray, null_vectors: np.ndarray) -> np.ndarray:
    """The interference mixture G (count, K-1, K-1) every receiver recorded: row m is ``z^T H[ref]`` for
    slot m's null vector z, so user k's effective channel is ``diag(1/z_.k) G``."""
    return np.einsum("cmk,cka->cma", null_vectors, channels[:, 0])


def _leakage(ch: np.ndarray, vs: np.ndarray, diffs: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Worst ``|d - (h_k[ref] - h_k[m] V_k[m]) s_k|`` per round and user over the interference it recorded;
    ``vs`` holds every ``V_k[m] s_k`` as :func:`_transmit` formed them."""
    own = np.einsum("cka,cka->ck", ch[:, 0], symbols)[..., None] - np.einsum("cmka,cmka->ckm", ch[:, 1:], vs)
    leak = np.abs(diffs - own).max(axis=2)
    cross = np.abs(np.einsum("cki,cji->ckj", ch[:, 0], symbols))
    scale = cross.sum(axis=2) - cross.diagonal(axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = leak / scale
    return np.where(scale > 0.0, rel, np.where(leak < 1e-12, 0.0, np.inf))


def _round_bits(heff: np.ndarray, snr) -> np.ndarray:
    """Bits ``log2 det(C + p H H^H) - log2 det C`` of stacked effective channels H (..., K-1, K-1).

    The one pricing call; the axes of ``snr``, a linear SNR or an array of them, lead the result's.
    C = I + 11^T is the differenced noises' covariance (the broadcast-slot noise is common to all K-1),
    so ``log2 det C = log2 K``, and ``p = snr / (K (K-1))`` is the per-symbol power. Each point sums the
    log2 of the pivots of one LDL^H, so no product of pivots can leave float range: at K=3 of each
    user's 2x2 matrix, entry by entry, and at K >= 4 of the whole matrix, in place with matrix axes
    first. Each complex product there takes two operands of one rank with the item axis last: numpy
    rounds a broadcast one-item product otherwise.
    """
    K = heff.shape[-1] + 1
    p = np.asarray(snr, dtype=float) / (K * (K - 1))
    bits = []
    with np.errstate(invalid="ignore"):  # a non-finite entry leaves a NaN pivot, refused below
        if K == 3:  # over the flattened stack, as _guarded_solve's 2x2 case
            (h00, h01), (h10, h11) = h = heff.reshape(-1, 2, 2).transpose(1, 2, 0)
            sq = h.real ** 2 + h.imag ** 2
            g00, g11, g01 = sq[0, 0] + sq[0, 1], sq[1, 0] + sq[1, 1], h10.conj() * h00 + h11.conj() * h01
            for q in p.ravel():  # the pivots d0, then d1 = a11 - conj(w) (w / d0) for w = a01
                d0 = 2.0 + q * g00
                wr, wi = 1.0 + q * g01.real, q * g01.imag
                d1 = 2.0 + q * g11 - (wr * (wr / d0) + wi * (wi / d0))
                if not ((d0 > 0).all() and (d1 > 0).all()):
                    raise ValueError("matrix is not positive definite")
                bits.append(np.log2(d0) + np.log2(d1))
        else:
            h = heff.transpose((heff.ndim - 2, heff.ndim - 1, *range(heff.ndim - 2)))  # gathered from one copy
            h = np.ascontiguousarray(h).reshape(K - 1, K - 1, -1)
            gram = np.einsum("ian,jan->ijn", h, h.conj())
            for q in p.ravel():  # row j's later entries w: a_kl -= conj(w_k) (w_l / d_j) on the later rows
                a = q * gram
                a += np.eye(K - 1)[..., None] + 1.0  # in place, so each point allocates one large array, not two
                for j in range(K - 2):
                    u = a[j, j + 1:] * (1 / a[j, j].real)
                    a[j + 1:, j + 1:] -= a[j, j + 1:].conj()[:, None] * u[None, :]
                d = a.diagonal().real  # the pivots, item axis first
                if not d.min() > 0:
                    raise ValueError("matrix is not positive definite")
                bits.append(_term_sum(np.log2(d), -1))
    return np.array(bits).reshape(p.shape + heff.shape[:-2]) - math.log2(K)
