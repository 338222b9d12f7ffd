"""Block-fading MISO broadcast channel and the transmitter's delayed CSI view.

The channel of each user stays constant over coherence blocks of ``t_c``
slots and redraws independently between blocks (i.i.d. CN(0,1) entries,
i.e. Rayleigh fading with unit average power). Every user reports CSI at
the first slot of each block, and the report reaches the transmitter
``t_fb`` slots later. Inside a block the transmitter is therefore blind
for the first ``t_fb`` slots and has current CSI afterwards; blocks whose
report has arrived remain available as outdated CSI forever.

The ratio ``gamma = t_fb / t_c`` controls the knowledge regime: 0 means
instantaneous feedback, values of 1 and above mean only completely
outdated CSI is ever available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "CsitView",
    "DelayConfig",
    "FadingProcess",
    "block_of_slot",
    "block_start",
    "coherence_time_estimate",
    "complex_normal",
    "csit_at",
    "feedback_arrival_slot",
    "has_current_csit",
    "sample_user_vector",
]

SPEED_OF_LIGHT = 2.998e8  # m/s

_SEED_MASK = (1 << 64) - 1


def complex_normal(rng: np.random.Generator, shape=()) -> np.ndarray:
    """CN(0,1) draws: real and imaginary parts each N(0, 1/2)."""
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = rng.standard_normal(shape), rng.standard_normal(shape)
    out *= np.sqrt(0.5)
    return out[()]


def block_of_slot(slot: int, t_c: int) -> int:
    """Index of the coherence block containing a slot (both 1-based)."""
    if slot < 1:
        raise ValueError("slots are 1-based")
    return (slot - 1) // t_c + 1


def block_start(block_index: int, t_c: int) -> int:
    """First slot of a coherence block."""
    if block_index < 1:
        raise ValueError("blocks are 1-based")
    return (block_index - 1) * t_c + 1


def feedback_arrival_slot(block_index: int, t_c: int, t_fb: int) -> int:
    """Slot at which the report sent at the block's first slot reaches the transmitter."""
    return block_start(block_index, t_c) + t_fb


def has_current_csit(t_c: int, t_fb: int, slot: int) -> bool:
    """Whether the transmitter knows the slot's own block channel at this slot."""
    return slot - block_start(block_of_slot(slot, t_c), t_c) >= t_fb


@dataclass(frozen=True)
class DelayConfig:
    """Coherence time and feedback delay, both in slots."""

    t_c: int
    t_fb: int

    def __post_init__(self):
        if self.t_c < 1:
            raise ValueError("t_c must be a positive number of slots")
        if self.t_fb < 0:
            raise ValueError("t_fb cannot be negative")

    @property
    def gamma(self) -> Fraction:
        """Exact feedback-delay to coherence-time ratio."""
        return Fraction(self.t_fb, self.t_c)


def sample_user_vector(seed: int, block_index: int, user_index: int, n_t: int) -> np.ndarray:
    """One user's channel vector for one block, pure in (seed, block, user).

    Keying the generator by the full triple lets blocks (and users within a
    block) be generated in any order, or concurrently, with identical
    results.
    """
    if block_index < 1 or user_index < 1:
        raise ValueError("block and user indices are 1-based")
    rng = np.random.default_rng((seed & _SEED_MASK, block_index, user_index))
    return complex_normal(rng, n_t)


class FadingProcess:
    """Lazily sampled block-fading realizations for K single-antenna users.

    Parameters
    ----------
    K : int
        Number of users.
    n_t : int
        Number of transmit antennas (length of each channel vector).
    t_c : int
        Coherence time in slots.
    seed : int
        Base seed; identical (seed, K, n_t, t_c) reproduce every query
        bit for bit.
    """

    def __init__(self, K: int, n_t: int, t_c: int, seed: int = 0):
        if K < 1 or n_t < 1:
            raise ValueError("K and n_t must be positive")
        if t_c < 1:
            raise ValueError("t_c must be a positive number of slots")
        self.K = int(K)
        self.n_t = int(n_t)
        self.t_c = int(t_c)
        self.seed = int(seed)
        self.realizations: dict[int, np.ndarray] = {}

    def sample_block(self, block_index: int) -> np.ndarray:
        """Per-user channel matrix of shape (K, n_t) for one block, cached."""
        if block_index < 1:
            raise ValueError("blocks are 1-based")
        cached = self.realizations.get(block_index)
        if cached is None:
            rows = [
                sample_user_vector(self.seed, block_index, k, self.n_t)
                for k in range(1, self.K + 1)
            ]
            cached = np.stack(rows)
            cached.setflags(write=False)
            self.realizations[block_index] = cached
        return cached

    def vector(self, block_index: int, user: int) -> np.ndarray:
        """Channel vector of one user in one block."""
        if not 1 <= user <= self.K:
            raise ValueError(f"user must lie in 1..{self.K}")
        return self.sample_block(block_index)[user - 1]

    def channel_at_slot(self, slot: int) -> np.ndarray:
        """Per-user channel matrix in effect at a slot (constant within a block)."""
        return self.sample_block(block_of_slot(slot, self.t_c))


@dataclass
class CsitView:
    """What the transmitter knows at one slot.

    ``current`` is the (K, n_t) channel of the slot's own block when the
    block's report has already arrived, else None. ``outdated`` maps every
    past block whose report has arrived to its (K, n_t) channel.
    """

    slot: int
    current: np.ndarray | None
    current_block: int | None
    outdated: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def has_current(self) -> bool:
        return self.current is not None


def csit_at(process: FadingProcess, config: DelayConfig, slot: int) -> CsitView:
    """Transmitter-side CSI available at a slot under the feedback-delay model."""
    if slot < 1:
        raise ValueError("slots are 1-based")
    if config.t_c != process.t_c:
        raise ValueError("process and config disagree on the coherence time")
    blk = block_of_slot(slot, config.t_c)
    current = None
    current_block = None
    if has_current_csit(config.t_c, config.t_fb, slot):
        current = process.sample_block(blk)
        current_block = blk
    outdated = {
        b: process.sample_block(b)
        for b in range(1, blk)
        if feedback_arrival_slot(b, config.t_c, config.t_fb) <= slot
    }
    return CsitView(slot=slot, current=current, current_block=current_block, outdated=outdated)


def coherence_time_estimate(carrier_hz: float, speed_m_per_s: float) -> float:
    """Rule-of-thumb coherence time in seconds for a carrier and user speed.

    Scales inversely with both the carrier frequency and the speed.
    """
    if carrier_hz <= 0 or speed_m_per_s <= 0:
        raise ValueError("carrier frequency and speed must be positive")
    return SPEED_OF_LIGHT / (8.0 * carrier_hz * speed_m_per_s)
