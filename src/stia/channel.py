"""Block-fading channel draws and the feedback timing that sets the CSIT.

The channel of each user stays constant over coherence blocks of ``t_c``
slots and redraws independently between blocks (i.i.d. CN(0,1) entries
from ``complex_normal``, i.e. Rayleigh fading with unit average power).
Every user reports CSI at the first slot of each block, and the report
reaches the transmitter ``t_fb`` slots later. Inside a block the
transmitter is therefore blind for the first ``t_fb`` slots and has
current CSI afterwards; blocks whose report has arrived remain available
as outdated CSI forever. The timing predicates below are the whole CSIT
model: what the transmitter knows at a slot depends only on them.

The ratio ``gamma = t_fb / t_c`` controls the knowledge regime: 0 means
instantaneous feedback, values of 1 and above mean only completely
outdated CSI is ever available.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "DelayConfig",
    "block_of_slot",
    "block_start",
    "coherence_time_estimate",
    "complex_normal",
    "feedback_arrival_slot",
    "has_current_csit",
]

SPEED_OF_LIGHT = 2.998e8  # m/s


def complex_normal(rng: np.random.Generator, shape=()) -> np.ndarray:
    """CN(0,1) draws: real and imaginary parts each N(0, 1/2)."""
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = rng.standard_normal(shape), rng.standard_normal(shape)
    out *= np.sqrt(0.5)
    return out[()]


def _require_integer(name: str, value) -> int:
    if not (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _require_count(name: str, value, least: int) -> int:
    if _require_integer(name, value) < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return operator.index(value)


def block_of_slot(slot: int, t_c: int) -> int:
    """Index of the coherence block containing a slot (both 1-based)."""
    _require_count("slot", slot, 1)
    _require_count("t_c", t_c, 1)
    return (slot - 1) // t_c + 1


def block_start(block_index: int, t_c: int) -> int:
    """First slot of a coherence block."""
    _require_count("block_index", block_index, 1)
    _require_count("t_c", t_c, 1)
    return (block_index - 1) * t_c + 1


def feedback_arrival_slot(block_index: int, t_c: int, t_fb: int) -> int:
    """Slot at which the report sent at the block's first slot reaches the transmitter."""
    _require_count("t_fb", t_fb, 0)
    return block_start(block_index, t_c) + t_fb


def has_current_csit(t_c: int, t_fb: int, slot: int) -> bool:
    """Whether the transmitter knows the slot's own block channel at this slot."""
    _require_count("t_fb", t_fb, 0)
    return slot - block_start(block_of_slot(slot, t_c), t_c) >= t_fb


@dataclass(frozen=True)
class DelayConfig:
    """Coherence time and feedback delay, both in slots."""

    t_c: int
    t_fb: int

    def __post_init__(self):
        _require_count("t_c", self.t_c, 1)
        _require_count("t_fb", self.t_fb, 0)

    @property
    def gamma(self) -> Fraction:
        """Exact feedback-delay to coherence-time ratio."""
        return Fraction(self.t_fb, self.t_c)


def coherence_time_estimate(carrier_hz: float, speed_m_per_s: float) -> float:
    """Rule-of-thumb coherence time in seconds for a carrier and user speed.

    Scales inversely with both the carrier frequency and the speed.
    """
    if not (0 < carrier_hz < math.inf and 0 < speed_m_per_s < math.inf):
        raise ValueError("carrier frequency and speed must be positive and finite")
    return SPEED_OF_LIGHT / (8.0 * carrier_hz * speed_m_per_s)
