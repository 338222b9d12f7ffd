"""Tests for the CN(0,1) draws and the feedback-timing CSIT model."""

from fractions import Fraction

import numpy as np
import pytest

from stia.channel import (
    DelayConfig,
    _keyed_rng,
    block_of_slot,
    coherence_time_estimate,
    complex_normal,
    feedback_arrival_slot,
    has_current_csit,
)


@pytest.mark.parametrize("shape", [(8192, 3, 3, 2), (50000, 2, 2), (100000, 2), 3, ()])
def test_complex_normal_bits_match_the_two_draw_expression(shape):
    # Filling one complex array in place must not change a bit of the draws
    # (nor the scalar type of shape ()).
    got = complex_normal(np.random.default_rng(31), shape)
    rng = np.random.default_rng(31)
    want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_entry_variance_and_shape():
    # Monte Carlo estimate of the unit total variance over 1e5 entries.
    entries = complex_normal(np.random.default_rng(11), 100_000)
    assert entries.shape == (100_000,)
    assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.02)
    assert np.var(entries.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(entries.imag) == pytest.approx(0.5, abs=0.01)


def test_cross_block_independence():
    # Consecutive chunks of the rate engine draw from unrelated streams.
    first = complex_normal(_keyed_rng(12, 0), 100_000)
    second = complex_normal(_keyed_rng(12, 1), 100_000)
    corr = np.corrcoef(first.real, second.real)[0, 1]
    assert abs(corr) < 0.02
    corr_im = np.corrcoef(first.imag, second.imag)[0, 1]
    assert abs(corr_im) < 0.02


def test_csit_first_slot_blind():
    assert not has_current_csit(3, 1, 1)
    assert feedback_arrival_slot(1, 3, 1) > 1


def test_csit_slot_eight_matches_feedback_model():
    assert has_current_csit(3, 1, 8) and block_of_slot(8, 3) == 3
    assert [b for b in (1, 2, 3) if feedback_arrival_slot(b, 3, 1) <= 8] == [1, 2, 3]


def test_csit_zero_delay_always_current():
    for slot in range(1, 13):
        assert has_current_csit(3, 0, slot)


def test_csit_causality_brute_force():
    # Feedback for block b is sent at its first slot and lands t_fb later;
    # the transmitter knows exactly the blocks whose report has landed.
    for t_c, t_fb in [(3, 1), (3, 2), (3, 3), (4, 1), (5, 0), (2, 5)]:
        for slot in range(1, 41):
            blk = (slot - 1) // t_c + 1
            known = {
                b for b in range(1, blk + 1)
                if (b - 1) * t_c + 1 + t_fb <= slot
            }
            assert block_of_slot(slot, t_c) == blk
            assert has_current_csit(t_c, t_fb, slot) == (blk in known)
            arrived = {b for b in range(1, blk + 1) if feedback_arrival_slot(b, t_c, t_fb) <= slot}
            assert arrived == known


def test_helpers_agree():
    assert block_of_slot(8, 3) == 3
    assert feedback_arrival_slot(1, 3, 1) == 2
    assert has_current_csit(3, 1, 8)
    assert not has_current_csit(3, 1, 7)


_PREDICATES = [
    (block_of_slot, ("slot", "t_c")),
    (feedback_arrival_slot, ("block", "t_c", "t_fb")),
    (has_current_csit, ("t_c", "t_fb", "slot")),
]
_VALID = {"slot": 4, "block": 2, "t_c": 3, "t_fb": 1}


@pytest.mark.parametrize("func,params", _PREDICATES, ids=[func.__name__ for func, _ in _PREDICATES])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "3", None, np.float64(2.0)])
def test_timing_predicates_reject_non_integers(func, params, bad):
    for name in params:
        args = [bad if p == name else _VALID[p] for p in params]
        with pytest.raises(ValueError, match="integer"):
            func(*args)


@pytest.mark.parametrize("func,params", _PREDICATES, ids=[func.__name__ for func, _ in _PREDICATES])
def test_timing_predicates_reject_out_of_range_values(func, params):
    lowest = {"slot": 1, "block": 1, "t_c": 1, "t_fb": 0}
    for name in params:
        args = [lowest[p] - 1 if p == name else _VALID[p] for p in params]
        with pytest.raises(ValueError, match="at least"):
            func(*args)
    assert func(*[np.int64(lowest[p]) for p in params]) == func(*[lowest[p] for p in params])


def test_gamma_exact_rational():
    assert DelayConfig(3, 1).gamma == Fraction(1, 3)
    assert DelayConfig(4, 1).gamma == Fraction(1, 4)
    assert DelayConfig(3, 0).gamma == 0
    with pytest.raises(ValueError):
        DelayConfig(0, 1)
    with pytest.raises(ValueError):
        DelayConfig(3, -1)


@pytest.mark.parametrize("t_c,t_fb", [(3.0, 1), (3, 1.0), (True, 0), (3, False), ("3", 1), (None, 1)])
def test_delay_config_rejects_non_integers(t_c, t_fb):
    with pytest.raises(ValueError, match="integer"):
        DelayConfig(t_c, t_fb)


def test_delay_config_accepts_numpy_integers():
    cfg = DelayConfig(np.int64(3), np.int32(1))
    assert cfg.gamma == Fraction(1, 3) and cfg == DelayConfig(3, 1)
    assert type(cfg.t_c) is int and type(cfg.t_fb) is int
    assert type(cfg.gamma.numerator) is int and type(cfg.gamma.denominator) is int


def test_coherence_time_lte_walking_speed():
    t_c = coherence_time_estimate(2.1e9, 3000 / 3600)
    assert t_c == pytest.approx(21.4e-3, abs=0.1e-3)


def test_coherence_time_scales_inversely_with_speed():
    base = coherence_time_estimate(2.1e9, 1.0)
    assert coherence_time_estimate(2.1e9, 2.0) == pytest.approx(base / 2)


def test_coherence_time_half_carrier():
    t_c = coherence_time_estimate(1.05e9, 3000 / 3600)
    assert t_c == pytest.approx(42.8e-3, abs=0.2e-3)


def test_coherence_time_domain():
    with pytest.raises(ValueError):
        coherence_time_estimate(0.0, 1.0)
    with pytest.raises(ValueError):
        coherence_time_estimate(1e9, -1.0)


@pytest.mark.parametrize("carrier,speed", [
    (float("nan"), 1.0), (float("inf"), 1.0), (1e9, float("nan")), (1e9, float("inf")),
])
def test_coherence_time_rejects_non_finite_input(carrier, speed):
    with pytest.raises(ValueError, match="finite"):
        coherence_time_estimate(carrier, speed)


@pytest.mark.parametrize("carrier,speed", [
    (True, 1.0), (1e9, True), ("2.1e9", 1.0), (1e9, "1"), (None, 1.0), (1e9, 1 + 0j), (np.bool_(True), 1.0),
])
def test_coherence_time_rejects_bools_and_non_real_input(carrier, speed):
    # True was taken as 1 Hz (3.7e7 s), and a string raised a bare TypeError.
    with pytest.raises(ValueError, match="positive finite real numbers"):
        coherence_time_estimate(carrier, speed)


def test_coherence_time_accepts_numpy_reals():
    assert coherence_time_estimate(np.float64(2.1e9), np.int64(1)) == coherence_time_estimate(2.1e9, 1)
