"""Tests for the block-fading and delayed-CSI model."""

from fractions import Fraction

import numpy as np
import pytest

from stia.channel import (
    CsitView,
    DelayConfig,
    FadingProcess,
    block_of_slot,
    coherence_time_estimate,
    complex_normal,
    csit_at,
    feedback_arrival_slot,
    has_current_csit,
    sample_user_vector,
)


def test_same_seed_same_block_identical():
    a = FadingProcess(3, 2, 3, seed=42)
    b = FadingProcess(3, 2, 3, seed=42)
    np.testing.assert_array_equal(a.sample_block(5), b.sample_block(5))
    np.testing.assert_array_equal(a.sample_block(5), a.sample_block(5))


def test_block_order_independent():
    a = FadingProcess(3, 2, 3, seed=9)
    b = FadingProcess(3, 2, 3, seed=9)
    first = a.sample_block(1)
    b.sample_block(7)
    np.testing.assert_array_equal(first, b.sample_block(1))
    np.testing.assert_array_equal(
        sample_user_vector(9, 7, 2, 2), b.sample_block(7)[1]
    )


def test_block_constancy_within_block():
    proc = FadingProcess(2, 2, 4, seed=3)
    for slot in range(5, 9):  # block 2 spans slots 5..8
        np.testing.assert_array_equal(proc.channel_at_slot(slot), proc.sample_block(2))


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
    proc = FadingProcess(2, 2, 1, seed=11)
    blocks = np.stack([proc.sample_block(b) for b in range(1, 25_001)])
    entries = blocks.ravel()
    assert entries.shape == (100_000,)
    assert np.mean(np.abs(entries) ** 2) == pytest.approx(1.0, abs=0.02)
    assert np.var(entries.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(entries.imag) == pytest.approx(0.5, abs=0.01)


def test_cross_block_independence():
    proc = FadingProcess(2, 2, 1, seed=12)
    first = np.stack([proc.sample_block(b) for b in range(1, 25_001)]).ravel()
    second = np.stack([proc.sample_block(b) for b in range(25_001, 50_001)]).ravel()
    corr = np.corrcoef(first.real, second.real)[0, 1]
    assert abs(corr) < 0.02
    corr_im = np.corrcoef(first.imag, second.imag)[0, 1]
    assert abs(corr_im) < 0.02


def test_csit_first_slot_blind():
    proc = FadingProcess(3, 2, 3, seed=0)
    view = csit_at(proc, DelayConfig(3, 1), 1)
    assert not view.has_current
    assert view.outdated == {}


def test_csit_slot_eight_matches_feedback_model():
    proc = FadingProcess(3, 2, 3, seed=0)
    view = csit_at(proc, DelayConfig(3, 1), 8)
    assert view.has_current and view.current_block == 3
    np.testing.assert_array_equal(view.current, proc.sample_block(3))
    assert sorted(view.outdated) == [1, 2]


def test_csit_zero_delay_always_current():
    proc = FadingProcess(3, 2, 3, seed=0)
    cfg = DelayConfig(3, 0)
    for slot in range(1, 13):
        assert csit_at(proc, cfg, slot).has_current


def test_csit_causality_brute_force():
    # Feedback for block b is sent at its first slot and lands t_fb later;
    # the view must contain exactly the blocks whose report has landed.
    for t_c, t_fb in [(3, 1), (3, 2), (3, 3), (4, 1), (5, 0), (2, 5)]:
        proc = FadingProcess(2, 2, t_c, seed=1)
        cfg = DelayConfig(t_c, t_fb)
        for slot in range(1, 41):
            blk = (slot - 1) // t_c + 1
            known = {
                b for b in range(1, blk + 1)
                if (b - 1) * t_c + 1 + t_fb <= slot
            }
            view = csit_at(proc, cfg, slot)
            assert view.has_current == (blk in known)
            assert set(view.outdated) == {b for b in known if b < blk}


def test_helpers_agree():
    assert block_of_slot(8, 3) == 3
    assert feedback_arrival_slot(1, 3, 1) == 2
    assert has_current_csit(3, 1, 8)
    assert not has_current_csit(3, 1, 7)


def test_gamma_exact_rational():
    assert DelayConfig(3, 1).gamma == Fraction(1, 3)
    assert DelayConfig(4, 1).gamma == Fraction(1, 4)
    assert DelayConfig(3, 0).gamma == 0
    with pytest.raises(ValueError):
        DelayConfig(0, 1)
    with pytest.raises(ValueError):
        DelayConfig(3, -1)


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


def test_mismatched_config_rejected():
    proc = FadingProcess(3, 2, 3, seed=0)
    with pytest.raises(ValueError):
        csit_at(proc, DelayConfig(4, 1), 1)
