"""Tests for the precoder constructions."""

import warnings

import numpy as np
import pytest

from stia import precoding
from stia.analysis import _mix_chunk, _scheme_plan
from stia.channel import DelayConfig, complex_normal
from stia.precoding import (
    IllConditionedChannelError,
    _interferer_guard,
    _stia_precoders,
    _zf_gains,
    build_stia_precoders,
)
from stia.protocol import _slot_scales, batch_rounds


def test_identical_csi_gives_identity_precoders():
    rng = np.random.default_rng(0)
    ch = complex_normal(rng, (3, 2))
    pre = build_stia_precoders(ch, ch)
    assert pre.shape == (3, 2, 2)
    for v in pre:
        np.testing.assert_allclose(v, np.eye(2), atol=1e-12)


def test_scaled_csi_gives_scaled_identity():
    rng = np.random.default_rng(1)
    out = complex_normal(rng, (4, 3))
    pre = build_stia_precoders(2.0 * out, out)
    for v in pre:
        np.testing.assert_allclose(v, 0.5 * np.eye(3), atol=1e-12)


def test_k3_alignment_products():
    rng = np.random.default_rng(2)
    cur = complex_normal(rng, (3, 2))
    out = complex_normal(rng, (3, 2))
    pre = build_stia_precoders(cur, out)
    v1 = pre[0]
    for j in (2, 3):
        got = cur[j - 1] @ v1
        np.testing.assert_allclose(got, out[j - 1], rtol=1e-9, atol=1e-12)
    worst = max(
        np.max(np.abs(cur[j] @ pre[k] - out[j])) / np.max(np.abs(out[j]))
        for k in range(3)
        for j in range(3)
        if j != k
    )
    assert worst <= 1e-9


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_alignment_exactness_sweep(K):
    rng = np.random.default_rng(100 + K)
    ch, _, _, _ = batch_rounds(K, 1000, rng)
    z, _, inv = _interferer_guard(ch[:, 1:])
    v = _stia_precoders(inv, z, ch[:, :1])
    got = np.einsum("cmji,cmkia->cmkja", ch[:, 1:], v)
    want = ch[:, 0][:, None, None, :, :]
    rel = np.max(np.abs(got - want), axis=-1) / np.max(np.abs(ch[:, 0]), axis=-1)[:, None, None, :]
    idx = np.arange(K)
    rel[:, :, idx, idx] = 0.0
    assert float(rel.max()) <= 1e-9


@pytest.mark.parametrize("K", [3, 4, 5])
def test_precoders_do_not_depend_on_the_channel_scale(K):
    # Past about 1e+-154 the guard values leave float range; the slot is guarded again after a
    # power-of-two shift, so no warning is raised and the precoders do not change.
    rng = np.random.default_rng(70 + K)
    cur, out = complex_normal(rng, (K - 1, K, K - 1)), complex_normal(rng, (K, K - 1))
    ref = build_stia_precoders(cur, out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1e-170, 1e170, 1e300):
            v = build_stia_precoders(cur * scale, out * scale)
            assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))
        with pytest.raises(IllConditionedChannelError):  # a subnormal stack's A^-1 is past float range
            build_stia_precoders(cur * 1e-320, out * 1e-320)


def test_k4_slot_past_the_closed_form_gate_takes_the_lapack_guard_bit_for_bit():
    # Users 3 and 4 nearly equal put users 1 and 2's stacks past kappa_F 100, short of the limit:
    # the slot is guarded by LAPACK, alone or in a stack, with every bit it has there.
    rng = np.random.default_rng(5)
    cur = complex_normal(rng, (8, 4, 3))
    cur[3, 3] = cur[3, 2] + 1e-4 * complex_normal(rng, 3)
    want = precoding._lapack_guard(cur[3].copy())
    assert 100 < want[1].max() < 1e8
    for alone, stacked, lapack in zip(_interferer_guard(cur[3]), _interferer_guard(cur), want):
        np.testing.assert_array_equal(alone, lapack)
        np.testing.assert_array_equal(stacked[3], lapack)


def test_k4_guard_values_do_not_depend_on_a_power_of_two_scale():
    # Past about 2**+-250 the cross products' pair sums leave the normal range, where a subnormal sum
    # would give a finite but wrong kappa_F: such a slot is guarded by LAPACK, whose values still hold.
    cur = complex_normal(np.random.default_rng(6), (200, 4, 3))
    ref_z, ref_cond, ref_inv = _interferer_guard(cur)
    for k in (-300, -270, -262, -255, -240, -200, 200, 240, 255, 262, 300):
        z, cond, inv = _interferer_guard(np.ldexp(cur.real, k) + 1j * np.ldexp(cur.imag, k))
        np.testing.assert_allclose(cond, ref_cond, rtol=1e-11)
        np.testing.assert_allclose(z, ref_z, rtol=1e-11)
        np.testing.assert_allclose(np.ldexp(inv.real, k) + 1j * np.ldexp(inv.imag, k), ref_inv, rtol=1e-11)


def test_ill_conditioned_raises_and_carries_condition():
    rng = np.random.default_rng(3)
    out = complex_normal(rng, (3, 2))
    cur = complex_normal(rng, (3, 2))
    cur[2] = cur[1]  # user 1 sees a singular interferer stack
    with pytest.raises(IllConditionedChannelError) as err:
        build_stia_precoders(cur, out)
    assert err.value.condition > 1e8


def test_shape_contracts():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        build_stia_precoders(complex_normal(rng, (3, 3)), complex_normal(rng, (3, 3)))
    with pytest.raises(ValueError):
        build_stia_precoders(complex_normal(rng, (3, 2)), complex_normal(rng, (4, 3)))
    with pytest.raises(ValueError, match=r"expected \(K, n_t\) channel arrays"):
        build_stia_precoders(np.ones((3, 2)), np.ones(2))


def test_precoder_set_validation():
    # One slot gives one (K-1) x (K-1) precoder per user; stacked slots give
    # the same precoders as one call per slot; non-finite CSI is rejected.
    rng = np.random.default_rng(8)
    cur = complex_normal(rng, (2, 3, 2))
    out = complex_normal(rng, (3, 2))
    pre = build_stia_precoders(cur, out)
    assert pre.shape == (2, 3, 2, 2)
    for m in range(2):
        np.testing.assert_array_equal(pre[m], build_stia_precoders(cur[m], out))
    cur[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        build_stia_precoders(cur, out)


def test_frobenius_power_of_identities():
    # Identity precoders carry Frobenius power K(K-1) = 6, like the
    # broadcast slot, so every slot gets the scale sqrt(P / 6).
    v = np.broadcast_to(np.eye(2, dtype=complex), (1, 2, 3, 2, 2))
    np.testing.assert_allclose(_slot_scales(v, 6.0), 1.0)
    np.testing.assert_allclose(_slot_scales(v, 24.0), 2.0)


def _zf_beams(h):
    """Unit-norm ZF beams of one served stack from :func:`_zf_gains`: column i of ``h^-1`` times ``sqrt(g_i)``."""
    gains, inv, _ = _zf_gains(h[None])
    return inv[0] * np.sqrt(gains[0])


def test_zf_basis_channels_give_identity():
    ch = np.vstack([np.eye(2), complex_normal(np.random.default_rng(5), (1, 2))])
    w = _zf_beams(ch[:2])
    np.testing.assert_allclose(np.abs(w), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0)


def test_zf_orthogonality_random():
    rng = np.random.default_rng(6)
    served = [1, 3]
    for _ in range(50):
        ch = complex_normal(rng, (3, 2))
        w = _zf_beams(ch[[u - 1 for u in served]])
        for i, u in enumerate(served):
            direct = abs(ch[u - 1] @ w[:, i])
            assert direct > 1e-6
            for v in served:
                if v != u:
                    assert abs(ch[v - 1] @ w[:, i]) < 1e-9 * max(1.0, direct)


# TDMA serves one user on its matched beam. The ZF/TDMA time share runs
# t_c - t_fb ZF slots and t_fb TDMA slots per trial; each ZF slot draws its
# served stack directly, which is distribution-identical to zero-forcing a
# round-robin subset of the K users of one coherence block.


def _matched_beam_bits(h, snr):
    beam = h.conj() / np.linalg.norm(h)
    return np.log2(1 + snr * abs(h @ beam) ** 2)


def test_tdma_round_robin():
    # K=3, t_c=3, t_fb=1: two ZF slots on served stacks, then one TDMA slot,
    # per trial, drawn in that order.
    snr = np.array([1e3, 1e5])
    plan = _scheme_plan("zf_tdma", 3, DelayConfig(3, 1), 16)
    bits, resamples = _mix_chunk(3, plan, snr, 8, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    stacks = complex_normal(rng, (8 * 2, 2, 2))
    rows = complex_normal(rng, (8, 2))
    assert resamples == 0
    for c in range(8):
        ref = 0.0
        for h in stacks[2 * c: 2 * c + 2]:
            w = np.linalg.inv(h)
            w = w / np.linalg.norm(w, axis=0)
            for i in range(2):
                ref = ref + np.log2(1 + snr / 2 * abs(h[i] @ w[:, i]) ** 2)
        ref = ref + _matched_beam_bits(rows[c], snr)
        np.testing.assert_allclose(bits[c], ref / 3, rtol=1e-10)


@pytest.mark.parametrize("K", [2, 3, 5])
def test_tdma_periodicity(K):
    # With t_fb == t_c == 2K the time share is 2K TDMA slots per trial, each
    # an independent user row on its matched beam.
    snr = np.array([1e2, 1e4])
    plan = _scheme_plan("zf_tdma", K, DelayConfig(2 * K, 2 * K), 16)
    assert (plan.stia_rounds, plan.zf_slots, plan.tdma_slots) == ((), frozenset(), frozenset(range(1, 2 * K + 1)))
    bits, _ = _mix_chunk(K, plan, snr, 5, np.random.default_rng(K))
    rows = complex_normal(np.random.default_rng(K), (5 * 2 * K, K - 1))
    for c in range(5):
        ref = sum(_matched_beam_bits(h, snr) for h in rows[2 * K * c: 2 * K * (c + 1)])
        np.testing.assert_allclose(bits[c], ref / (2 * K), rtol=1e-12)
