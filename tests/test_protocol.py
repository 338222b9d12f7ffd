"""Tests for the round kernel: transmission, cancellation, decoding, rates.

Kernel stages are checked against explicit per-user, per-slot loops written
here, so each check stays independent of the kernel's batched arithmetic.
"""

import dataclasses
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stia import analysis, precoding, protocol, verify
from stia.channel import complex_normal
from stia.numerics import CONDITION_LIMIT
from stia.precoding import (
    IllConditionedChannelError,
    _accepted_null_vectors,
    _interferer_guard,
    _stia_precoders,
    _zf_gains,
    build_stia_precoders,
)
from stia.protocol import (
    DecodeFailureError,
    SymbolBlock,
    batch_effective_channels,
    batch_rounds,
    decode_round,
    draw_round_channels,
    run_stia_round,
)
from stia.scheduler import build_plan_general


def _symbols(K, rng):
    return SymbolBlock.random(K, rng)


def _round(K, seed):
    rng = np.random.default_rng(seed)
    ch = draw_round_channels(K, 1, rng)[0]
    return ch, _symbols(K, rng)


def _transmit_one(v, sb, power=None):
    """Kernel transmit stage on one round: (slots, n_t), broadcast slot first."""
    v = np.asarray(v, dtype=complex)[None]
    return protocol._transmit(v, sb.stacked()[None], protocol._slot_scales(v, power))[1][0]


def _send_one(ch, symbols):
    """The signal path on one round: precoders and differences indexed [user - 1, precoded slot - 1]."""
    ch = ch[None]
    z, inv = _accepted_null_vectors(ch[:, 1:])
    v, _, diffs = protocol._send(ch, z, inv, ch[:, :1], symbols[None], None, None)
    return v[0], diffs[0]


def _reference_differences(ch, v, sb):
    """``y[ref] - y[m]`` for every user by explicit loops over slots and users."""
    K, s = sb.K, sb.stacked()
    xs = [sum(s[k] for k in range(K))]
    xs += [sum(v[m - 1, k] @ s[k] for k in range(K)) for m in range(1, K)]
    y = [[ch[m, k - 1] @ xs[m] for k in range(1, K + 1)] for m in range(K)]
    return np.array([[y[0][k] - y[m][k] for m in range(1, K)] for k in range(K)])


def _identity_precoders(K, slots):
    return np.broadcast_to(np.eye(K - 1, dtype=complex), (slots, K, K - 1, K - 1))


# --------------------------------------------------------------------------
# transmission
# --------------------------------------------------------------------------


def test_phase_one_zero_symbols():
    x = _transmit_one(_identity_precoders(3, 2), SymbolBlock(np.zeros((3, 2))))
    np.testing.assert_array_equal(x, np.zeros((3, 2)))


def test_phase_one_direct_sum():
    sb = SymbolBlock([[1, 0], [0, 1], [1, 1]])
    np.testing.assert_allclose(_transmit_one(_identity_precoders(3, 2), sb)[0], [2, 2])


def test_phase_one_power_audit():
    # E||x||^2 for unit-variance symbols is the sum of ||x(e_i)||^2 over the
    # standard-basis symbol vectors; it must equal the budget in every slot.
    ch, _ = _round(3, 8)
    v = build_stia_precoders(ch[1:], ch[0])
    power = 10.0
    total = np.zeros(3)
    for i in range(6):
        e = np.zeros(6, dtype=complex)
        e[i] = 1.0
        x = _transmit_one(v, SymbolBlock(e.reshape(3, 2)), power)
        total += np.sum(np.abs(x) ** 2, axis=1)
    np.testing.assert_allclose(total, power, rtol=1e-12)


def test_phase_two_identity_reduces_to_phase_one():
    rng = np.random.default_rng(9)
    x = _transmit_one(_identity_precoders(3, 2), _symbols(3, rng))
    np.testing.assert_allclose(x[1], x[0])
    np.testing.assert_allclose(x[2], x[0])


def test_phase_two_linearity_single_user():
    rng = np.random.default_rng(10)
    cur = complex_normal(rng, (3, 2))
    out = complex_normal(rng, (3, 2))
    v = build_stia_precoders(cur, out)
    s = np.zeros((3, 2), dtype=complex)
    s[0] = complex_normal(rng, 2)
    x = _transmit_one(v[None], SymbolBlock(s))
    np.testing.assert_allclose(x[1], v[0] @ s[0], atol=1e-12)


def test_phase_two_interference_matches_reference_slot():
    # What user 2 receives beyond its own stream must equal the slot-one
    # mixture of users 1 and 3.
    rng = np.random.default_rng(11)
    cur = complex_normal(rng, (3, 2))
    ref = complex_normal(rng, (3, 2))
    v = build_stia_precoders(cur, ref)
    sb = _symbols(3, rng)
    y2 = cur[1] @ _transmit_one(v[None], sb)[1]
    s = sb.stacked()
    own = (cur[1] @ v[1]) @ s[1]
    expected_interference = ref[1] @ (s[0] + s[2])
    assert abs((y2 - own) - expected_interference) <= 1e-9 * abs(expected_interference)


# --------------------------------------------------------------------------
# reception
# --------------------------------------------------------------------------


def test_receive_zero_input():
    ch = complex_normal(np.random.default_rng(12), (3, 3, 2))
    _, d = _send_one(ch, np.zeros((3, 2), dtype=complex))
    np.testing.assert_array_equal(d, np.zeros((3, 2)))


def test_receive_basis_inner_product():
    # Two slots, three users: nothing sent at the broadcast slot, so every
    # difference is minus the user's inner product h^T x at the second slot.
    # A unit inverse, z = (1, 1, -1) and reference rows (0, 0, -e_1) give the
    # mixture row e_1 and precoders V_3 = 0, V_k = -e_k e_1^T, so symbols that
    # sum to zero send x = -(s_1[0], s_2[0]) = (3 + 1j, 7) at the second slot.
    ch = np.zeros((1, 2, 3, 2), dtype=complex)
    ch[0, 1, 0] = [1.0, 0.0]
    ch[0, 1, 2] = [0.0, 2.0]
    z = np.array([[[1.0, 1.0, -1.0]]], dtype=complex)
    inv = np.eye(2, dtype=complex)[None, None]
    reference = np.zeros((1, 1, 3, 2), dtype=complex)
    reference[0, 0, 2] = [-1.0, 0.0]
    symbols = np.array([[[-(3.0 + 1j), 0.0], [-7.0, 0.0], [10.0 + 1j, 0.0]]])
    _, _, d = protocol._send(ch, z, inv, reference, symbols, None, None)
    np.testing.assert_allclose(d[0, :, 0], [-(3.0 + 1j), 0.0, -14.0])


def test_receive_noise_variance_audit():
    # Unit receiver noise reaches each user's differences with the covariance
    # I + 11^T: the broadcast-slot noise is common.
    rng = np.random.default_rng(12)
    noise = []
    for _ in range(1500):
        ch = draw_round_channels(3, 1, rng)[0]
        sb = _symbols(3, rng)
        res = run_stia_round(ch, sb, noise_std=1.0, rng=rng)
        for k in (1, 2, 3):
            noise.append(res.effective_channels[k] @ (res.decoded.stacked() - sb.stacked())[k - 1])
    n = np.array(noise)
    cov = n.T @ n.conj() / len(n)
    np.testing.assert_allclose(cov, np.eye(2) + np.ones((2, 2)), atol=0.15)


def test_receive_requires_rng_for_noise():
    ch, sb = _round(3, 12)
    with pytest.raises(ValueError):
        run_stia_round(ch, sb, noise_std=1.0)


# --------------------------------------------------------------------------
# cancellation and effective channels
# --------------------------------------------------------------------------


def test_cancel_differences_depend_only_on_own_symbols():
    ch, sb = _round(3, 13)
    s = sb.stacked().copy()
    s[1:] = 0.0
    v, d = _send_one(ch, s)
    d_direct = [(ch[0, 0] - ch[m, 0] @ v[m - 1, 0]) @ s[0] for m in (1, 2)]
    np.testing.assert_allclose(d[0], d_direct, atol=1e-10)


def test_cancel_interferers_only_leaves_nothing():
    ch, sb = _round(3, 14)
    s = sb.stacked().copy()
    s[0] = 0.0
    d = _send_one(ch, s)[1][0]
    scale = sum(abs(ch[0, 0] @ s[j]) for j in (1, 2))
    assert np.max(np.abs(d)) <= 1e-9 * scale


def test_cancel_matches_symbolwise_expansion():
    # Both sides of the subtraction, expanded slot by slot and symbol by symbol.
    ch, sb = _round(3, 15)
    v, d = _send_one(ch, sb.stacked())
    np.testing.assert_allclose(d, _reference_differences(ch, v, sb), rtol=1e-12, atol=1e-12)
    own_ref = ch[0, 0] @ sb.stacked()[0]
    for m in (1, 2):
        own_slot = (ch[m, 0] @ v[m - 1, 0]) @ sb.stacked()[0]
        assert d[0, m - 1] == pytest.approx(own_ref - own_slot, rel=1e-9, abs=1e-12)


def test_cancel_needs_two_slots():
    ch, sb = _round(3, 16)
    with pytest.raises(ValueError):
        run_stia_round(ch[:1], sb)
    ch[0, 2, 1] = np.nan  # nor does it take non-finite channels
    with pytest.raises(ValueError, match="finite"):
        run_stia_round(ch, sb)


def test_effective_channel_degenerate_self_cancellation():
    # Unchanged channels give identity precoders, which cancel the user's
    # own signal too: the effective channel vanishes and decoding must fail.
    h = complex_normal(np.random.default_rng(16), (3, 2))
    ch = np.stack([h, h, h])
    v = build_stia_precoders(ch[1:], ch[0])
    np.testing.assert_allclose(v, np.broadcast_to(np.eye(2), v.shape), atol=1e-14)
    z, _, _ = _interferer_guard(ch[1:])
    np.testing.assert_allclose(batch_effective_channels(ch[None], z[None]), 0.0, atol=1e-14)
    with pytest.raises(DecodeFailureError):
        run_stia_round(ch, SymbolBlock.random(3, np.random.default_rng(0)))


@pytest.mark.parametrize("K", [3, 4])
def test_effective_channel_rank(K):
    rng = np.random.default_rng(17 + K)
    ch, z, _, _ = batch_rounds(K, 1000, rng)
    s = np.linalg.svd(batch_effective_channels(ch, z), compute_uv=False)
    full = s[..., -1] > 1e-9 * s[..., 0]
    assert full.all(axis=1).sum() >= 999


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------


def test_decode_identity_effective_channel():
    rng = np.random.default_rng(18)
    s = complex_normal(rng, 3)
    np.testing.assert_allclose(decode_round(np.eye(3, dtype=complex), s), s)


def test_decode_refuses_an_effective_channel_past_the_condition_limit():
    # kappa_F = ||H||_F ||H^-1||_F of diag(1, 1e-9) is about 1e9, past the limit of 1e8;
    # that of diag(1, 1e-7), about 1e7, is inside it.
    bad = np.diag([1.0, 1e-9])
    with pytest.raises(DecodeFailureError) as err:
        decode_round(bad, np.ones(2))
    kappa_f = np.linalg.norm(bad) * np.linalg.norm(np.linalg.inv(bad))
    assert err.value.condition == pytest.approx(kappa_f, rel=1e-14)
    np.testing.assert_allclose(decode_round(np.diag([1.0, 1e-7]), np.ones(2)), [1.0, 1e7], rtol=1e-15)


def _zero_row_4x4():
    h = complex_normal(np.random.default_rng(24), (4, 4))
    h[2] = 0.0
    return h


@pytest.mark.parametrize("eff", [np.zeros((1, 1)), _zero_row_4x4()], ids=["zero-1x1", "zero-row-4x4"])
def test_decode_refuses_a_singular_effective_channel_with_infinite_condition(eff):
    # LAPACK refuses both; the guard then inverts each as the identity and reports inf.
    with pytest.raises(DecodeFailureError) as err:
        decode_round(eff, np.ones(len(eff)))
    assert err.value.condition == np.inf


def test_decoding_and_rank_take_no_svd_and_k3_takes_no_lapack_solve(monkeypatch):
    # One condition guard: every decode and rank flag comes from numerics._guarded_solve,
    # whose 2x2 closed form serves every K=3 effective channel.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg was called")

    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for K in (3, 4):
        run_stia_round(*_round(K, 25))
    decode_round(np.diag([1.0, 2.0, 3.0]), np.ones(3))
    for K in (3, 4, 5, 6):
        verify.round_sweep(K, 50, 0)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    run_stia_round(*_round(3, 25))
    verify.round_sweep(3, 50, 0)
    # At K=4 the slots' guard hands LAPACK only the slots past its cross products' gate, about 1%.
    solved = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: solved.append(len(a)) or real_inv(a))
    batch_rounds(4, 2000, np.random.default_rng(26))
    assert 0 < sum(solved) <= 0.02 * 3 * 2000


@pytest.mark.parametrize("K", [3, 4])
def test_a_round_decodes_at_any_channel_scale(K):
    # Guard and decode shift a stack whose values leave float range by a power of two and solve it again.
    ch, sb = _round(K, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1e-170, 1e170, 1e300):
            res = run_stia_round(ch * scale, sb, power=10.0)
            assert np.max(np.abs(res.decoded.stacked() - sb.stacked())) <= 1e-12 * np.max(np.abs(sb.stacked()))
        np.testing.assert_allclose(decode_round(np.diag([1e300, 1e300]), np.ones(2)), [1e-300, 1e-300], rtol=1e-15)


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_a_round_is_the_batch_kernels_on_a_batch_of_one(K, monkeypatch):
    # run_stia_round gives each round of a batch what the batched kernels give it, bit for bit,
    # from two guarded solves (the slots' guard and the decode) and, at K=3, no LAPACK inverse.
    # At K=4 the slots' guard solves only the slots its cross products leave to LAPACK, if any.
    rng = np.random.default_rng(80 + K)
    ch, z, _, _ = batch_rounds(K, 50, rng)
    sent = complex_normal(rng, (50, K, K - 1))
    power, snr = 10.0, 1e3
    _, vs, diffs = protocol._send(ch, z, _interferer_guard(ch[:, 1:])[2], ch[:, :1], sent, power, None)
    heff = batch_effective_channels(ch, z)
    decoded = protocol._decode(heff, diffs)[0]
    residual = protocol._leakage(ch, vs, diffs, sent)
    bits = protocol._round_bits(heff, snr) / K

    calls = []
    real = protocol._guarded_solve

    def counted(a):
        calls.append(a.shape)
        return real(a)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv was called at K=3")

    monkeypatch.setattr(precoding, "_guarded_solve", counted)
    monkeypatch.setattr(protocol, "_guarded_solve", counted)
    if K == 3:
        monkeypatch.setattr(np.linalg, "inv", refuse)
    users = range(1, K + 1)
    for i in range(50):
        calls.clear()
        res = run_stia_round(ch[i], SymbolBlock(sent[i]), power=power, snr_linear=snr)
        assert len(calls) == 2 or K == 4 and calls == [(K, K - 1, K - 1)]
        np.testing.assert_array_equal(res.decoded.stacked(), decoded[i])
        np.testing.assert_array_equal(np.stack([res.effective_channels[k] for k in users]), heff[i])
        assert [res.residual_interference[k] for k in users] == residual[i].tolist()
        assert [res.per_user_rate_bits[k] for k in users] == bits[i].tolist()


def _two_einsum_send(ch, v, sent, scales):
    """Differences and leakage with the transmit vectors and every ``V_k s_k`` each from its own einsum."""
    x = np.empty(scales.shape + sent.shape[-1:], dtype=complex)
    x[:, 0], x[:, 1:] = sent.sum(axis=1), np.einsum("cmkab,ckb->cma", v, sent)
    y = np.einsum("cmki,cmi->cmk", ch, x * scales[..., None]) / scales[..., None]
    diffs = (y[:, :1] - y[:, 1:]).transpose(0, 2, 1)
    vs = np.einsum("cmkab,ckb->cmka", v, sent)
    own = np.einsum("cka,cka->ck", ch[:, 0], sent)[..., None] - np.einsum("cmka,cmka->ckm", ch[:, 1:], vs)
    leak = np.abs(diffs - own).max(axis=2)
    cross = np.abs(np.einsum("cki,cji->ckj", ch[:, 0], sent))
    scale = cross.sum(axis=2) - cross.diagonal(axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = leak / scale
    return diffs, np.where(scale > 0.0, rel, np.where(leak < 1e-12, 0.0, np.inf))


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_send_forms_every_v_k_s_k_once_and_keeps_every_bit(K):
    # The transmit vectors are the shared V_k s_k summed over k, and the leakage reads them back:
    # differences and leakage equal a reference that forms each with its own einsum, bit for bit.
    rng = np.random.default_rng(100 + K)
    ch, z, _, _ = batch_rounds(K, 300, rng)
    sent = complex_normal(rng, (300, K, K - 1))
    inv = _interferer_guard(ch[:, 1:])[2]
    for power in (None, 10.0):
        v, vs, diffs = protocol._send(ch, z, inv, ch[:, :1], sent, power, None)
        want_diffs, want_leak = _two_einsum_send(ch, v, sent, protocol._slot_scales(v, power))
        np.testing.assert_array_equal(diffs, want_diffs)
        np.testing.assert_array_equal(protocol._leakage(ch, vs, diffs, sent), want_leak)


@pytest.mark.parametrize("K", [3, 5])
def test_noise_free_round_recovers_symbols(K):
    rng = np.random.default_rng(19 + K)
    for _ in range(20):
        ch = draw_round_channels(K, 1, rng)[0]
        sb = _symbols(K, rng)
        res = run_stia_round(ch, sb)
        err = np.max(np.abs(res.decoded.stacked() - sb.stacked()), axis=1)
        assert np.all(err <= 1e-8 * np.maximum(1.0, np.max(np.abs(sb.stacked()), axis=1)))


def test_noisy_decode_is_consistent():
    rng = np.random.default_rng(20)
    ch = draw_round_channels(3, 1, rng)[0]
    sb = _symbols(3, rng)
    res = run_stia_round(ch, sb, power=1e8, noise_std=1.0, rng=rng)
    assert np.max(np.abs(res.decoded.stacked() - sb.stacked())) < 0.2  # high SNR, every user stays close


def test_round_residuals_and_dof_bookkeeping():
    ch, sb = _round(4, 21)
    res = run_stia_round(ch, sb)
    assert max(res.residual_interference.values()) <= 1e-9
    symbols_decoded = res.decoded.stacked().size
    assert Fraction(symbols_decoded, 4) == 3  # K(K-1) symbols over K slots


def test_power_scaling_preserves_cancellation():
    rng = np.random.default_rng(22)
    ch = draw_round_channels(3, 1, rng)[0]
    sb = _symbols(3, rng)
    res = run_stia_round(ch, sb, power=10.0)
    assert max(res.residual_interference.values()) <= 1e-9
    assert np.max(np.abs(res.decoded.stacked() - sb.stacked())) <= 1e-8


def _library_rounds_digest():
    """sha256 over decoded symbols, rates, residuals and effective channels of 60 rounds per K=3,4,5.

    Rounds alternate a noise-free round at power 1e5 priced at SNR 1e5 and a
    noisy one (power 10, noise_std 0.3) priced at SNR 1e3.
    """
    digest = hashlib.sha256()
    for K in (3, 4, 5):
        rng = np.random.default_rng((12, K))
        users = range(1, K + 1)
        for index in range(60):
            ch = draw_round_channels(K, 1, rng)[0]
            sb = SymbolBlock.random(K, rng)
            if index % 2:
                res = run_stia_round(ch, sb, power=10.0, noise_std=0.3, rng=rng, snr_linear=1e3)
            else:
                res = run_stia_round(ch, sb, power=1e5, snr_linear=1e5)
            digest.update(res.decoded.stacked().tobytes())
            digest.update(np.array([res.per_user_rate_bits[k] for k in users]).tobytes())
            digest.update(np.array([res.residual_interference[k] for k in users]).tobytes())
            digest.update(np.stack([res.effective_channels[k] for k in users]).tobytes())
    return digest.hexdigest()


def test_library_rounds_are_pinned():
    # The library signal path, noise-free and noisy, bit for bit; re-recorded when decoding
    # took the guarded inverse, which moved only the decoded symbols' last bits, and when K=4
    # slots took the cross-product guard and K >= 4 rounds the triangle pricing: K=3 kept every bit,
    # K=5 moved only rates.
    assert _library_rounds_digest() == "7ee5b7c8b26e70bdcb2a71c503ac8693b49155c7e8e43ce812bb08942a0cacb7"


def test_redraw_loop_replaces_rejected_draws_and_gives_up():
    draws = []

    def draw(n):
        draws.append(n)
        return np.arange(n, dtype=float) + 10.0 / len(draws)

    # Guard values of 10 and 11 fall below the limit, those of 12 and 13
    # above it: these two are rejected once and replaced, together with
    # their per-item results.
    scale = CONDITION_LIMIT / 11.5
    items, results, conds, resamples = protocol._redraw_guarded(draw, lambda x: (x * scale, -x), 4)
    np.testing.assert_array_equal(items, [10, 11, 5, 6])
    assert resamples == 2 and draws == [4, 2]
    np.testing.assert_array_equal(conds, items * scale)
    np.testing.assert_array_equal(results, -items)

    draws.clear()
    with pytest.raises(IllConditionedChannelError):
        protocol._redraw_guarded(draw, lambda x: (np.full(len(x), np.inf), x), 3)
    assert len(draws) == 64


# --------------------------------------------------------------------------
# rates
# --------------------------------------------------------------------------


def test_round_rate_vanishes_at_zero_snr():
    ch, sb = _round(3, 23)
    assert max(run_stia_round(ch, sb, snr_linear=1e-12).per_user_rate_bits.values()) < 1e-9
    assert protocol._round_bits(np.eye(2, dtype=complex), 1e-12) < 1e-9


def test_round_rate_identity_closed_form():
    # H = I at per-symbol power 1 with C = I + 11^T: det(aI + 11^T) = a^(m-1) (a + m) for m = K - 1.
    for K in (3, 4, 5):
        bits = protocol._round_bits(np.eye(K - 1, dtype=complex), float(K * (K - 1)))
        assert bits == pytest.approx(K - 2 + np.log2((K + 1) / K))


def test_round_rate_slope_near_two_per_round():
    rng = np.random.default_rng(23)
    lo, hi = [], []
    for _ in range(600):
        ch, sb = draw_round_channels(3, 1, rng)[0], _symbols(3, rng)
        for snr, rates in ((1e4, lo), (1e6, hi)):
            rates.append(sum(run_stia_round(ch, sb, snr_linear=snr).per_user_rate_bits.values()))
    slope = (np.mean(hi) - np.mean(lo)) / (np.log2(1e6) - np.log2(1e4))
    assert 1.9 <= slope <= 2.1


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_round_rates_of_a_round_equal_round_rate_per_user(K):
    # Each user's rate is _round_bits of its own effective channel over the round's K slots.
    ch, sb = _round(K, 40 + K)
    res = run_stia_round(ch, sb, snr_linear=1e5)
    want = {k: float(protocol._round_bits(res.effective_channels[k], 1e5)) / K for k in range(1, K + 1)}
    assert res.per_user_rate_bits == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("K", [3, 4])
def test_pricing_past_float_range_is_one_value_error_and_the_round_still_decodes(K):
    # At 1e160 the Gram H H^H overflows: pricing refuses it up front, with no warning, and decoding
    # still works. At 1e150 the round is priced, as the unit-scale round at an SNR 1e300 times higher.
    ch, sb = _round(K, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"pricing needs the effective channels' Gram inside float range"):
            run_stia_round(ch * 1e160, sb, power=10.0, snr_linear=1e3)
        res = run_stia_round(ch * 1e160, sb, power=10.0)
        assert np.max(np.abs(res.decoded.stacked() - sb.stacked())) <= 1e-12 * np.max(np.abs(sb.stacked()))
        big = run_stia_round(ch * 1e150, sb, power=10.0, snr_linear=1e3).per_user_rate_bits
    unit = run_stia_round(ch, sb, power=10.0, snr_linear=1e303).per_user_rate_bits
    assert big == pytest.approx(unit, rel=1e-12)


def _exact_log2det(m):
    """log2 det of a Hermitian matrix of exact (real, imaginary) Fraction pairs, by elimination."""
    m = [row[:] for row in m]
    det = Fraction(1)
    for j in range(len(m)):
        (pr, pi) = m[j][j]
        det *= pr  # Hermitian positive definite: every pivot is real and positive
        assert pi == 0 and pr > 0
        for i in range(j + 1, len(m)):
            fr, fi = m[i][j][0] / pr, m[i][j][1] / pr
            for k in range(j + 1, len(m)):
                ar, ai = m[j][k]
                br, bi = m[i][k]
                m[i][k] = (br - (fr * ar - fi * ai), bi - (fr * ai + fi * ar))
    return math.log2(det.numerator) - math.log2(det.denominator)


def _exact_round_bits(h, snr, K):
    """``log2 det(C + p H H^H) - log2 det C`` in Fraction arithmetic on the float64 entries of ``h``."""
    m = K - 1
    p = Fraction(snr / (K * (K - 1)))  # the float per-symbol power the kernel uses
    hr = [[(Fraction(x.real), Fraction(x.imag)) for x in row] for row in h]
    gram = [[(sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(hr[a], hr[b])),
              sum(ai * br - ar * bi for (ar, ai), (br, bi) in zip(hr[a], hr[b]))) for b in range(m)]
            for a in range(m)]
    cov = [[(Fraction(1 + (a == b)), Fraction(0)) for b in range(m)] for a in range(m)]
    mat = [[(cov[a][b][0] + p * gram[a][b][0], p * gram[a][b][1]) for b in range(m)] for a in range(m)]
    return _exact_log2det(mat) - _exact_log2det(cov)


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_round_bits_match_an_exact_log_det_on_the_worst_conditioned_rounds(K):
    ch, z, conds, _ = batch_rounds(K, 4000, np.random.default_rng(90 + K))
    worst = batch_effective_channels(ch, z)[np.argsort(conds)[-4:]]
    for db in (40.0, 60.0, 90.0):
        snr = 10.0 ** (db / 10.0)
        bits = protocol._round_bits(worst, snr)
        want = [[_exact_round_bits(h, snr, K) for h in rnd] for rnd in worst]
        np.testing.assert_allclose(bits, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_round_bits_rejects_a_nan_effective_channel(K):
    # K=3 prices from its own 2x2 pivots and K >= 4 from an in-place LDL^H: each refuses a NaN or
    # infinite entry without a warning.
    for bad in (np.nan, np.inf, -np.inf):
        heff = np.broadcast_to(np.eye(K - 1, dtype=complex), (2, K, K - 1, K - 1)).copy()
        heff[1, 0, 0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive definite"):
                protocol._round_bits(heff, np.array([10.0, 1e3]))


def test_zf_slot_orthonormal_channels():
    snr = np.array([100.0])
    gains, _, cond = _zf_gains(np.eye(2, dtype=complex)[None])
    assert cond[0] == pytest.approx(2.0)  # ||I||_F ||I^-1||_F
    bits = analysis._zf_bits(gains, snr)
    assert bits[0, 0] == pytest.approx(2 * np.log2(1.0 + snr[0] / 2.0))


def test_tdma_slope_near_one():
    rng = np.random.default_rng(25)
    gains = np.sum(np.abs(complex_normal(rng, (4000, 2))) ** 2, axis=1)
    lo = np.mean(np.log2(1 + 1e4 * gains))
    hi = np.mean(np.log2(1 + 1e6 * gains))
    slope = (hi - lo) / (np.log2(1e6) - np.log2(1e4))
    assert 0.95 <= slope <= 1.05
    bits = analysis._zf_bits(np.array([[1.0]]), np.array([1e4]))  # a TDMA slot: one stream of gain ||h||^2
    assert bits[0, 0] == pytest.approx(np.log2(1 + 1e4))


def test_zf_and_tdma_transmit_power():
    # ZF gains against unit-norm beams from the explicit inverse, and the
    # transmit power of the normalized ZF and TDMA beams, exactly, per realization.
    rng = np.random.default_rng(26)
    power = 10.0
    for _ in range(200):
        ch = complex_normal(rng, (3, 2))
        gains, inv, _ = _zf_gains(ch[None, :2])
        w = np.linalg.inv(ch[:2])
        w = w / np.linalg.norm(w, axis=0)
        for i in range(2):
            assert gains[0, i] == pytest.approx(abs(ch[i] @ w[:, i]) ** 2, rel=1e-9)
        beams = inv[0] * np.sqrt(gains[0])
        np.testing.assert_allclose(np.abs(beams), np.abs(w), atol=1e-12)
        assert (power / 2) * np.sum(np.abs(beams) ** 2) == pytest.approx(power, rel=1e-12)
        tdma = np.sqrt(power) * ch[0].conj() / np.linalg.norm(ch[0])
        assert np.sum(np.abs(tdma) ** 2) == pytest.approx(power, rel=1e-12)


# --------------------------------------------------------------------------
# batch path consistency
# --------------------------------------------------------------------------


def test_zf_gains_match_explicit_inverse():
    rng = np.random.default_rng(29)
    for n_t in (2, 3, 5):
        h = complex_normal(rng, (50, n_t, n_t))
        gains, _, _ = _zf_gains(h)
        for c in range(50):
            inv = np.linalg.inv(h[c])
            want = [1.0 / np.linalg.norm(inv[:, i]) ** 2 for i in range(n_t)]
            np.testing.assert_allclose(gains[c], want, rtol=1e-12)


def test_k3_closed_forms_give_one_matrix_the_bits_it_has_in_a_stack():
    # A lone 2x2 matrix must not fall back to numpy scalar arithmetic, which rounds products differently.
    ch, z, _, _ = batch_rounds(3, 200, np.random.default_rng(31))
    stacked = _interferer_guard(ch[:, 1:])
    bits = protocol._round_bits(batch_effective_channels(ch, z), 1e5)
    for c in range(200):
        for m in range(2):
            for got, want in zip(_interferer_guard(ch[c, 1 + m]), stacked):
                np.testing.assert_array_equal(got, want[c, m])
        for k in range(3):
            assert protocol._round_bits(batch_effective_channels(ch[c:c + 1], z[c:c + 1])[0, k], 1e5) == bits[c, k]


def test_k4_closed_forms_give_one_matrix_the_bits_it_has_in_a_stack():
    # A lone slot's cross products round as they do in a stack, and a slot left to LAPACK, or a
    # round priced alone, gets the bits it gets there too.
    ch, z, _, _ = batch_rounds(4, 200, np.random.default_rng(32))
    stacked = _interferer_guard(ch[:, 1:])
    assert (stacked[1] > precoding._CLOSED_FORM_LIMIT).any(axis=-1).sum() >= 2
    bits = protocol._round_bits(batch_effective_channels(ch, z), 1e5)
    for c in range(200):
        for m in range(3):
            for got, want in zip(_interferer_guard(ch[c, 1 + m]), stacked):
                np.testing.assert_array_equal(got, want[c, m])
        for k in range(4):
            assert protocol._round_bits(batch_effective_channels(ch[c:c + 1], z[c:c + 1])[0, k], 1e5) == bits[c, k]


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_round_bits_price_one_matrix_or_round_as_in_a_stack(K):
    # Pricing rounds each item alone, as one round or as one user's matrix, as it does in a stack of 300.
    ch, z, _, _ = batch_rounds(K, 300, np.random.default_rng(33 + K))
    heff, snr = batch_effective_channels(ch, z), np.array([1.0, 1e5, 1e12])
    bits = protocol._round_bits(heff, snr)
    for c in range(300):
        np.testing.assert_array_equal(protocol._round_bits(heff[c], snr), bits[:, c])
        for k in range(K):
            np.testing.assert_array_equal(protocol._round_bits(heff[c, k], snr), bits[:, c, k])


def test_batch_matches_reference_round():
    rng = np.random.default_rng(27)
    for K in (3, 4):
        ch, z, _, _ = batch_rounds(K, 3, rng)
        heff = batch_effective_channels(ch, z)
        _, _, inv = _interferer_guard(ch[:, 1:])
        v = _stia_precoders(inv, z, ch[:, :1])
        for c in range(3):
            for k in range(1, K + 1):
                others = [j for j in range(K) if j != k - 1]
                for m in range(1, K):
                    ref_v = np.linalg.solve(ch[c, m, others], ch[c, 0, others])
                    np.testing.assert_allclose(v[c, m - 1, k - 1], ref_v, atol=1e-10)
                    row = ch[c, 0, k - 1] - ch[c, m, k - 1] @ ref_v
                    np.testing.assert_allclose(heff[c, k - 1, m - 1], row, atol=1e-10)


# --------------------------------------------------------------------------
# null-vector kernel
# --------------------------------------------------------------------------


def _rel(got, want):
    return np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_null_vector_kernel_matches_per_user_solves(K):
    # One inverse per precoded slot gives every user's effective-channel row
    # and interferer-stack guard; here each comes from its own solve and inverse.
    rng = np.random.default_rng(40 + K)
    ch = draw_round_channels(K, 200, rng)
    z, cond, _ = _interferer_guard(ch[:, 1:])
    heff = batch_effective_channels(ch, z)
    for m in range(1, K):
        for k in range(K):
            others = [j for j in range(K) if j != k]
            a = ch[:, m, others]
            v = np.linalg.solve(a, ch[:, 0, others])
            row = ch[:, 0, k] - np.einsum("ci,cij->cj", ch[:, m, k], v)
            assert _rel(heff[:, k, m - 1], row).max() <= 1e-12
            fro = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(a), axis=(1, 2))
            np.testing.assert_allclose(cond[:, m - 1, k], fro, rtol=1e-12)


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_null_vector_guard_flags_singular_stacks_and_the_redraw_replaces_them(K, monkeypatch):
    # Round 1: user 1's channel vanishes in slot 1, so the reference stack
    # (users 1..K-1) is exactly singular. Round 3: in slot K-1 the reference
    # stack is diagonal and h_K sums all its rows but the first, so
    # c = (0, 1, ..., 1) exactly and only user 1's stack is singular. Neither
    # may raise or warn, the other rounds keep every bit, and the redraw
    # replaces exactly these two.
    rng = np.random.default_rng(50 + K)
    ch = draw_round_channels(K, 6, rng)
    bad = ch.copy()
    bad[1, 1, 0] = 0.0
    diag = np.diag(2.0 ** np.arange(K - 1))
    bad[3, K - 1] = np.vstack([diag, diag[1:].sum(axis=0)])
    z0, cond0, _ = _interferer_guard(ch[:, 1:])
    z, cond, _ = _interferer_guard(bad[:, 1:])
    assert np.isinf(cond[1, 0]).all()
    assert np.isinf(cond[3, K - 2]).tolist() == [True] + [False] * (K - 1)
    np.testing.assert_array_equal(np.flatnonzero(np.isinf(cond.max(axis=(1, 2)))), [1, 3])
    keep = [0, 2, 4, 5]
    np.testing.assert_array_equal(z[keep], z0[keep])
    np.testing.assert_array_equal(cond[keep], cond0[keep])

    draws = []

    def draw(K_, n, rng_):
        draws.append(n)
        return bad.copy() if len(draws) == 1 else draw_round_channels(K_, n, rng_)

    monkeypatch.setattr(protocol, "draw_round_channels", draw)
    got, null, conds, resamples = batch_rounds(K, 6, rng)
    heff = batch_effective_channels(got, null)
    assert draws == [6, 2] and resamples == 2
    np.testing.assert_array_equal(got[keep], bad[keep])
    assert not np.array_equal(got[1], bad[1]) and not np.array_equal(got[3], bad[3])
    assert np.all(conds <= CONDITION_LIMIT) and np.all(np.isfinite(heff))
    np.testing.assert_array_equal(heff[keep], batch_effective_channels(ch, z0)[keep])


@pytest.mark.parametrize("kwargs,word", [
    ({"power": float("nan")}, "power"),
    ({"power": float("inf")}, "power"),
    ({"power": 0.0}, "power"),
    ({"power": -1.0}, "power"),
    ({"noise_std": float("nan")}, "noise_std"),
    ({"noise_std": float("inf")}, "noise_std"),
    ({"noise_std": -1.0}, "noise_std"),
    ({"snr_linear": 0.0}, "snr_linear"),
    ({"snr_linear": -1.0}, "snr_linear"),
    ({"snr_linear": float("nan")}, "snr_linear"),
    ({"snr_linear": float("inf")}, "snr_linear"),
    # Bools and strings are not real numbers: True was read as 1 and "0.1" raised TypeError.
    ({"power": True}, "power"),
    ({"power": "10"}, "power"),
    ({"noise_std": True}, "noise_std"),
    ({"noise_std": "0.1"}, "noise_std"),
    ({"snr_linear": True}, "snr_linear"),
    ({"snr_linear": "1e3"}, "snr_linear"),
])
def test_run_stia_round_rejects_bad_power_noise_and_snr(kwargs, word):
    ch, sb = _round(3, 60)
    with pytest.raises(ValueError, match=word):
        run_stia_round(ch, sb, rng=np.random.default_rng(0), **kwargs)


_NAN_2X2 = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)


@pytest.mark.parametrize("call,word", [
    (lambda: decode_round(_NAN_2X2, np.ones(2)), "effective channel"),
    (lambda: decode_round(np.eye(2), np.array([1.0, np.nan])), "differences"),
    (lambda: decode_round(np.stack([np.eye(2), _NAN_2X2]), np.ones((2, 2))), "effective channel"),
    (lambda: SymbolBlock([[1.0, np.nan], [1.0, 1.0], [1.0, 1.0]]), "user 1"),
    (lambda: SymbolBlock([[1.0, 1.0], [1.0, 1.0], [np.inf, 1.0]]), "user 3"),
])
def test_library_fronts_reject_non_finite_input_by_name(call, word):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{word}.*finite|finite.*{word}"):
            call()


@pytest.mark.parametrize("draw", [draw_round_channels, batch_rounds])
@pytest.mark.parametrize("count,word", [(2.5, "integer"), (-1, "at least 0"), (True, "integer")])
def test_round_draws_reject_a_count_that_is_not_a_non_negative_integer(draw, count, word):
    # 2.5 was a bare TypeError, -1 numpy's "negative dimensions are not allowed" and True one round.
    with pytest.raises(ValueError, match=f"count must be .*{word}"):
        draw(3, count, np.random.default_rng(0))


@pytest.mark.parametrize("draw", [draw_round_channels, batch_rounds, lambda K, count, rng: SymbolBlock.random(K, rng)],
                         ids=["draw_round_channels", "batch_rounds", "SymbolBlock.random"])
@pytest.mark.parametrize("K,word", [(2.5, "integer"), (True, "integer"), (0, "at least 2"), (1, "at least 2")])
def test_round_draws_reject_a_user_count_that_is_not_an_integer_of_at_least_two(draw, K, word):
    # A draw took 2.5 and True as bare TypeErrors, 0 as numpy's "negative dimensions are not allowed" and
    # 1 as a (1, 1, 1, 0) draw; SymbolBlock.random took 2.5 as a TypeError.
    with pytest.raises(ValueError, match=f"K must be .*{word}"):
        draw(K, 1, np.random.default_rng(0))


@pytest.mark.parametrize("eff,differences", [
    (np.ones((2, 3)), np.ones(2)), (np.ones((3, 2)), np.ones(3)), (np.zeros((0, 0)), np.zeros(0)),
])
def test_decode_round_rejects_effective_channels_that_are_not_square_or_are_empty(eff, differences):
    with pytest.raises(ValueError, match=r"square \(\.\.\., n, n\) with n >= 1"):
        decode_round(eff, differences)


def test_symbol_block_copies_the_callers_array_and_is_read_only():
    rows = np.array([[1, 2], [1, 2], [1, 2]])
    block = SymbolBlock(rows)
    assert block.K == 3 and block.stacked().dtype == complex and block.stacked().shape == (3, 2)
    with pytest.raises(ValueError, match="read-only"):
        block.stacked()[0, 0] = 5.0
    rows[0, 0] = 7
    assert block.stacked()[0, 0] == 1.0


@pytest.mark.parametrize("rows", [
    np.ones((3, 3)), np.ones((3, 1)), np.ones(6), np.ones((1, 3, 2)), np.ones((1, 0)), np.ones((0, 0)),
], ids=["square", "one-column", "flat", "three-axes", "one-user", "empty"])
def test_symbol_block_rejects_a_shape_that_is_not_k_by_k_minus_one_with_k_at_least_two(rows):
    with pytest.raises(ValueError, match=r"\(K, K-1\) array with K >= 2"):
        SymbolBlock(rows)


def test_random_symbol_block_keeps_its_draws():
    # K draws of K-1 symbols, one per user in order: the bytes the per-user dict block drew.
    block = SymbolBlock.random(4, np.random.default_rng(3))
    digest = hashlib.sha256(block.stacked().tobytes()).hexdigest()
    assert digest == "f5d0a4706b739e1d35eb12399cecce4d3b431a7043f8c3ab354ba3d9cadea7f6"
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(block.stacked(), [complex_normal(rng, 3) for _ in range(4)])


# --------------------------------------------------------------------------
# slicing
# --------------------------------------------------------------------------

_SNR = np.array([1e2, 1e5, 1e9])


def _rounds_per_slice(K):
    return protocol._SLICE_BYTES // (K * K * (K - 1) * np.dtype(complex).itemsize)


def _one_round_plan(K):
    """One round per trial over a one-slot horizon: the engine's rates are then the per-round bits."""
    return dataclasses.replace(build_plan_general(K, 1), horizon=1, zf_slots=frozenset(), tdma_slots=frozenset())


def _whole_array_reference(ch):
    """Null vectors, worst guard values and per-round bits of ``ch`` in one pass over all rounds.

    Rounds are priced by ``_round_bits`` itself, on the whole array: its pivots are checked against the
    exact log-det in tests/test_identities.py.
    """
    z, cond, _ = _interferer_guard(ch[:, 1:])
    return z, cond.max(axis=(1, 2)), protocol._round_bits(batch_effective_channels(ch, z), _SNR).sum(axis=-1).T


@pytest.mark.parametrize("K", [3, 6])
@pytest.mark.parametrize("slices,extra", [(0, 1), (1, 0), (1, 1), (2, 3)])
def test_sliced_rounds_are_bit_equal_to_the_whole_array_reference(K, slices, extra):
    # One round, exactly one slice, one slice and one round, two slices and three rounds.
    count = slices * _rounds_per_slice(K) + extra
    seed = 70 + K + count
    ch, z, conds, resamples = batch_rounds(K, count, np.random.default_rng(seed))
    assert resamples == 0 and len(protocol._slices(ch)) == slices + (extra > 0)
    np.testing.assert_array_equal(ch, draw_round_channels(K, count, np.random.default_rng(seed)))
    rates, _ = analysis._mix_chunk(K, _one_round_plan(K), _SNR, count, np.random.default_rng(seed))
    z_ref, conds_ref, bits_ref = _whole_array_reference(ch)
    np.testing.assert_array_equal(z, z_ref)
    np.testing.assert_array_equal(conds, conds_ref)
    np.testing.assert_array_equal(rates, bits_ref)


def test_sliced_redraw_is_bit_equal_to_the_whole_array_reference(rare_singular_guard):
    K = 3
    per_slice = _rounds_per_slice(K)
    count = 2 * per_slice + 3
    ch, z, conds, resamples = batch_rounds(K, count, np.random.default_rng(77))
    first = draw_round_channels(K, count, np.random.default_rng(77))
    redrawn = np.flatnonzero((ch != first).any(axis=(1, 2, 3)))
    # Rejections in both full slices of the first pass, each redrawn round replaced once or more.
    assert np.unique(redrawn // per_slice).size >= 2 and resamples >= redrawn.size
    rates, rate_resamples = analysis._mix_chunk(K, _one_round_plan(K), _SNR, count, np.random.default_rng(77))
    assert rate_resamples == resamples and np.all(conds <= CONDITION_LIMIT)
    z_ref, conds_ref, bits_ref = _whole_array_reference(ch)
    np.testing.assert_array_equal(z, z_ref)
    np.testing.assert_array_equal(conds, conds_ref)
    np.testing.assert_array_equal(rates, bits_ref)
