"""Tests for the round kernel: transmission, cancellation, decoding, rates.

Kernel stages are checked against explicit per-user, per-slot loops written
here, so each check stays independent of the kernel's batched arithmetic.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stia import analysis, protocol
from stia.channel import complex_normal
from stia.numerics import CONDITION_LIMIT
from stia.precoding import (
    IllConditionedChannelError,
    _interferer_guard,
    _stia_precoders,
    _zf_gains,
    build_stia_precoders,
    build_zf_precoder,
)
from stia.protocol import (
    DecodeFailureError,
    SymbolBlock,
    batch_effective_channels,
    batch_rounds,
    decode_round,
    difference_noise_covariance,
    draw_round_channels,
    round_rate,
    run_stia_round,
)


def _symbols(K, rng):
    return SymbolBlock.random(K, rng)


def _round(K, seed):
    rng = np.random.default_rng(seed)
    ch = draw_round_channels(K, 1, rng)[0]
    return ch, _symbols(K, rng)


def _transmit_one(v, sb, power=None):
    """Kernel transmit stage on one round: (slots, n_t), broadcast slot first."""
    v = np.asarray(v, dtype=complex)[None]
    return protocol._transmit(v, sb.stacked()[None], protocol._slot_scales(v, power))[0]


def _differences_one(ch, v, sb):
    """Kernel differences of one noise-free round, indexed [precoded slot - 1, user - 1]."""
    v = v[None]
    scales = protocol._slot_scales(v, None)
    return protocol._differences(ch[None], protocol._transmit(v, sb.stacked()[None], scales), scales)[0]


def _reference_differences(ch, v, sb):
    """``y[ref] - y[m]`` for every user by explicit loops over slots and users."""
    K = sb.K
    xs = [sum(sb.per_user[k] for k in range(1, K + 1))]
    xs += [sum(v[m - 1, k - 1] @ sb.per_user[k] for k in range(1, K + 1)) for m in range(1, K)]
    y = [[ch[m, k - 1] @ xs[m] for k in range(1, K + 1)] for m in range(K)]
    return np.array([[y[0][k] - y[m][k] for k in range(K)] for m in range(1, K)])


def _identity_precoders(K, slots):
    return np.broadcast_to(np.eye(K - 1, dtype=complex), (slots, K, K - 1, K - 1))


# --------------------------------------------------------------------------
# transmission
# --------------------------------------------------------------------------


def test_phase_one_zero_symbols():
    x = _transmit_one(_identity_precoders(3, 2), SymbolBlock.zeros(3))
    np.testing.assert_array_equal(x, np.zeros((3, 2)))


def test_phase_one_direct_sum():
    sb = SymbolBlock({1: [1, 0], 2: [0, 1], 3: [1, 1]})
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
        x = _transmit_one(v, SymbolBlock({k: e[2 * k - 2 : 2 * k] for k in (1, 2, 3)}), power)
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
    sb = SymbolBlock.zeros(3)
    sb.per_user[1] = complex_normal(rng, 2)
    x = _transmit_one(v[None], sb)
    np.testing.assert_allclose(x[1], v[0] @ sb.per_user[1], atol=1e-12)


def test_phase_two_interference_matches_reference_slot():
    # What user 2 receives beyond its own stream must equal the slot-one
    # mixture of users 1 and 3.
    rng = np.random.default_rng(11)
    cur = complex_normal(rng, (3, 2))
    ref = complex_normal(rng, (3, 2))
    v = build_stia_precoders(cur, ref)
    sb = _symbols(3, rng)
    y2 = cur[1] @ _transmit_one(v[None], sb)[1]
    own = (cur[1] @ v[1]) @ sb.per_user[2]
    expected_interference = ref[1] @ (sb.per_user[1] + sb.per_user[3])
    assert abs((y2 - own) - expected_interference) <= 1e-9 * abs(expected_interference)


# --------------------------------------------------------------------------
# reception
# --------------------------------------------------------------------------


def test_receive_zero_input():
    ch = complex_normal(np.random.default_rng(12), (1, 3, 3, 2))
    d = protocol._differences(ch, np.zeros((1, 3, 2), dtype=complex), np.ones((1, 3)))
    np.testing.assert_array_equal(d, np.zeros((1, 2, 3)))


def test_receive_basis_inner_product():
    # Two slots, three users: nothing sent at the broadcast slot, so every
    # difference is minus the user's inner product h^T x at the second slot.
    ch = np.zeros((1, 2, 3, 2), dtype=complex)
    ch[0, 1, 0] = [1.0, 0.0]
    ch[0, 1, 2] = [0.0, 2.0]
    x = np.zeros((1, 2, 2), dtype=complex)
    x[0, 1] = [3.0 + 1j, 7.0]
    d = protocol._differences(ch, x, np.ones((1, 2)))
    np.testing.assert_allclose(d[0, 0], [-(3.0 + 1j), 0.0, -14.0])


def test_receive_noise_variance_audit():
    # Unit receiver noise reaches each user's differences with the covariance
    # I + 11^T of difference_noise_covariance: the broadcast-slot noise is common.
    rng = np.random.default_rng(12)
    noise = []
    for _ in range(1500):
        ch = draw_round_channels(3, 1, rng)[0]
        sb = _symbols(3, rng)
        res = run_stia_round(ch, sb, noise_std=1.0, rng=rng)
        for k in (1, 2, 3):
            noise.append(res.effective_channels[k] @ (res.decoded.per_user[k] - sb.per_user[k]))
    n = np.array(noise)
    cov = n.T @ n.conj() / len(n)
    np.testing.assert_allclose(cov, difference_noise_covariance(3), atol=0.15)


def test_receive_requires_rng_for_noise():
    ch, sb = _round(3, 12)
    with pytest.raises(ValueError):
        run_stia_round(ch, sb, noise_std=1.0)


# --------------------------------------------------------------------------
# cancellation and effective channels
# --------------------------------------------------------------------------


def test_cancel_differences_depend_only_on_own_symbols():
    ch, sb = _round(3, 13)
    for j in (2, 3):
        sb.per_user[j] = np.zeros(2, dtype=complex)
    v = build_stia_precoders(ch[1:], ch[0])
    d_direct = [(ch[0, 0] - ch[m, 0] @ v[m - 1, 0]) @ sb.per_user[1] for m in (1, 2)]
    np.testing.assert_allclose(_differences_one(ch, v, sb)[:, 0], d_direct, atol=1e-10)


def test_cancel_interferers_only_leaves_nothing():
    ch, sb = _round(3, 14)
    sb.per_user[1] = np.zeros(2, dtype=complex)
    v = build_stia_precoders(ch[1:], ch[0])
    d = _differences_one(ch, v, sb)[:, 0]
    scale = sum(abs(ch[0, 0] @ sb.per_user[j]) for j in (2, 3))
    assert np.max(np.abs(d)) <= 1e-9 * scale


def test_cancel_matches_symbolwise_expansion():
    # Both sides of the subtraction, expanded slot by slot and symbol by symbol.
    ch, sb = _round(3, 15)
    v = build_stia_precoders(ch[1:], ch[0])
    d = _differences_one(ch, v, sb)
    np.testing.assert_allclose(d, _reference_differences(ch, v, sb), rtol=1e-12, atol=1e-12)
    own_ref = ch[0, 0] @ sb.per_user[1]
    for m in (1, 2):
        own_slot = (ch[m, 0] @ v[m - 1, 0]) @ sb.per_user[1]
        assert d[m - 1, 0] == pytest.approx(own_ref - own_slot, rel=1e-9, abs=1e-12)


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
    _, heff, _, _ = batch_rounds(K, 1000, rng)
    s = np.linalg.svd(heff, compute_uv=False)
    full = s[..., -1] > 1e-9 * s[..., 0]
    assert full.all(axis=1).sum() >= 999


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------


def test_decode_identity_effective_channel():
    rng = np.random.default_rng(18)
    s = complex_normal(rng, 3)
    np.testing.assert_allclose(decode_round(np.eye(3, dtype=complex), s), s)


@pytest.mark.parametrize("K", [3, 5])
def test_noise_free_round_recovers_symbols(K):
    rng = np.random.default_rng(19 + K)
    for _ in range(20):
        ch = draw_round_channels(K, 1, rng)[0]
        sb = _symbols(K, rng)
        res = run_stia_round(ch, sb)
        for k in range(1, K + 1):
            err = np.max(np.abs(res.decoded.per_user[k] - sb.per_user[k]))
            assert err <= 1e-8 * max(1.0, float(np.max(np.abs(sb.per_user[k]))))


def test_noisy_decode_is_consistent():
    rng = np.random.default_rng(20)
    ch = draw_round_channels(3, 1, rng)[0]
    sb = _symbols(3, rng)
    res = run_stia_round(ch, sb, power=1e8, noise_std=1.0, rng=rng)
    for k in (1, 2, 3):
        err = np.max(np.abs(res.decoded.per_user[k] - sb.per_user[k]))
        assert err < 0.2  # high SNR, whitened least squares stays close


def test_round_residuals_and_dof_bookkeeping():
    ch, sb = _round(4, 21)
    res = run_stia_round(ch, sb)
    assert max(res.residual_interference.values()) <= 1e-9
    symbols_decoded = sum(len(v) for v in res.decoded.per_user.values())
    assert Fraction(symbols_decoded, 4) == 3  # K(K-1) symbols over K slots


def test_power_scaling_preserves_cancellation():
    rng = np.random.default_rng(22)
    ch = draw_round_channels(3, 1, rng)[0]
    sb = _symbols(3, rng)
    res = run_stia_round(ch, sb, power=10.0)
    assert max(res.residual_interference.values()) <= 1e-9
    for k in (1, 2, 3):
        err = np.max(np.abs(res.decoded.per_user[k] - sb.per_user[k]))
        assert err <= 1e-8


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
    assert round_rate(np.eye(2, dtype=complex), 1e-12, 3) < 1e-9


def test_round_rate_identity_closed_form():
    for K in (3, 4, 5):
        rate = round_rate(np.eye(K - 1, dtype=complex), float(K * (K - 1)), K, noise_cov=np.eye(K - 1))
        assert rate == pytest.approx((K - 1) / K)


def test_round_rate_slope_near_two_per_round():
    rng = np.random.default_rng(23)
    lo, hi = [], []
    for _ in range(600):
        ch = draw_round_channels(3, 1, rng)[0]
        res = run_stia_round(ch, _symbols(3, rng), snr_linear=1e4)
        lo.append(sum(res.per_user_rate_bits.values()))
        hi.append(sum(round_rate(res.effective_channels[k], 1e6, 3) for k in (1, 2, 3)))
    slope = (np.mean(hi) - np.mean(lo)) / (np.log2(1e6) - np.log2(1e4))
    assert 1.9 <= slope <= 2.1


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_round_rates_of_a_round_equal_round_rate_per_user(K):
    ch, sb = _round(K, 40 + K)
    res = run_stia_round(ch, sb, snr_linear=1e5)
    want = {k: round_rate(res.effective_channels[k], 1e5, K) for k in range(1, K + 1)}
    assert res.per_user_rate_bits == pytest.approx(want, rel=1e-14)


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
    _, heff, conds, _ = batch_rounds(K, 4000, np.random.default_rng(90 + K))
    worst = heff[np.argsort(conds)[-4:]]
    gram = np.einsum("ckaj,ckbj->ckab", worst, worst.conj())
    cov = difference_noise_covariance(K)
    for db in (40.0, 60.0, 90.0):
        snr = 10.0 ** (db / 10.0)
        bits = protocol._round_bits(gram, cov, snr, K)
        want = [[_exact_round_bits(h, snr, K) for h in rnd] for rnd in worst]
        np.testing.assert_allclose(bits, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("cov", [
    [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)), -np.eye(2), [[np.nan, 0.0], [0.0, 1.0]],
])
def test_round_rate_rejects_a_covariance_that_is_not_positive_definite(cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive definite"):
            round_rate(np.eye(2, dtype=complex), 100.0, 3, noise_cov=np.asarray(cov))


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
    bits = analysis._tdma_bits(np.array([[1.0, 0.0]]), np.array([1e4]))
    assert bits[0, 0] == pytest.approx(np.log2(1 + 1e4))


def test_zf_and_tdma_transmit_power():
    # ZF gains against the beams of build_zf_precoder, and the transmit
    # power of the normalized ZF and TDMA beams, exactly, per realization.
    rng = np.random.default_rng(26)
    power = 10.0
    for _ in range(200):
        ch = complex_normal(rng, (3, 2))
        gains, inv, _ = _zf_gains(ch[None, :2])
        w = build_zf_precoder(ch, [1, 2])
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


def test_batch_matches_reference_round():
    rng = np.random.default_rng(27)
    for K in (3, 4):
        ch, heff, _, _ = batch_rounds(K, 3, rng)
        z, _, inv = _interferer_guard(ch[:, 1:])
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
    got, heff, conds, resamples = batch_rounds(K, 6, rng)
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
])
def test_run_stia_round_rejects_bad_power_noise_and_snr(kwargs, word):
    ch, sb = _round(3, 60)
    with pytest.raises(ValueError, match=word):
        run_stia_round(ch, sb, rng=np.random.default_rng(0), **kwargs)


@pytest.mark.parametrize("snr", [0.0, -1.0, float("nan"), float("inf")])
def test_round_rate_rejects_snr_that_is_not_positive_and_finite(snr):
    with pytest.raises(ValueError, match="snr_linear"):
        round_rate(np.eye(2, dtype=complex), snr, 3)


@pytest.mark.parametrize("eff", [np.eye(3)[:2], np.eye(3), np.eye(2)[0]])
def test_round_rate_rejects_an_effective_channel_of_the_wrong_shape(eff):
    with pytest.raises(ValueError, match="shape"):
        round_rate(eff, 10.0, 3)


def test_symbol_block_leaves_the_callers_dict_alone():
    d = {1: [1, 2], 2: [1, 2], 3: [1, 2]}
    block = SymbolBlock(d)
    assert d == {1: [1, 2], 2: [1, 2], 3: [1, 2]} and all(type(v) is list for v in d.values())
    for vec in block.per_user.values():
        assert vec.dtype == complex and vec.shape == (2,)
