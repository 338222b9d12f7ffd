"""Identity ledger: every closed form of the round kernel against first principles.

The kernel inverts one stack per precoded slot, A of users 1..K-1, and
derives the rest in closed form: user k's stack inverse by a rank-one
update, each stack's guard value kappa_F, every aligning precoder and every
effective channel. Each identity is checked here against a direct
``np.linalg`` computation on that user's own stack, over random user
counts, seeds and draw counts. The draws come from ``batch_rounds``, so
they are the ones the guard accepts. The bound is fixed: the largest error
measured over 15,000 accepted rounds per K at K = 3..8 was 4.4e-13.

Every round is priced by ``_round_bits``, ``log2 det(C + p H H^H)`` less
``log2 det C = log2 K``: at K >= 4 from the LDL^H pivots of the whole
matrix, eliminated in place, and at K=3 from two pivots in closed form,
where every stack is 2x2. Both are checked here, Gram included, against
the log-det in exact Fraction arithmetic. The elimination is backward
stable, so the error grows with the matrix's condition number: over 100
rounds per K at K = 3..8 and 0 to 120 dB the largest error was 2.0e-14
times ``cond_2``. At K=3 the stack inverse, the guard values and the null
vectors are 2x2 closed forms too, and at K=4 they come from the six cross
products of the slot's rows, or from LAPACK for a slot past their gate;
both are checked against ``np.linalg.inv``.

Decoding, ``protocol._decode``, multiplies the differences by each effective
channel's guarded inverse and reports its kappa_F; it is checked against
``np.linalg.solve`` within ``RTOL`` times that kappa_F. User k's effective
channel is ``diag(1/z_.k) G`` for the round's interference mixture G, so
``protocol._decode_round`` decodes every user of a round from one inverse of
G and takes each user's kappa_F from G, G^-1 and z in closed form. Against
``_guarded_solve`` of each effective channel that kappa_F agreed within
1.6e-13 relative over 15,000 rounds per K at K = 3..6, and its decode with a
per-user ``np.linalg.solve`` within 3.5e-16 times kappa_F.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from stia.channel import complex_normal
from stia.numerics import _guarded_solve
from stia.precoding import _interferer_guard, _stia_precoders
from stia.protocol import (
    _decode,
    _decode_round,
    _mixture,
    _round_bits,
    batch_effective_channels,
    batch_rounds,
)

RTOL = 1e-11
LOG2DET_TOL = 3e-12  # bits per unit of cond_2

rounds = st.tuples(
    st.integers(min_value=3, max_value=8),  # K
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
    st.integers(min_value=1, max_value=12),  # draws
)


def _cov(K):
    """The differenced noises' covariance I + 11^T: the broadcast-slot noise is common to all K-1."""
    return np.eye(K - 1) + np.ones((K - 1, K - 1))


def _draw(case):
    K, seed, count = case
    ch, _, _, _ = batch_rounds(K, count, np.random.default_rng(seed))
    return K, ch


def _stack(rows, k):
    """Rows of every user but k, in user order: user k's interferer stack."""
    return np.delete(rows, k, axis=-2)


def _rel(got, want, axes):
    return np.max(np.linalg.norm(got - want, axis=axes) / np.linalg.norm(want, axis=axes))


@given(rounds)
def test_stack_inverses_are_rank_one_updates_of_one_inverse(case):
    # User k's stack, up to row order, is A with row k replaced by h_K = c A,
    # so its inverse is A^-1 - A^-1 e_k (c - e_k)^T / c_k (Sherman-Morrison).
    K, ch = _draw(case)
    cur = ch[:, 1:]
    inv = _guarded_solve(cur[..., :-1, :])[0]
    c = _interferer_guard(cur)[0][..., :-1]
    assert _rel(inv, np.linalg.inv(cur[..., :-1, :]), (-2, -1)) <= RTOL
    for k in range(K - 1):
        e_k = np.eye(K - 1)[k]
        updated = inv - inv[..., :, k, None] * ((c - e_k) / c[..., k, None])[..., None, :]
        swapped = cur[..., :-1, :].copy()
        swapped[..., k, :] = cur[..., -1, :]
        assert _rel(updated, np.linalg.inv(swapped), (-2, -1)) <= RTOL


@given(rounds)
def test_guard_values_are_frobenius_condition_numbers(case):
    K, ch = _draw(case)
    cur = ch[:, 1:]
    cond = _interferer_guard(cur)[1]
    for k in range(K):
        a = _stack(cur, k)
        want = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(a), axis=(-2, -1))
        assert np.max(np.abs(cond[..., k] / want - 1.0)) <= RTOL


@given(rounds)
def test_precoders_match_per_user_solves(case):
    K, ch = _draw(case)
    z, _, inv = _interferer_guard(ch[:, 1:])
    v = _stia_precoders(inv, z, ch[:, :1])
    ref = np.broadcast_to(ch[:, :1], ch[:, 1:].shape)
    for k in range(K):
        want = np.linalg.solve(_stack(ch[:, 1:], k), _stack(ref, k))
        assert _rel(v[:, :, k], want, (-2, -1)) <= RTOL


@given(rounds)
def test_effective_channels_match_solved_precoders(case):
    # Row m of user k's effective channel is h_k[ref] - h_k[m] V_k[m].
    K, ch = _draw(case)
    heff = batch_effective_channels(ch, _interferer_guard(ch[:, 1:])[0])
    ref = np.broadcast_to(ch[:, :1], ch[:, 1:].shape)
    for k in range(K):
        v = np.linalg.solve(_stack(ch[:, 1:], k), _stack(ref, k))
        want = ch[:, 0, k][:, None] - np.einsum("cmi,cmia->cma", ch[:, 1:, k], v)
        assert _rel(heff[:, k], want, -1) <= RTOL


@given(rounds)
def test_decode_matches_a_lapack_solve(case):
    # Every user's symbols from its effective channel's guarded inverse, against a direct solve.
    K, seed, count = case
    rng = np.random.default_rng(seed)
    ch, z, _, _ = batch_rounds(K, count, rng)
    heff = batch_effective_channels(ch, z)
    d = complex_normal(rng, heff.shape[:-1])
    got, cond, _ = _decode(heff, d)
    want = np.linalg.solve(heff, d[..., None])[..., 0]
    assert np.all(np.linalg.norm(got - want, axis=-1) <= RTOL * cond * np.linalg.norm(want, axis=-1))


mixed = st.tuples(
    st.integers(min_value=3, max_value=6),  # K
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
    st.integers(min_value=1, max_value=12),  # draws
)


def _decoded_round(case):
    """A draw's effective channels, random differences, and _decode_round's symbols and kappa_F from its mixture."""
    K, seed, count = case
    rng = np.random.default_rng(seed)
    ch, z, _, _ = batch_rounds(K, count, rng)
    heff = batch_effective_channels(ch, z)
    d = complex_normal(rng, heff.shape[:-1])
    return heff, d, *_decode_round(_mixture(ch, z), z, d)


@given(rounds)
def test_effective_channels_are_the_mixture_over_each_users_null_vector_entries(case):
    # Row m of user k's effective channel is z_m^T H[ref] / z_mk: the mixture G with row m divided by z_mk.
    K, seed, count = case
    ch, z, _, _ = batch_rounds(K, count, np.random.default_rng(seed))
    g = _mixture(ch, z)
    assert _rel(g, z @ ch[:, 0], -1) <= RTOL
    want = g[:, None] / z.transpose(0, 2, 1)[..., None]
    assert _rel(batch_effective_channels(ch, z), want, (-2, -1)) <= RTOL


@given(mixed)
def test_round_decode_condition_numbers_are_the_effective_channels(case):
    # kappa_F(diag(1/z_.k) G) = sqrt(sum_m ||G_m||^2 / |z_mk|^2 * sum_m ||G^-1 e_m||^2 |z_mk|^2).
    heff, _, _, cond = _decoded_round(case)
    assert np.max(np.abs(cond / _guarded_solve(heff)[1] - 1.0)) <= RTOL


@given(mixed)
def test_round_decode_matches_a_per_user_lapack_solve(case):
    # s_k = G^-1 (z_.k * d_k) against a solve of each user's own effective channel.
    heff, d, got, cond = _decoded_round(case)
    want = np.linalg.solve(heff, d[..., None])[..., 0]
    assert np.all(np.linalg.norm(got - want, axis=-1) <= RTOL * cond * np.linalg.norm(want, axis=-1))


priced = st.tuples(
    st.integers(min_value=3, max_value=8),  # K
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
    st.sampled_from((0.0, 30.0, 60.0, 90.0, 120.0)),  # SNR in dB
)


def _exact_log2det_of(m):
    """log2 det of a Hermitian positive definite matrix of exact (real, imaginary) Fraction pairs."""
    det = Fraction(1)
    for j in range(len(m)):
        pr, pi = m[j][j]
        assert pi == 0 and pr > 0  # Schur complements of a Hermitian matrix stay Hermitian
        det *= pr
        for i in range(j + 1, len(m)):
            fr, fi = m[i][j][0] / pr, m[i][j][1] / pr
            for k in range(j + 1, len(m)):
                (ar, ai), (br, bi) = m[j][k], m[i][k]
                m[i][k] = (br - (fr * ar - fi * ai), bi - (fr * ai + fi * ar))
    return math.log2(det.numerator) - math.log2(det.denominator)


@given(priced)
def test_round_bits_match_an_exact_log_det(case):
    # The pricing call itself, Gram included, against log2 det(C + p H H^H) - log2 det C
    # formed exactly from the float64 entries of H and the float per-symbol power p.
    K, seed, db = case
    ch, z, _, _ = batch_rounds(K, 1, np.random.default_rng(seed))
    h = batch_effective_channels(ch, z)[0]
    snr = 10.0 ** (db / 10.0)
    p = snr / (K * (K - 1))
    bits = _round_bits(h, snr)
    cov = _cov(K)
    for k, hk in enumerate(h):
        rows = [[(Fraction(x.real), Fraction(x.imag)) for x in row] for row in hk]
        gram = [[(sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(ra, rb)),
                  sum(ai * br - ar * bi for (ar, ai), (br, bi) in zip(ra, rb))) for rb in rows] for ra in rows]
        exact = [[(Fraction(cov[a, b]) + Fraction(p) * g[0], Fraction(p) * g[1]) for b, g in enumerate(row)]
                 for a, row in enumerate(gram)]
        want = _exact_log2det_of(exact) - math.log2(K)  # det C = K
        assert abs(bits[k] - want) <= LOG2DET_TOL * np.linalg.cond(cov + p * (hk @ hk.conj().T))


def _check_closed_forms(K, seed, count):
    """The guard's A^-1, z = (h_K A^-1, -1) and every user's kappa_F against np.linalg.inv of each user's stack."""
    ch, _, _, _ = batch_rounds(K, count, np.random.default_rng(seed))
    cur = ch[:, 1:]
    z, cond, inv = _interferer_guard(cur)
    want = np.linalg.inv(cur[..., :-1, :])
    assert _rel(inv, want, (-2, -1)) <= RTOL
    assert _rel(z[..., :-1], np.einsum("...i,...ij->...j", cur[..., -1, :], want), -1) <= RTOL
    np.testing.assert_array_equal(z[..., -1], -1.0)
    for k in range(K):
        a = _stack(cur, k)
        kappa = np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(np.linalg.inv(a), axis=(-2, -1))
        assert np.max(np.abs(cond[..., k] / kappa - 1.0)) <= RTOL


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_k3_closed_forms_match_lapack_inverses(seed, count):
    # At K=3 the guard's A^-1, its null vectors z = (h_3 A^-1, -1) and every user's kappa_F
    # come from 2x2 closed forms; here each comes from np.linalg.inv of that user's own stack.
    _check_closed_forms(3, seed, count)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_k4_closed_forms_match_lapack_inverses(seed, count):
    # At K=4 they come from the six cross products of the slot's rows, or from LAPACK for a slot
    # past the cross products' gate; here each comes from np.linalg.inv of that user's own stack.
    _check_closed_forms(4, seed, count)
