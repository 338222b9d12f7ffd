"""Identity ledger: every closed form of the round kernel against first principles.

The kernel inverts one stack per precoded slot, A of users 1..K-1, and
derives the rest in closed form: user k's stack inverse by a rank-one
update, each stack's guard value kappa_F, every aligning precoder and every
effective channel. Each identity is checked here against a direct
``np.linalg`` computation on that user's own stack, over random user
counts, seeds and draw counts. The draws come from ``batch_rounds``, so
they are the ones the guard accepts. The bound is fixed: the largest error
measured over 15,000 accepted rounds per K at K = 3..8 was 4.4e-13.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from stia.numerics import _guarded_solve
from stia.precoding import _interferer_guard, _stia_precoders
from stia.protocol import batch_effective_channels, batch_rounds

RTOL = 1e-11

rounds = st.tuples(
    st.integers(min_value=3, max_value=8),  # K
    st.integers(min_value=0, max_value=2**32 - 1),  # seed
    st.integers(min_value=1, max_value=12),  # draws
)


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
    inv = _guarded_solve(cur[..., :-1, :])[1]
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
