"""Batched property sweeps: alignment, cancellation, decoding, rank, plans, power.

Each suite draws a fixed number of random rounds per user count, runs the
vectorized round machinery and reports worst-case residuals together with
pass/fail flags. The whole report is JSON-ready and deterministic in the
seed. A deliberately broken precoder (negated reference CSI) can be
injected to prove the alignment and cancellation suites actually bite.
"""

from __future__ import annotations

import numpy as np

from . import protocol
from .channel import _keyed_rng, _require_count, _require_integer, complex_normal
from .numerics import CONDITION_LIMIT
from .precoding import _stia_precoders
from .scheduler import account_dof, build_plan_general, validate_plan

__all__ = [
    "ALIGNMENT_TOL",
    "DECODE_TOL",
    "LEAKAGE_TOL",
    "POWER_RTOL",
    "RANK_MIN_FRACTION",
    "round_sweep",
    "plan_suite",
    "power_suite",
    "run_all",
]

ALIGNMENT_TOL = 1e-9
LEAKAGE_TOL = 1e-9
DECODE_TOL = 1e-8
RANK_MIN_FRACTION = 0.999
# The power checks are exact sums, so only rounding separates them from the budget.
POWER_RTOL = 1e-9

# Round-sweep verdicts: report key, the limit's name, the limit, and the test every K's sweep must pass.
_SWEEP_VERDICTS = (
    ("alignment", "tolerance", ALIGNMENT_TOL, lambda s, tol: s["max_alignment_residual"] <= tol),
    ("cancellation", "tolerance", LEAKAGE_TOL, lambda s, tol: s["max_cancellation_leakage"] <= tol),
    ("decoding", "tolerance", DECODE_TOL, lambda s, tol: s["max_decode_error"] <= tol),
    ("rank", "min_fraction", RANK_MIN_FRACTION,
     lambda s, least: s["full_rank_fraction"] >= least and s["unflagged_rank_failures"] == 0),
)


def round_sweep(K: int, rounds: int, seed: int, inject_fault: bool = False) -> dict:
    """Alignment, cancellation, decoding and rank statistics over random rounds.

    Sends ``rounds`` random rounds noise-free through :func:`protocol._send`:
    coefficient-level alignment residuals, signal-level leakage of every
    interferer after cancellation, relative decoding error, and the rank of
    every effective channel, full when its ``kappa_F`` passes the draws' guard.
    Both come from :func:`protocol._decode_round`, one inverse per round of the
    interference mixture G: user k's effective channel is ``diag(1/z_.k) G``, so
    every round checks the precoded signal against the null-vector algebra
    without forming an effective channel. ``unflagged_rank_failures`` counts the rounds whose every
    effective channel passes that flag but whose decode still misses
    :data:`DECODE_TOL`: decoding that contradicts the full-rank flag.
    ``inject_fault`` negates the reference CSI the precoders
    align to, which must blow the alignment and cancellation residuals up
    to order one.

    Rounds and symbols are one draw each; the checks run per :func:`protocol._slices`
    slice, keeping running maxima and counts, so no temporary grows with ``rounds``.
    The draw is :func:`protocol.batch_rounds`' and keeps each slot's guard ``z`` and ``A^-1``, so every
    slot is inverted once and precoded from the values :func:`~stia.precoding.build_stia_precoders` uses.
    Alignment takes one batched matmul per precoded slot m, of ``H[m]`` (K x K-1) with
    ``[V_1[m] | ... | V_K[m]]`` (K-1 x K(K-1)); block (j, k) of the product is ``h_j[m] V_k[m]``,
    and ``max_alignment_residual`` is the largest ``max|h_j[m] V_k[m] - h_j[ref]| / max|h_j[ref]|``
    over j != k, slots and rounds.

    ``worst_condition`` is the largest precoder guard value
    ``kappa_F = ||A||_F ||A^-1||_F`` over the accepted rounds' interferer
    stacks, an upper bound on their spectral condition numbers.
    """
    K = _require_count("K", K, 3)
    rounds = _require_count("rounds", rounds, 1)
    seed = _require_integer("seed", seed)
    rng = _keyed_rng(seed, K)
    ch, z, inv, conds, resamples = _draw_rounds(K, rounds, rng)
    symbols = complex_normal(rng, (rounds, K, K - 1))
    alignment = leakage = decode_error = 0.0
    full_rounds = unflagged = 0
    for sl in protocol._slices(ch):
        c, sent = ch[sl], symbols[sl]
        ref = -c[:, :1] if inject_fault else c[:, :1]
        v, vs, diffs = protocol._send(c, z[sl], inv[sl], ref, sent, None, None)
        leakage = np.maximum(leakage, protocol._leakage(c, vs, diffs, sent).max())
        del vs  # free the slice's V_k s_k before the alignment temporaries

        # Coefficient-level alignment per precoded slot: block (j, k) of H[m] [V_1[m] | ... | V_K[m]].
        den = np.max(np.abs(c[:, 0]), axis=-1)[:, :, None, None]
        for m in range(K - 1):
            side = v[:, m].transpose(0, 2, 1, 3).reshape(len(c), K - 1, K * (K - 1))
            got = (c[:, 1 + m] @ side).reshape(len(c), K, K, K - 1)  # round, row j, precoder k, antenna
            got -= c[:, 0, :, None, :]
            res = np.abs(got)
            res /= den  # before the max, to the same value: rounding is monotone
            res.reshape(len(c), K * K, K - 1)[:, :: K + 1] = 0.0  # own rows (j = k) carry the data
            alignment = np.maximum(alignment, res.max())  # a NaN residual stays NaN
        del v, side, got, res  # the next slice's _send forms its own

        decoded, cond_eff = protocol._decode_round(protocol._mixture(c, z[sl]), z[sl], diffs)
        err = (np.max(np.abs(decoded - sent), axis=-1) / np.max(np.abs(sent), axis=-1)).max(axis=1)
        decode_error = np.maximum(decode_error, err.max())
        full = (cond_eff <= CONDITION_LIMIT).all(axis=1)
        full_rounds += int(np.count_nonzero(full))
        unflagged += int(np.count_nonzero(full & ~(err <= DECODE_TOL)))  # a NaN decode misses too

    return {
        "rounds": rounds,
        "max_alignment_residual": float(alignment),
        "max_cancellation_leakage": float(leakage),
        "max_decode_error": float(decode_error),
        "full_rank_fraction": full_rounds / rounds,
        "unflagged_rank_failures": unflagged,
        "worst_condition": float(conds.max()),
        "resamples": int(resamples),
    }


def _draw_rounds(K: int, count: int, rng) -> tuple:
    """:func:`protocol.batch_rounds`' draw, with every precoded slot's guard ``A^-1`` kept beside its ``z``."""
    return protocol._redraw_guarded(lambda n: protocol.draw_round_channels(K, n, rng), protocol._slot_guard, count)


def plan_suite(k_values=(3, 4, 5, 6), n_max: int = 50) -> dict:
    """Partition and accounting invariants for every plan in the grid."""
    n_max = _require_count("n_max", n_max, 1)
    k_values = tuple(k_values)
    if not k_values:
        raise ValueError("k_values must not be empty")
    k3 = [build_plan_general(3, n) for n in range(1, max(n_max, 3) + 1)]  # the grid's, golden's and DoF's
    failures = []
    for K in k_values:
        K = _require_count("K", K, 3)
        for n in range(1, n_max + 1):
            plan = k3[n - 1] if K == 3 else build_plan_general(K, n)
            try:
                validate_plan(plan)
            except ValueError as err:
                failures.append(f"K={K} n={n}: {err}")
    golden = k3[2]
    golden_ok = (
        golden.stia_rounds == ((1, 6, 8), (4, 9, 11), (7, 12, 14))
        and golden.zf_slots == frozenset({2, 3, 5, 15})
        and golden.tdma_slots == frozenset({10, 13})
    )
    dofs = [account_dof(plan).dof for plan in k3[:n_max]]
    monotone = all(a <= b < 2 for a, b in zip(dofs, dofs[1:]))
    return {
        "plans_checked": len(k_values) * n_max,
        "violations": failures,
        "k3_golden_sets_match": golden_ok,
        "k3_dof_monotone_below_limit": monotone,
        "passed": not failures and golden_ok and monotone,
    }


def power_suite(trials: int = 10_000, seed: int = 7) -> dict:
    """Expected transmit power of every aligned slot against the budget, exactly.

    For unit-variance symbols it is the sum of ``||x(e_i)||^2`` over the
    standard-basis symbol vectors; every realization must meet the budget.
    Runs at K=3 with a budget of 10, through the signal path's own
    :func:`protocol._slot_scales` and :func:`protocol._transmit`. The aligned
    rounds are one draw, checked per :func:`protocol._slices` slice, precoded as
    :func:`round_sweep` from the draw's guard. ZF and TDMA slots are priced from their gains and form
    no beam, so they have no power to check here.
    """
    trials = _require_count("trials", trials, 1)
    seed = _require_integer("seed", seed)
    K, power = 3, 10.0
    n_t = K - 1

    ch, z, inv, _, _ = _draw_rounds(K, trials, _keyed_rng(seed, 101))
    slot_power = np.zeros((trials, K))
    for sl in protocol._slices(ch):
        v = _stia_precoders(inv[sl], z[sl], ch[sl, :1])
        scales = protocol._slot_scales(v, power)
        for e in np.eye(K * n_t, dtype=complex):
            x = protocol._transmit(v, np.broadcast_to(e.reshape(K, n_t), (len(v), K, n_t)), scales)[1]
            slot_power[sl] += np.sum(np.abs(x) ** 2, axis=-1)

    per_type = {"phase_one": slot_power[:, 0], "phase_two": slot_power[:, 1:].ravel()}
    worst = max(float(np.max(np.abs(p / power - 1.0))) for p in per_type.values())
    return {
        "target_power": power,
        "realized": {name: float(np.mean(p)) for name, p in per_type.items()},
        "max_relative_error": worst,
        "tolerance": POWER_RTOL,
        "passed": worst <= POWER_RTOL,
    }


def run_all(
    k_values=(3, 4, 5, 6),
    rounds: int = 1000,
    seed: int = 2024,
    inject_fault: str = "none",
) -> dict:
    """Run every suite and aggregate a JSON-ready pass/fail report."""
    if inject_fault not in ("none", "alignment"):
        raise ValueError("inject_fault must be 'none' or 'alignment'")
    seed = _require_integer("seed", seed)
    k_values = tuple(k_values)
    for k in k_values:
        _require_count("each of k_values", k, 3)
    if not k_values or len(set(k_values)) != len(k_values):
        raise ValueError(f"k_values must be distinct user counts of at least 3, got {list(k_values)}")
    sweeps = {str(k): round_sweep(k, rounds, seed, inject_fault == "alignment") for k in k_values}
    report = {
        "schema_version": 1,
        "seed": seed,
        "rounds_per_k": rounds,
        "k_values": list(map(int, k_values)),
        "inject_fault": inject_fault,
        "round_sweeps": sweeps,
        **{
            name: {limit_name: limit, "passed": all(test(s, limit) for s in sweeps.values())}
            for name, limit_name, limit, test in _SWEEP_VERDICTS
        },
        "plans": plan_suite(k_values=k_values),
        "power": power_suite(seed=seed),
    }
    report["passed"] = all(v["passed"] for v in report.values() if isinstance(v, dict) and "passed" in v)
    return report
