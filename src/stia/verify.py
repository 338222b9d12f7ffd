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
from .channel import _require_count, _require_integer, complex_normal
from .numerics import CONDITION_LIMIT, DEFAULT_RANK_TOL, _conditioning
from .precoding import _interferer_guard, _stia_precoders, _zf_gains
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

    Runs the noise-free signal path end to end on ``rounds`` random rounds:
    coefficient-level alignment residuals, signal-level leakage of every
    interferer after cancellation, relative decoding error, and the
    numerical rank of every effective channel. Decoding and rank use the
    kernel's null-vector effective channels, so every round checks the
    precoded signal against that algebra. ``inject_fault`` negates the
    reference CSI inside the precoder build, which must blow the alignment
    and cancellation residuals up to order one.

    ``worst_condition`` is the largest precoder guard value
    ``kappa_F = ||A||_F ||A^-1||_F`` over the accepted rounds' interferer
    stacks, an upper bound on their spectral condition numbers.
    """
    K = _require_count("K", K, 3)
    rounds = _require_count("rounds", rounds, 1)
    seed = _require_integer("seed", seed)
    rng = np.random.default_rng((seed & (1 << 64) - 1, K))
    ch, heff, conds, resamples = protocol.batch_rounds(K, rounds, rng)
    z, _, inv = _interferer_guard(ch[:, 1:])
    v = _stia_precoders(inv, z, -ch[:, :1] if inject_fault else ch[:, :1])

    # Coefficient-level alignment, one user k at a time: h_j[m] V_k[m] against h_j[ref] for j != k.
    den = np.max(np.abs(ch[:, 0]), axis=-1)[:, None, :]
    alignment = 0.0
    for k in range(K):
        got = np.einsum("cmji,cmia->cmja", ch[:, 1:], v[:, :, k]) - ch[:, :1]
        rel = np.max(np.abs(got), axis=-1) / den
        rel[:, :, k] = 0.0  # own rows carry the data, not interference
        alignment = max(alignment, float(rel.max()))

    # Noise-free signal path: broadcast, precoded slots, differences.
    symbols = complex_normal(rng, (rounds, K, K - 1))
    scales = protocol._slot_scales(v, None)
    diffs = protocol._differences(ch, protocol._transmit(v, symbols, scales), scales)
    leakage = float(protocol._leakage(ch, v, diffs, symbols).max())

    decoded = protocol._decode(heff, np.moveaxis(diffs, 1, 2))
    err = np.max(np.abs(decoded - symbols), axis=-1)
    mag = np.max(np.abs(symbols), axis=-1)
    decode_error = float((err / mag).max())

    s, cond_eff = _conditioning(heff)
    full = s[..., -1] > DEFAULT_RANK_TOL * s[..., 0]
    round_full = full.all(axis=1)
    flagged = cond_eff > CONDITION_LIMIT
    unflagged_failures = int(np.count_nonzero(~full & ~flagged))

    return {
        "rounds": rounds,
        "max_alignment_residual": alignment,
        "max_cancellation_leakage": leakage,
        "max_decode_error": decode_error,
        "full_rank_fraction": float(round_full.mean()),
        "unflagged_rank_failures": unflagged_failures,
        "worst_condition": float(conds.max()),
        "resamples": int(resamples),
    }


def plan_suite(k_values=(3, 4, 5, 6), n_max: int = 50) -> dict:
    """Partition and accounting invariants for every plan in the grid."""
    _require_count("n_max", n_max, 1)
    checked = 0
    failures = []
    for K in k_values:
        for n in range(1, n_max + 1):
            plan = build_plan_general(K, n)
            try:
                validate_plan(plan)
            except ValueError as err:
                failures.append(f"K={K} n={n}: {err}")
            checked += 1
    if not checked:
        raise ValueError("k_values must not be empty")
    golden = build_plan_general(3, 3)
    golden_ok = (
        golden.stia_rounds == ((1, 6, 8), (4, 9, 11), (7, 12, 14))
        and golden.zf_slots == frozenset({2, 3, 5, 15})
        and golden.tdma_slots == frozenset({10, 13})
    )
    dofs = [account_dof(build_plan_general(3, n)).dof for n in range(1, n_max + 1)]
    monotone = all(a <= b < 2 for a, b in zip(dofs, dofs[1:]))
    return {
        "plans_checked": checked,
        "violations": failures,
        "k3_golden_sets_match": golden_ok,
        "k3_dof_monotone_below_limit": monotone,
        "passed": not failures and golden_ok and monotone,
    }


def power_suite(trials: int = 10_000, seed: int = 7) -> dict:
    """Expected transmit power per slot type against the budget, exactly.

    For unit-variance symbols it is the sum of ``||x(e_i)||^2`` over the
    standard-basis symbol vectors; every realization must meet the budget.
    Runs at K=3 with a budget of 10.
    """
    trials = _require_count("trials", trials, 1)
    seed = _require_integer("seed", seed)
    rng = np.random.default_rng((seed & (1 << 64) - 1, 101))
    K, power = 3, 10.0
    n_t = K - 1

    ch, _, _, _ = protocol.batch_rounds(K, trials, rng)
    z, _, inv = _interferer_guard(ch[:, 1:])
    v = _stia_precoders(inv, z, ch[:, :1])
    scales = protocol._slot_scales(v, power)
    slot_power = np.zeros((trials, K))
    for e in np.eye(K * n_t, dtype=complex):
        x = protocol._transmit(v, np.broadcast_to(e.reshape(K, n_t), (trials, K, n_t)), scales)
        slot_power += np.sum(np.abs(x) ** 2, axis=-1)

    gains, inv, _ = _zf_gains(complex_normal(rng, (trials, n_t, n_t)))
    beams = inv * np.sqrt(gains)[:, None, :]  # unit-norm columns
    zf = (power / n_t) * np.sum(np.abs(beams) ** 2, axis=(1, 2))

    h = complex_normal(rng, (trials, n_t))
    beam = h.conj() / np.linalg.norm(h, axis=1, keepdims=True)
    tdma = power * np.sum(np.abs(beam) ** 2, axis=1)

    per_type = {
        "phase_one": slot_power[:, 0],
        "phase_two": slot_power[:, 1:].ravel(),
        "zf": zf,
        "tdma": tdma,
    }
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
