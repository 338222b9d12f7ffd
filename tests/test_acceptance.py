"""Acceptance suite: the release gate, one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from stia import verify
from stia.analysis import (
    baseline_zf_mat,
    baseline_zf_tdma,
    estimate_dof_slope,
    tradeoff_k3,
)
from stia.channel import DelayConfig, coherence_time_estimate
from stia.cli import main as cli_main
from stia.scheduler import account_dof, build_plan_general, build_plan_k3, validate_plan

K_SWEEP = (3, 4, 5, 6)
ROUNDS = 1000
SEED = 2024


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def round_sweeps():
    start = time.perf_counter()
    sweeps = {k: verify.round_sweep(k, ROUNDS, SEED) for k in K_SWEEP}
    sweeps["elapsed"] = time.perf_counter() - start
    return sweeps


def test_criterion_1_alignment_exactness(round_sweeps):
    worst = max(round_sweeps[k]["max_cancellation_leakage"] for k in K_SWEEP)
    elapsed = round_sweeps["elapsed"]
    ok = worst <= 1e-9 and elapsed < 10.0
    _line(
        "1 alignment exactness",
        ok,
        f"max relative leakage {worst:.3e} (tol 1e-9) over {ROUNDS} rounds x K in {K_SWEEP}, "
        f"sweep took {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_noise_free_decoding(round_sweeps):
    worst = max(round_sweeps[k]["max_decode_error"] for k in K_SWEEP)
    ok = worst <= 1e-8
    _line("2 noise-free decoding", ok, f"max relative symbol error {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_3_effective_channel_rank(round_sweeps):
    fractions = {k: round_sweeps[k]["full_rank_fraction"] for k in K_SWEEP}
    unflagged = {k: round_sweeps[k]["unflagged_rank_failures"] for k in K_SWEEP}
    ok = all(f >= 0.999 for f in fractions.values()) and all(u == 0 for u in unflagged.values())
    _line(
        "3 effective-channel rank",
        ok,
        f"full-rank fraction per K {fractions}, unflagged failures {unflagged}",
    )
    assert ok


def test_criterion_4_dof_slopes():
    grid = (40.0, 50.0, 60.0)
    trials = 10_000
    cases = [
        ("stia", 3, DelayConfig(3, 1), (1.85, 2.05)),
        ("zf_tdma", 3, DelayConfig(3, 1), (1.57, 1.77)),
        ("tdma", 3, DelayConfig(3, 1), (0.95, 1.05)),
        ("zf", 3, DelayConfig(3, 0), (1.90, 2.10)),
        ("stia", 4, DelayConfig(4, 1), (2.80, 3.10)),
    ]
    start = time.perf_counter()
    results = []
    for scheme, k, delay, band in cases:
        est = estimate_dof_slope(scheme, k, delay, grid, trials, seed=7)
        results.append((scheme, k, est.slope, band))
    elapsed = time.perf_counter() - start
    ok = all(lo <= slope <= hi for _, _, slope, (lo, hi) in results) and elapsed < 120.0
    detail = ", ".join(
        f"{scheme} K={k} slope={slope:.3f} in [{lo},{hi}]"
        for scheme, k, slope, (lo, hi) in results
    )
    _line("4 Monte Carlo DoF slopes", ok, f"{detail}; took {elapsed:.1f}s")
    for scheme, k, slope, (lo, hi) in results:
        assert lo <= slope <= hi, (scheme, k, slope)
    assert elapsed < 120.0


def test_criterion_5_scheduler_golden_values():
    plan = build_plan_k3(3)
    golden = (
        plan.stia_rounds == ((1, 6, 8), (4, 9, 11), (7, 12, 14))
        and plan.zf_slots == frozenset({2, 3, 5, 15})
        and plan.tdma_slots == frozenset({10, 13})
    )
    rationals = all(
        account_dof(build_plan_k3(n)).dof == Fraction(6 * n + 10, 3 * n + 6)
        for n in range(1, 101)
    )
    near_two = abs(float(account_dof(build_plan_k3(10_000)).dof) - 2.0) < 1e-3
    ok = golden and rationals and near_two
    _line(
        "5 scheduler golden values",
        ok,
        f"n=3 sets match={golden}, exact rational n in 1..100={rationals}, "
        f"n=1e4 within 1e-3 of 2={near_two}",
    )
    assert ok


def test_criterion_6_tradeoff_curve():
    points = {
        Fraction(0): Fraction(2),
        Fraction(1, 3): Fraction(2),
        Fraction(2, 3): Fraction(7, 4),
        Fraction(1): Fraction(3, 2),
        Fraction(3, 2): Fraction(3, 2),
    }
    curve_ok = all(tradeoff_k3(g) == d for g, d in points.items())
    baseline_ok = (
        baseline_zf_tdma(Fraction(1, 3)) == Fraction(5, 3)
        and baseline_zf_mat(Fraction(1, 3)) == Fraction(11, 6)
    )
    gaps_ok = (
        tradeoff_k3(Fraction(1, 3)) - baseline_zf_tdma(Fraction(1, 3)) == Fraction(1, 3)
        and tradeoff_k3(Fraction(1, 3)) - baseline_zf_mat(Fraction(1, 3)) == Fraction(1, 6)
    )
    ok = curve_ok and baseline_ok and gaps_ok
    _line(
        "6 trade-off curve",
        ok,
        f"curve points exact={curve_ok}, baselines 5/3 and 11/6={baseline_ok}, "
        f"gaps 1/3 and 1/6={gaps_ok}",
    )
    assert ok


def test_criterion_7_coherence_time_example():
    t_c = coherence_time_estimate(2.1e9, 3000 / 3600)
    ok = abs(t_c - 21.4e-3) <= 0.1e-3
    _line("7 coherence-time example", ok, f"2.1 GHz at 3 km/h gives {t_c * 1e3:.3f} ms (21.4 +/- 0.1)")
    assert ok


def test_criterion_8_property_suites(tmp_path):
    plans = verify.plan_suite(k_values=K_SWEEP, n_max=50)

    out1 = tmp_path / "det1.json"
    out2 = tmp_path / "det2.json"
    flags = [
        "simulate", "--scheme", "stia", "--k", "3", "--tc", "3", "--tfb", "1",
        "--snr", "40,50,60", "--trials", "500", "--seed", "7",
    ]
    assert cli_main(flags + ["--out", str(out1)]) == 0
    assert cli_main(flags + ["--out", str(out2)]) == 0
    deterministic = out1.read_bytes() == out2.read_bytes()

    power = verify.power_suite(trials=10_000, seed=SEED)

    ok = plans["passed"] and deterministic and power["passed"]
    _line(
        "8 property suites",
        ok,
        f"partition invariants for {plans['plans_checked']} plans={plans['passed']}, "
        f"byte-identical reruns={deterministic}, "
        f"power within {verify.POWER_RTOL:g} relative={power['passed']} (realized {power['realized']})",
    )
    assert plans["passed"]
    assert deterministic
    assert power["passed"]
