"""Tests for the property-suite driver."""

import pytest

from stia import verify


def test_round_sweep_clean():
    r = verify.round_sweep(3, 300, seed=1)
    assert r["max_alignment_residual"] <= 1e-9
    assert r["max_cancellation_leakage"] <= 1e-9
    assert r["max_decode_error"] <= 1e-8
    assert r["full_rank_fraction"] >= 0.999
    assert r["unflagged_rank_failures"] == 0


def test_round_sweep_fault_injection_bites():
    r = verify.round_sweep(3, 100, seed=1, inject_fault=True)
    assert r["max_alignment_residual"] > 1e-3
    assert r["max_cancellation_leakage"] > 1e-3


def test_plan_suite_passes():
    r = verify.plan_suite(k_values=(3, 4), n_max=20)
    assert r["passed"]
    assert r["plans_checked"] == 40
    assert r["violations"] == []


def test_power_suite_within_tolerance():
    r = verify.power_suite(trials=10_000, seed=7)
    assert r["passed"]
    for name, realized in r["realized"].items():
        assert realized == pytest.approx(r["target_power"], rel=0.02), name


def test_run_all_aggregates():
    report = verify.run_all(k_values=(3,), rounds=200, seed=5)
    assert report["passed"]
    assert report["alignment"]["passed"]
    assert report["plans"]["k3_golden_sets_match"]


def test_run_all_fails_with_fault():
    report = verify.run_all(k_values=(3,), rounds=100, seed=5, inject_fault="alignment")
    assert not report["passed"]
    assert not report["alignment"]["passed"]


def test_run_all_input_validation():
    with pytest.raises(ValueError):
        verify.run_all(k_values=(2,), rounds=10)
    with pytest.raises(ValueError):
        verify.run_all(inject_fault="bogus")
    with pytest.raises(ValueError, match="rounds"):
        verify.run_all(k_values=(3,), rounds=0)


@pytest.mark.parametrize("seed", [45, 50, 79332259700])
def test_power_suite_exact_where_a_sampled_mean_strayed(seed):
    # A 10,000-symbol Monte Carlo mean of these seeds missed the budget by
    # more than 2%; the exact expected power meets it to rounding.
    r = verify.power_suite(seed=seed)
    assert r["passed"]
    assert r["max_relative_error"] <= verify.POWER_RTOL
