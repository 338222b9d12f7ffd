"""Tests for the property-suite driver."""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from stia import protocol, verify
from stia.channel import _keyed_rng
from stia.precoding import build_stia_precoders


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


@pytest.mark.parametrize("k,m", list(itertools.product(range(4), range(3))))
def test_alignment_sees_one_precoder_off_at_one_slot(k, m, monkeypatch):
    # Negating every reference moves every block at once; this moves the (k, m) block alone.
    precoders = protocol._stia_precoders

    def skewed(inv, z, reference):
        v = precoders(inv, z, reference)
        v[:, m, k] *= 1.001
        return v

    monkeypatch.setattr(protocol, "_stia_precoders", skewed)
    assert verify.round_sweep(4, 20, seed=1)["max_alignment_residual"] > verify.ALIGNMENT_TOL


def test_alignment_reports_a_nan_precoder_entry(monkeypatch):
    # A running maximum taken with Python's max drops a NaN met after a finite value.
    precoders = protocol._stia_precoders

    def poisoned(inv, z, reference):
        v = precoders(inv, z, reference)
        v[-1, -1, 0, 0, 0] = np.nan
        return v

    monkeypatch.setattr(protocol, "_stia_precoders", poisoned)
    assert np.isnan(verify.round_sweep(4, 20, seed=1)["max_alignment_residual"])


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_round_sweep_sends_the_precoders_the_library_builds(K, monkeypatch):
    # The sweep precodes from its draw's guard; build_stia_precoders guards each round anew, bit for bit alike.
    precoders, sent = protocol._stia_precoders, []

    def recorded(inv, z, reference):
        sent.append(precoders(inv, z, reference))
        return sent[-1]

    monkeypatch.setattr(protocol, "_stia_precoders", recorded)
    verify.round_sweep(K, 200, 3)
    ch = protocol.batch_rounds(K, 200, _keyed_rng(3, K))[0]
    v = np.concatenate(sent)
    assert len(v) == len(ch)
    for c, got in zip(ch, v):
        np.testing.assert_array_equal(got, build_stia_precoders(c[1:], c[0]))


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


def _negate_the_reference_csi(monkeypatch):
    return {"inject_fault": "alignment"}


def _shift_every_decoded_symbol(monkeypatch):
    # Leaves every kappa_F as it is, so the full-rank flag still passes each round.
    decode = protocol._decode

    def shifted(mat, rhs):
        symbols, *rest = decode(mat, rhs)
        return symbols + 1e-6, *rest

    monkeypatch.setattr(protocol, "_decode", shifted)
    return {}


def _leave_a_slot_out_of_every_plan(monkeypatch):
    build = verify.build_plan_general

    def short(K, n):
        plan = build(K, n)
        return dataclasses.replace(plan, horizon=plan.horizon + 1)

    monkeypatch.setattr(verify, "build_plan_general", short)
    return {}


def _overscale_every_slot(monkeypatch):
    scales = protocol._slot_scales
    monkeypatch.setattr(protocol, "_slot_scales", lambda v, power: 1.01 * scales(v, power))
    return {}


# One program fault per verdict of run_all; a verdict added without one fails the test below.
_VERDICT_FAULTS = {
    "alignment": _negate_the_reference_csi,
    "cancellation": _negate_the_reference_csi,
    "decoding": _shift_every_decoded_symbol,
    "rank": _shift_every_decoded_symbol,
    "plans": _leave_a_slot_out_of_every_plan,
    "power": _overscale_every_slot,
}


@pytest.mark.parametrize("verdict", list(_VERDICT_FAULTS))
def test_every_verdict_fails_under_its_injected_fault(verdict, monkeypatch):
    report = verify.run_all(k_values=(3, 4), rounds=50, seed=5, **_VERDICT_FAULTS[verdict](monkeypatch))
    verdicts = [name for name, entry in report.items() if isinstance(entry, dict) and "passed" in entry]
    assert verdicts == list(_VERDICT_FAULTS)
    assert not report[verdict]["passed"] and not report["passed"]
    if verdict == "rank":
        # The full-rank flag holds, so the verdict fails through its unflagged clause alone.
        for sweep in report["round_sweeps"].values():
            assert sweep["full_rank_fraction"] >= verify.RANK_MIN_FRACTION
            assert sweep["unflagged_rank_failures"] == round(sweep["full_rank_fraction"] * sweep["rounds"]) > 0


def test_run_all_input_validation():
    with pytest.raises(ValueError):
        verify.run_all(k_values=(2,), rounds=10)
    with pytest.raises(ValueError):
        verify.run_all(inject_fault="bogus")
    with pytest.raises(ValueError, match="rounds"):
        verify.run_all(k_values=(3,), rounds=0)
    for k_values in ((), (3, 3)):
        with pytest.raises(ValueError, match="k_values"):
            verify.run_all(k_values=k_values, rounds=10)


@pytest.mark.parametrize("seed", [45, 50, 79332259700])
def test_power_suite_exact_where_a_sampled_mean_strayed(seed):
    # A 10,000-symbol Monte Carlo mean of these seeds missed the budget by
    # more than 2%; the exact expected power meets it to rounding.
    r = verify.power_suite(seed=seed)
    assert r["passed"]
    assert r["max_relative_error"] <= verify.POWER_RTOL


@pytest.mark.parametrize("kwargs,word", [
    ({"k_values": [3.9], "rounds": 5}, "k_values"),
    ({"k_values": ["3"], "rounds": 5}, "k_values"),
    ({"k_values": [True, 3], "rounds": 5}, "k_values"),
    ({"k_values": (3,), "rounds": 2.5}, "rounds"),
    ({"k_values": (3,), "rounds": True}, "rounds"),
])
def test_run_all_rejects_counts_that_are_not_integers(kwargs, word):
    with pytest.raises(ValueError, match=word):
        verify.run_all(**kwargs)


def test_suites_reject_empty_counts():
    with pytest.raises(ValueError, match="rounds"):
        verify.round_sweep(3, 0, 0)
    with pytest.raises(ValueError, match="trials"):
        verify.power_suite(trials=0)
    with pytest.raises(ValueError, match="n_max"):
        verify.plan_suite(k_values=(3,), n_max=0)
    for k_values in ((), iter(())):
        with pytest.raises(ValueError, match="k_values"):
            verify.plan_suite(k_values=k_values, n_max=3)


def test_run_all_report_keys_and_order():
    report = verify.run_all(k_values=(4, 3), rounds=20, seed=5)
    assert list(report) == [
        "schema_version", "seed", "rounds_per_k", "k_values", "inject_fault", "round_sweeps",
        "alignment", "cancellation", "decoding", "rank", "plans", "power", "passed",
    ]
    assert list(report["round_sweeps"]) == ["4", "3"] and report["k_values"] == [4, 3]
    assert report["rank"] == {"min_fraction": verify.RANK_MIN_FRACTION, "passed": True}
    assert report["alignment"] == {"tolerance": verify.ALIGNMENT_TOL, "passed": True}


@pytest.mark.parametrize("suite,kwargs,word", [
    (verify.round_sweep, {"K": 2, "rounds": 5, "seed": 0}, "K"),
    (verify.round_sweep, {"K": 3.5, "rounds": 5, "seed": 0}, "K"),
    (verify.round_sweep, {"K": 3, "rounds": 5, "seed": 2.5}, "seed"),
    (verify.power_suite, {"trials": 5, "seed": 2.5}, "seed"),
    (verify.run_all, {"k_values": (3,), "rounds": 5, "seed": 2.5}, "seed"),
])
def test_suites_reject_user_counts_and_seeds_they_cannot_use(suite, kwargs, word):
    with pytest.raises(ValueError, match=word):
        suite(**kwargs)


def test_round_sweep_reports_numpy_counts_as_ints():
    r = verify.round_sweep(np.int64(3), np.int64(5), np.int64(-1))
    assert r == verify.round_sweep(3, 5, -1) and type(r["rounds"]) is int


# sha256 of round_sweep(K, 1500, 11) as sorted-key JSON, recorded when every
# check ran on the whole draw at once: slicing may change no byte of a report.
# K=3's was re-recorded when its 2x2 stacks took the closed-form inverse, and every
# K's when decoding took the guarded inverse: only max_decode_error moved.
# Every K's again when alignment became one matmul per precoded slot: BLAS sums in
# another order, so only max_alignment_residual moved. K=4's again when its slots took the
# cross-product guard: only max_decode_error moved. Every K's again when each round
# decoded all its users from one inverse of its interference mixture: only max_decode_error moved.
_SWEEP_DIGESTS = {
    3: "e1757a7c726d4566db70fc236a1c75c8a87110f007bbbfde5abbc7e7328c613a",
    4: "604964d5d972deedec5699df013ae099229dc201f6f6b1ab00d9a815c58475c3",
    5: "9d5fe48edd0c529c2649db4fcca85134c8687e4898d02437774a261ceac00f63",
    6: "05b51831dfecd19976cb7193cae4450cdc61ca5fa39521f20e9005b6986514cc",
}


@pytest.mark.parametrize("K", list(_SWEEP_DIGESTS))
def test_round_sweep_report_is_pinned(K):
    report = json.dumps(verify.round_sweep(K, 1500, 11), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == _SWEEP_DIGESTS[K]


def test_round_sweep_peaks_under_three_times_its_channel_draw(traced_peak):
    # Channels, null vectors and symbols are held whole; every check runs in slices.
    K, rounds = 6, 2000
    draw = rounds * K * K * (K - 1) * np.dtype(complex).itemsize
    assert traced_peak(lambda: verify.round_sweep(K, rounds, 4)) < 3 * draw


def test_power_suite_peaks_under_three_and_a_half_times_its_channel_draw(traced_peak):
    # The aligned rounds are one draw; precoders and transmit vectors exist one slice at a time.
    K, trials = 3, 10_000
    draw = trials * K * K * (K - 1) * np.dtype(complex).itemsize
    assert traced_peak(lambda: verify.power_suite(trials, 7)) < 3.5 * draw
