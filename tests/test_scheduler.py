"""Tests for slot plans and DoF accounting."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from stia.analysis import baseline_zf_tdma
from stia.channel import block_of_slot, feedback_arrival_slot, has_current_csit
from stia.scheduler import (
    SchedulerPlan,
    account_dof,
    build_plan_general,
    build_plan_k3,
    build_plan_time_share,
    validate_plan,
)


def test_golden_sets_n3():
    plan = build_plan_k3(3)
    assert plan.stia_rounds == ((1, 6, 8), (4, 9, 11), (7, 12, 14))
    assert plan.zf_slots == frozenset({2, 3, 5, 15})
    assert plan.tdma_slots == frozenset({10, 13})
    assert plan.horizon == 15


@pytest.mark.parametrize("n", [1, 2, 5, 17, 100])
def test_k3_invariants(n):
    validate_plan(build_plan_k3(n))


@pytest.mark.parametrize("K", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 7, 25, 50])
def test_general_invariants(K, n):
    validate_plan(build_plan_general(K, n))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 41])
def test_specialization_matches_k3(n):
    # The three-user closed form: round k occupies {3k-2, 3k+3, 3k+5} of a
    # 3n+6 slot horizon, ZF takes {2, 3, 5, 3n+6} and TDMA {3n+1, 3n+4}.
    gen = build_plan_general(3, n)
    assert gen.stia_rounds == tuple((3 * k - 2, 3 * k + 3, 3 * k + 5) for k in range(1, n + 1))
    assert gen.zf_slots == frozenset({2, 3, 5, 3 * n + 6})
    assert gen.tdma_slots == frozenset({3 * n + 1, 3 * n + 4})
    assert gen.horizon == 3 * n + 6
    assert build_plan_k3(n) == gen


def test_account_dof_exact_rational():
    for n in range(1, 101):
        acct = account_dof(build_plan_k3(n))
        assert acct.dof == Fraction(6 * n + 10, 3 * n + 6)
        assert acct.symbols_delivered == 6 * n + 10
        assert acct.slots_used == 3 * n + 6
    assert account_dof(build_plan_k3(1)).dof == Fraction(16, 9)
    assert account_dof(build_plan_k3(3)).dof == Fraction(28, 15)


def test_account_dof_limit():
    assert abs(float(account_dof(build_plan_k3(10_000)).dof) - 2.0) < 1e-3


def test_dof_monotone_and_bounded():
    dofs = [account_dof(build_plan_k3(n)).dof for n in range(1, 200)]
    assert all(a <= b for a, b in zip(dofs, dofs[1:]))
    assert all(d < 2 for d in dofs)


@pytest.mark.parametrize("K,n", [(4, 10), (5, 10), (6, 10)])
def test_general_dof_approaches_k_minus_one(K, n):
    small = account_dof(build_plan_general(K, n)).dof
    big = account_dof(build_plan_general(K, 20_000)).dof
    assert small < K - 1
    assert abs(float(big) - (K - 1)) < 1e-3


def test_domain_errors():
    with pytest.raises(ValueError):
        build_plan_k3(0)
    with pytest.raises(ValueError):
        build_plan_general(2, 5)
    with pytest.raises(ValueError):
        build_plan_general(4, 0)


@pytest.mark.parametrize("n", [True, 2.0, "2", None, np.float64(2.0)])
def test_plans_reject_a_round_count_that_is_not_an_integer(n):
    for build in (build_plan_k3, lambda n: build_plan_general(4, n)):
        with pytest.raises(ValueError, match="integer"):
            build(n)


@pytest.mark.parametrize("K", [True, 3.0, "3", None])
def test_general_plan_rejects_a_user_count_that_is_not_an_integer(K):
    with pytest.raises(ValueError, match="integer"):
        build_plan_general(K, 2)


def test_plans_accept_numpy_integers():
    assert build_plan_general(np.int64(4), np.int32(2)) == build_plan_general(4, 2)
    assert build_plan_k3(np.int64(2)).to_dict() == build_plan_k3(2).to_dict()


def test_rounds_span_distinct_blocks():
    for K, n in [(3, 6), (5, 4)]:
        plan = build_plan_general(K, n)
        for round_slots in plan.stia_rounds:
            blocks = {(s - 1) // plan.t_c + 1 for s in round_slots}
            assert len(blocks) == K


def test_plan_consistent_with_csit_view():
    # The CSIT at every planned slot must support its assigned role.
    for K, n in [(3, 4), (4, 3)]:
        plan = build_plan_general(K, n)
        t_c, t_fb = plan.t_c, plan.t_fb
        for round_slots in plan.stia_rounds:
            ref, *phase_two = round_slots
            assert not has_current_csit(t_c, t_fb, ref)
            ref_block = block_of_slot(ref, t_c)
            for s in phase_two:
                assert has_current_csit(t_c, t_fb, s)
                assert ref_block < block_of_slot(s, t_c)
                assert feedback_arrival_slot(ref_block, t_c, t_fb) <= s
        for s in plan.zf_slots:
            assert has_current_csit(t_c, t_fb, s)
        for s in plan.tdma_slots:
            assert not has_current_csit(t_c, t_fb, s)


def test_role_map_and_dict():
    plan = build_plan_k3(1)
    roles = plan.to_role_map()
    assert roles[1] == "stia:1"
    assert roles[2] == "zf"
    assert roles[4] == "tdma"
    assert sorted(roles) == list(range(1, 10))
    d = plan.to_dict()
    assert d["dof"] == [16, 9]
    assert d["roles"]["9"] == "zf"


def test_validate_rejects_broken_plans():
    plan = build_plan_k3(2)
    broken = replace(plan, tdma_slots=frozenset({2, 3}), zf_slots=frozenset({7, 10, 5, 12}))
    with pytest.raises(ValueError):
        validate_plan(broken)
    overlap = replace(plan, zf_slots=plan.zf_slots | {1})
    with pytest.raises(ValueError):
        validate_plan(overlap)


_K3N2 = build_plan_k3(2)  # rounds (1, 6, 8), (4, 9, 11); ZF {2, 3, 5, 12}; TDMA {7, 10}


@pytest.mark.parametrize("changes,message", [
    ({"t_c": 0}, "t_c must be at least 1, got 0"),
    ({"t_c": 3.0}, "t_c must be an integer, got 3.0"),
    ({"t_fb": -1}, "t_fb must be at least 0, got -1"),
    ({"t_fb": True}, "t_fb must be an integer, got True"),
    ({"zf_slots": frozenset({2.0, 3, 5, 12})}, "slot must be an integer, got 2.0"),
    ({"stia_rounds": ((True, 6, 8), (4, 9, 11))}, "slot must be an integer, got True"),
    ({"zf_slots": _K3N2.zf_slots | {1}}, "plan does not partition the slot horizon"),
    ({"tdma_slots": frozenset({2, 3}), "zf_slots": frozenset({7, 10, 5, 12})}, "ZF slot 7 lacks current CSIT"),
    ({"tdma_slots": frozenset({7, 10, 3}), "zf_slots": frozenset({2, 5, 12})}, "TDMA slot 3 has current CSIT"),
    ({"stia_rounds": ((6, 1, 8), (4, 9, 11))}, "round reference slot 6 has current CSIT"),
    # A float horizon raised TypeError and a float K was accepted.
    ({"horizon": 12.0}, "horizon must be an integer, got 12.0"),
    ({"K": 3.0}, "K must be an integer, got 3.0"),
    # An empty horizon has no slots to share, and its DoF divides by zero.
    ({"horizon": 0, "stia_rounds": (), "zf_slots": frozenset(), "tdma_slots": frozenset()},
     "horizon must be at least 1, got 0"),
    # Each round refusal: a round one slot short, two slots in one block, a precoded slot without current
    # CSIT, and one before the reference block's report arrives.
    ({"stia_rounds": ((1, 6), (4, 9, 11)), "zf_slots": frozenset({2, 3, 5, 8, 12})}, "each round must span K slots"),
    ({"stia_rounds": ((1, 5, 6), (4, 9, 11)), "zf_slots": frozenset({2, 3, 8, 12})},
     r"round \(1, 5, 6\) does not span distinct blocks"),
    ({"stia_rounds": ((1, 6, 7), (4, 9, 11)), "tdma_slots": frozenset({8, 10})}, "precoded slot 7 lacks current CSIT"),
    ({"stia_rounds": ((4, 2, 8), (1, 9, 11)), "zf_slots": frozenset({3, 5, 6, 12})},
     "precoded slot 2 precedes the reference report"),
])
def test_validate_rejects_malformed_plan_values(changes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_plan(replace(_K3N2, **changes))


def _reference_plan(K, n):
    """The plan built one slot at a time with the public timing predicates."""
    t_c, t_fb, horizon = K, 1, K * (n + K - 1)

    def start(block):  # a block's first slot: where a report sent there lands with no delay
        return feedback_arrival_slot(block, t_c, 0)

    rounds = tuple((start(k), *(start(k + j) + K - j for j in range(1, K))) for k in range(1, n + 1))
    used = {s for r in rounds for s in r}
    zf, tdma = set(), set()
    for s in range(1, horizon + 1):
        if s not in used:
            (zf if has_current_csit(t_c, t_fb, s) else tdma).add(s)
    return SchedulerPlan(K=K, t_c=t_c, t_fb=t_fb, horizon=horizon, stia_rounds=rounds,
                         zf_slots=frozenset(zf), tdma_slots=frozenset(tdma))


def test_plans_match_a_slot_by_slot_reference():
    for K in range(3, 9):
        for n in range(1, 61):
            assert build_plan_general(K, n) == _reference_plan(K, n)


def _moved_zf_to_tdma(plan):
    s = min(plan.zf_slots)
    return replace(plan, zf_slots=plan.zf_slots - {s}, tdma_slots=plan.tdma_slots | {s})


def _swapped_reference(plan):
    ref, first, *rest = plan.stia_rounds[0]
    return replace(plan, stia_rounds=((first, ref, *rest), *plan.stia_rounds[1:]))


def _dropped(plan):
    return replace(plan, tdma_slots=plan.tdma_slots - {max(plan.tdma_slots)})


def _duplicated(plan):
    return replace(plan, zf_slots=plan.zf_slots | {plan.stia_rounds[-1][-1]})


@pytest.mark.parametrize("mutate,message", [
    (_moved_zf_to_tdma, "TDMA slot .* has current CSIT"),
    (_swapped_reference, "round reference slot .* has current CSIT"),
    (_dropped, "plan does not partition the slot horizon"),
    (_duplicated, "plan does not partition the slot horizon"),
])
@pytest.mark.parametrize("K,n", [(3, 1), (4, 5), (6, 12), (8, 3)])
def test_validate_rejects_single_slot_mutations(K, n, mutate, message):
    plan = build_plan_general(K, n)
    validate_plan(plan)
    with pytest.raises(ValueError, match=message):
        validate_plan(mutate(plan))


def test_time_share_dof_is_the_zf_tdma_baseline():
    for t_c in range(1, 13):
        for t_fb in range(t_c + 1):
            plan = build_plan_time_share(3, t_c, t_fb)
            validate_plan(plan)
            assert account_dof(plan).dof == baseline_zf_tdma(Fraction(t_fb, t_c))


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_time_share_dof_weighs_zf_and_tdma_slots(K):
    for t_c in range(1, 13):
        for t_fb in range(t_c + 1):
            plan = build_plan_time_share(K, t_c, t_fb)
            assert plan.tdma_slots == frozenset(range(1, t_fb + 1))
            assert plan.zf_slots == frozenset(range(t_fb + 1, t_c + 1))
            assert account_dof(plan).dof == Fraction((t_c - t_fb) * (K - 1) + t_fb, t_c)


@pytest.mark.parametrize("args,message", [
    ((True, 3, 1), "K must be an integer, got True"),
    ((3, True, 0), "t_c must be an integer, got True"),
    ((3, 3, False), "t_fb must be an integer, got False"),
    ((3.0, 3, 1), "K must be an integer, got 3.0"),
    ((3, 3.0, 1), "t_c must be an integer, got 3.0"),
    ((3, 3, 1.0), "t_fb must be an integer, got 1.0"),
    ((1, 3, 1), "K must be at least 2, got 1"),
    ((3, 0, 0), "t_c must be at least 1, got 0"),
    ((3, 3, -1), "t_fb must be at least 0, got -1"),
    ((3, 3, 4), "the ZF/TDMA time share needs t_fb <= t_c"),
])
def test_time_share_rejects_bad_values(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_plan_time_share(*args)


def test_time_share_accepts_numpy_integers():
    assert build_plan_time_share(np.int64(3), np.int32(5), np.int64(2)) == build_plan_time_share(3, 5, 2)


def test_plans_past_the_horizon_limit_are_refused_before_their_slots_are_built():
    # 2^20 + 1 = 17 (61,665 + 16) slots in each builder, and a plan claiming them; the largest shipped plan has 30,006.
    message = "^plan horizon of 1048577 slots is past the limit of 1048576$"
    for build in (lambda: build_plan_time_share(2, 2**20 + 1, 0), lambda: build_plan_general(17, 61_665)):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match=message):
        validate_plan(replace(build_plan_k3(1), horizon=2**20 + 1))
    assert build_plan_k3(10_000).horizon == 30_006


def test_plan_without_rounds_describes_itself():
    plan = build_plan_time_share(3, 5, 2)
    assert plan.to_role_map() == {1: "tdma", 2: "tdma", 3: "zf", 4: "zf", 5: "zf"}
    d = plan.to_dict()
    assert (d["n"], d["stia_rounds"], d["horizon"]) == (0, [], 5)
    assert (d["zf_slots"], d["tdma_slots"]) == ([3, 4, 5], [1, 2])
    assert d["roles"] == {"1": "tdma", "2": "tdma", "3": "zf", "4": "zf", "5": "zf"}
    assert (d["symbols_delivered"], d["dof"]) == (8, [8, 5])
