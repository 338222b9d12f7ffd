"""Tests for slot plans and DoF accounting."""

from fractions import Fraction

import numpy as np
import pytest

from stia.channel import DelayConfig, FadingProcess, csit_at
from stia.scheduler import (
    account_dof,
    build_plan_general,
    build_plan_k3,
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


def test_rounds_span_distinct_blocks():
    for K, n in [(3, 6), (5, 4)]:
        plan = build_plan_general(K, n)
        for round_slots in plan.stia_rounds:
            blocks = {(s - 1) // plan.t_c + 1 for s in round_slots}
            assert len(blocks) == K


def test_plan_consistent_with_csit_view():
    # The CSI view at every planned slot must support its assigned role.
    for K, n in [(3, 4), (4, 3)]:
        plan = build_plan_general(K, n)
        proc = FadingProcess(K, K - 1, plan.t_c, seed=0)
        cfg = DelayConfig(plan.t_c, plan.t_fb)
        for round_slots in plan.stia_rounds:
            ref, *phase_two = round_slots
            assert not csit_at(proc, cfg, ref).has_current
            ref_block = (ref - 1) // plan.t_c + 1
            for s in phase_two:
                view = csit_at(proc, cfg, s)
                assert view.has_current
                assert ref_block in view.outdated
        for s in plan.zf_slots:
            assert csit_at(proc, cfg, s).has_current
        for s in plan.tdma_slots:
            assert not csit_at(proc, cfg, s).has_current


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
    from dataclasses import replace

    plan = build_plan_k3(2)
    broken = replace(plan, tdma_slots=frozenset({2, 3}), zf_slots=frozenset({7, 10, 5, 12}))
    with pytest.raises(ValueError):
        validate_plan(broken)
    overlap = replace(plan, zf_slots=plan.zf_slots | {1})
    with pytest.raises(ValueError):
        validate_plan(overlap)
