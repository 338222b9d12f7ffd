"""Slot partitioning: alignment rounds, ZF slots, TDMA slots, DoF accounting.

With coherence time ``t_c = K`` and one slot of feedback delay, a horizon
of ``K (n + K - 1)`` slots is split into n alignment rounds plus residual
slots. Round k pairs the first (no-CSIT) slot of block k with one
current-CSIT slot from each of the next K-1 blocks, picked so rounds
interleave without collision. Residual slots are classified by what the
transmitter knows there: current CSIT means ZF with K-1 streams, no CSIT
means TDMA with one stream.

Accounting is exact rational arithmetic: rounds deliver K(K-1) symbols in
K slots, ZF slots K-1 symbols, TDMA slots one symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import block_of_slot, feedback_arrival_slot, has_current_csit

__all__ = [
    "DofAccount",
    "SchedulerPlan",
    "account_dof",
    "build_plan_general",
    "build_plan_k3",
    "validate_plan",
]


@dataclass(frozen=True)
class SchedulerPlan:
    """Disjoint, exhaustive partition of a slot horizon by transmission strategy."""

    K: int
    n: int
    t_c: int
    t_fb: int
    horizon: int
    stia_rounds: tuple[tuple[int, ...], ...]
    zf_slots: frozenset[int]
    tdma_slots: frozenset[int]

    def to_role_map(self) -> dict[int, str]:
        """Slot to role mapping, e.g. ``{1: "stia:1", 2: "zf", 10: "tdma"}``."""
        roles = {}
        for idx, round_slots in enumerate(self.stia_rounds, start=1):
            for s in round_slots:
                roles[s] = f"stia:{idx}"
        for s in self.zf_slots:
            roles[s] = "zf"
        for s in self.tdma_slots:
            roles[s] = "tdma"
        return dict(sorted(roles.items()))

    def to_dict(self) -> dict:
        """JSON-ready description of the plan."""
        account = account_dof(self)
        return {
            "K": self.K,
            "n": self.n,
            "t_c": self.t_c,
            "t_fb": self.t_fb,
            "horizon": self.horizon,
            "stia_rounds": [list(r) for r in self.stia_rounds],
            "zf_slots": sorted(self.zf_slots),
            "tdma_slots": sorted(self.tdma_slots),
            "roles": {str(s): r for s, r in self.to_role_map().items()},
            "symbols_delivered": account.symbols_delivered,
            "dof": [account.dof.numerator, account.dof.denominator],
        }


@dataclass(frozen=True)
class DofAccount:
    """Exact symbols-per-slot bookkeeping of a plan."""

    symbols_delivered: int
    slots_used: int
    dof: Fraction


def build_plan_k3(n: int) -> SchedulerPlan:
    """Three-user plan over 3n+6 slots: ``build_plan_general(3, n)``.

    Round k occupies slots {3k-2, 3k+3, 3k+5}; the residual slots split
    into ZF {2, 3, 5, 3n+6} and TDMA {3n+1, 3n+4}.
    """
    return build_plan_general(3, n)


def build_plan_general(K: int, n: int) -> SchedulerPlan:
    """K-user plan over K(n+K-1) slots with t_c=K and one slot of delay.

    Round k starts at the first slot of block k (no CSIT) and takes its
    j-th precoded slot at position K-j+1 of block k+j, which keeps every
    round inside K distinct blocks and every (block, position) pair used
    at most once. Residual slots are classified by CSIT availability.
    """
    if K < 3:
        raise ValueError("the construction needs at least 3 users")
    if n < 1:
        raise ValueError("n must be at least 1")
    t_c = K
    t_fb = 1
    horizon = K * (n + K - 1)
    rounds = []
    used = set()
    for k in range(1, n + 1):
        ref = K * (k - 1) + 1
        phase_two = [K * k + j * (K - 1) + 1 for j in range(1, K)]
        slots = (ref, *phase_two)
        rounds.append(slots)
        used.update(slots)
    zf = set()
    tdma = set()
    for s in range(1, horizon + 1):
        if s in used:
            continue
        if has_current_csit(t_c, t_fb, s):
            zf.add(s)
        else:
            tdma.add(s)
    return SchedulerPlan(
        K=K,
        n=n,
        t_c=t_c,
        t_fb=t_fb,
        horizon=horizon,
        stia_rounds=tuple(rounds),
        zf_slots=frozenset(zf),
        tdma_slots=frozenset(tdma),
    )


def validate_plan(plan: SchedulerPlan) -> None:
    """Check the partition and CSIT invariants; raise ValueError on violation.

    Disjointness and exhaustiveness over the horizon; every round has one
    no-CSIT slot in its own block followed by current-CSIT slots in K-1
    further distinct blocks, all after the reference block's report has
    arrived; ZF slots have current CSIT and TDMA slots none.
    """
    listed = [s for r in plan.stia_rounds for s in r]
    listed += list(plan.zf_slots) + list(plan.tdma_slots)
    if len(listed) != plan.horizon or set(listed) != set(range(1, plan.horizon + 1)):
        raise ValueError("plan does not partition the slot horizon")
    for round_slots in plan.stia_rounds:
        if len(round_slots) != plan.K:
            raise ValueError("each round must span K slots")
        ref, *phase_two = round_slots
        if has_current_csit(plan.t_c, plan.t_fb, ref):
            raise ValueError(f"round reference slot {ref} has current CSIT")
        blocks = {block_of_slot(s, plan.t_c) for s in round_slots}
        if len(blocks) != plan.K:
            raise ValueError(f"round {round_slots} does not span distinct blocks")
        arrival = feedback_arrival_slot(block_of_slot(ref, plan.t_c), plan.t_c, plan.t_fb)
        for s in phase_two:
            if not has_current_csit(plan.t_c, plan.t_fb, s):
                raise ValueError(f"precoded slot {s} lacks current CSIT")
            if s < arrival:
                raise ValueError(f"precoded slot {s} precedes the reference report")
    for s in plan.zf_slots:
        if not has_current_csit(plan.t_c, plan.t_fb, s):
            raise ValueError(f"ZF slot {s} lacks current CSIT")
    for s in plan.tdma_slots:
        if has_current_csit(plan.t_c, plan.t_fb, s):
            raise ValueError(f"TDMA slot {s} has current CSIT")


def account_dof(plan: SchedulerPlan) -> DofAccount:
    """Symbols delivered over the horizon as an exact rational per slot."""
    n_t = plan.K - 1
    symbols = plan.K * n_t * len(plan.stia_rounds) + n_t * len(plan.zf_slots) + len(plan.tdma_slots)
    return DofAccount(
        symbols_delivered=symbols,
        slots_used=plan.horizon,
        dof=Fraction(symbols, plan.horizon),
    )
