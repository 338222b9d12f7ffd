"""Slot plans: how one trial of each scheme spends the slots of a horizon.

Every slot goes to an alignment round, to ZF with K-1 streams (current
CSIT) or to TDMA with one stream (no CSIT). The aligned plan, for t_c = K
and one slot of feedback delay, splits ``K (n + K - 1)`` slots into n rounds
plus residual slots: round k pairs the first (no-CSIT) slot of block k with
one current-CSIT slot from each of the next K-1 blocks, picked so rounds
interleave without collision. The time-share plan spends one block on TDMA
while the transmitter is blind and on ZF after that.

Accounting is exact rational arithmetic: rounds deliver K(K-1) symbols in
K slots, ZF slots K-1 symbols, TDMA slots one symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import _arrival, _blind_slots, _block, _require_count

__all__ = [
    "DofAccount",
    "SchedulerPlan",
    "account_dof",
    "build_plan_general",
    "build_plan_k3",
    "build_plan_time_share",
    "validate_plan",
]

_HORIZON_LIMIT = 2**20  # slots: a longer plan is refused before any of its slots is built


@dataclass(frozen=True)
class SchedulerPlan:
    """Disjoint, exhaustive partition of a slot horizon by transmission strategy."""

    K: int
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
            "n": len(self.stia_rounds),
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
    at most once. Residual slots with current CSIT are ZF, the blind rest TDMA.
    """
    K, n = _require_count("K", K, 3), _require_count("n", n, 1)
    horizon = _require_horizon(K * (n + K - 1))
    rounds = tuple((K * (k - 1) + 1, *(K * k + j * (K - 1) + 1 for j in range(1, K))) for k in range(1, n + 1))
    residual = frozenset(range(1, horizon + 1)).difference(*rounds)
    blind = _blind_slots(K, 1, horizon)
    return SchedulerPlan(K=K, t_c=K, t_fb=1, horizon=horizon, stia_rounds=rounds,
                         zf_slots=residual - blind, tdma_slots=residual & blind)


def build_plan_time_share(K: int, t_c: int, t_fb: int) -> SchedulerPlan:
    """The ZF/TDMA time share: one block, TDMA in its ``t_fb`` blind slots and ZF after, no rounds.

    Pure ZF is the ``(1, 0)`` plan and TDMA the ``(1, 1)`` plan.
    """
    K, t_c, t_fb = _require_count("K", K, 2), _require_count("t_c", t_c, 1), _require_count("t_fb", t_fb, 0)
    if t_fb > t_c:
        raise ValueError("the ZF/TDMA time share needs t_fb <= t_c")
    _require_horizon(t_c)
    blind = _blind_slots(t_c, t_fb, t_c)
    return SchedulerPlan(K=K, t_c=t_c, t_fb=t_fb, horizon=t_c, stia_rounds=(),
                         zf_slots=frozenset(range(1, t_c + 1)) - blind, tdma_slots=blind)


def validate_plan(plan: SchedulerPlan) -> None:
    """Check the plan's values, partition and CSIT invariants; raise ValueError on violation.

    Integer counts and slots in range; disjointness and exhaustiveness over
    a horizon of at least one slot; every round has one no-CSIT slot in its
    own block followed by current-CSIT slots in K-1 further distinct blocks,
    all after the reference block's report has arrived; ZF slots have
    current CSIT and TDMA slots none, else the error names the smallest slot
    that breaks it.
    """
    K = _require_count("K", plan.K, 2)
    t_c, t_fb = _require_count("t_c", plan.t_c, 1), _require_count("t_fb", plan.t_fb, 0)
    horizon = _require_horizon(_require_count("horizon", plan.horizon, 1))
    listed = [s for r in (*plan.stia_rounds, plan.zf_slots, plan.tdma_slots) for s in r]
    for s in (s for s in listed if type(s) is not int or s < 1):
        _require_count("slot", s, 1)  # passes a numpy integer of at least 1, raises for anything else
    if len(listed) != horizon or set(listed) != set(range(1, horizon + 1)):
        raise ValueError("plan does not partition the slot horizon")
    blind = _blind_slots(t_c, t_fb, horizon)
    for round_slots in plan.stia_rounds:
        if len(round_slots) != K:
            raise ValueError("each round must span K slots")
        ref, *phase_two = round_slots
        if ref not in blind:
            raise ValueError(f"round reference slot {ref} has current CSIT")
        if len({_block(s, t_c) for s in round_slots}) != K:
            raise ValueError(f"round {round_slots} does not span distinct blocks")
        arrival = _arrival(_block(ref, t_c), t_c, t_fb)
        for s in phase_two:
            if s in blind:
                raise ValueError(f"precoded slot {s} lacks current CSIT")
            if s < arrival:
                raise ValueError(f"precoded slot {s} precedes the reference report")
    if wrong := blind.intersection(plan.zf_slots):
        raise ValueError(f"ZF slot {min(wrong)} lacks current CSIT")
    if wrong := set(plan.tdma_slots) - blind:
        raise ValueError(f"TDMA slot {min(wrong)} has current CSIT")


def _require_horizon(horizon: int) -> int:
    if horizon > _HORIZON_LIMIT:
        raise ValueError(f"plan horizon of {horizon} slots is past the limit of {_HORIZON_LIMIT}")
    return horizon


def account_dof(plan: SchedulerPlan) -> DofAccount:
    """Symbols delivered over the horizon as an exact rational per slot."""
    n_t = plan.K - 1
    symbols = plan.K * n_t * len(plan.stia_rounds) + n_t * len(plan.zf_slots) + len(plan.tdma_slots)
    return DofAccount(symbols_delivered=symbols, slots_used=plan.horizon, dof=Fraction(symbols, plan.horizon))
