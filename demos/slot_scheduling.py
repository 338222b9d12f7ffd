"""
Slot scheduling and DoF accounting
==================================

How a slot horizon splits into aligned rounds, ZF slots and TDMA slots,
and how the symbols-per-slot count approaches K-1 as the horizon grows.
The ZF/TDMA baseline is a plan too: one block with no rounds.
"""

from fractions import Fraction

from stia import (account_dof, baseline_zf_tdma, build_plan_general, build_plan_k3,
                  build_plan_time_share, validate_plan)

# the 3-user plan with three rounds: 15 slots total
plan = build_plan_k3(3)
validate_plan(plan)
print(f"horizon of {plan.horizon} slots (t_c={plan.t_c}, t_fb={plan.t_fb})")
for idx, slots in enumerate(plan.stia_rounds, start=1):
    print(f"  round {idx}: slots {list(slots)}")
print(f"  ZF slots:   {sorted(plan.zf_slots)}")
print(f"  TDMA slots: {sorted(plan.tdma_slots)}")

roles = plan.to_role_map()
print("\nslot-by-slot roles:")
print("  " + " ".join(f"{s}:{roles[s]}" for s in range(1, plan.horizon + 1)))

acct = account_dof(plan)
print(f"\nsymbols delivered: {acct.symbols_delivered} over {acct.slots_used} slots")
print(f"DoF accounting: {acct.dof} = {float(acct.dof):.4f}")

# the accounting marches to 2 as rounds accumulate
print("\nDoF vs number of rounds (3 users):")
for n in (1, 3, 10, 100, 10_000):
    d = account_dof(build_plan_k3(n)).dof
    print(f"  n={n:>6}: {str(d):>14} = {float(d):.6f}")

# the same construction generalizes: K users, K-1 antennas, t_c=K, one
# slot of feedback delay; the limit is K-1
print("\ngeneral construction at n=100:")
for K in (3, 4, 5, 6):
    plan = build_plan_general(K, 100)
    validate_plan(plan)
    d = account_dof(plan).dof
    print(f"  K={K}: horizon {plan.horizon:>4}, DoF {float(d):.4f} (limit {K - 1})")

# at K=3 it is the closed form: round k occupies slots {3k-2, 3k+3, 3k+5}
assert build_plan_general(3, 5).stia_rounds == tuple((3 * k - 2, 3 * k + 3, 3 * k + 5) for k in range(1, 6))
print("\nthe general construction reproduces the 3-user closed form exactly")

print("\ndof gap to the limit, exact rationals (K=3):")
for n in (1, 10, 100):
    d = account_dof(build_plan_k3(n)).dof
    print(f"  n={n:>3}: 2 - {d} = {Fraction(2) - d}")

# the baselines are plans without rounds: one block, TDMA while the
# transmitter is blind and ZF after its report arrives
print("\nZF/TDMA time share (3 users, t_c=6): plan DoF and baseline 2 - gamma")
for t_fb in range(7):
    plan = build_plan_time_share(3, 6, t_fb)
    validate_plan(plan)
    d, baseline = account_dof(plan).dof, baseline_zf_tdma(Fraction(t_fb, 6))
    assert d == baseline
    print(f"  t_fb={t_fb}: TDMA {sorted(plan.tdma_slots)}, ZF {sorted(plan.zf_slots)}; DoF {d}, baseline {baseline}")
