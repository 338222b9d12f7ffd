"""
What the transmitter knows, slot by slot
========================================

Block fading with a coherence time of three slots and one slot of
feedback delay. Each user reports its channel at the first slot of every
block; the report lands one slot later. The printout shows, per slot,
whether current CSI is available and which past blocks are known. The
feedback-timing predicates alone decide this: no channel is drawn.
"""

from stia import DelayConfig
from stia.channel import block_of_slot, feedback_arrival_slot, has_current_csit

cfg = DelayConfig(t_c=3, t_fb=1)


def outdated_blocks(slot):
    """Past blocks whose report has reached the transmitter by this slot."""
    block = block_of_slot(slot, cfg.t_c)
    return [b for b in range(1, block) if feedback_arrival_slot(b, cfg.t_c, cfg.t_fb) <= slot]


print("slot  block  current CSI?  outdated blocks")
for slot in range(1, 13):
    block = block_of_slot(slot, cfg.t_c)
    current = "yes" if has_current_csit(cfg.t_c, cfg.t_fb, slot) else "no "
    outdated = outdated_blocks(slot) or "-"
    print(f"{slot:>4}  {block:>5}  {current:>11}   {outdated}")

# at slot 8 the transmitter holds current CSI for block 3 and outdated
# CSI for blocks 1 and 2: exactly what an aligned round needs
assert has_current_csit(cfg.t_c, cfg.t_fb, 8)
print(f"\nslot 8: current block {block_of_slot(8, cfg.t_c)}, outdated {outdated_blocks(8)}")

# gamma summarizes the regime
for t_fb in (0, 1, 3):
    g = DelayConfig(3, t_fb).gamma
    regime = "current CSI always" if g == 0 else ("completely outdated" if g >= 1 else "mixed")
    print(f"t_fb={t_fb}: gamma={g} ({regime})")
