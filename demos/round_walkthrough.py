"""
One aligned round, step by step
===============================

Three users, two transmit antennas. The round spends one broadcast slot
(no transmitter CSI) plus two precoded slots in later coherence blocks,
and delivers all six symbols.
"""

import numpy as np

from stia import (
    SymbolBlock,
    build_stia_precoders,
    draw_round_channels,
    run_stia_round,
)

rng = np.random.default_rng(12345)
K = 3

# channels for the three round slots: axis 0 slot (broadcast first), axis 1 user
channels = draw_round_channels(K, 1, rng)[0]
symbols = SymbolBlock.random(K, rng)  # a (K, K-1) array: user k's symbols on row k-1
sent = symbols.stacked()
print("transmitted symbols per user:")
for k, row in enumerate(sent, start=1):
    print(f"  user {k}: {np.round(row, 3)}")

# the precoder of user 1 at a precoded slot maps the CURRENT channels of
# users 2 and 3 onto their REFERENCE-slot channels; row k-1 is user k's
pre = build_stia_precoders(channels[1], channels[0])
print("\nalignment check at the first precoded slot (user 1's precoder):")
for j in (2, 3):
    got = channels[1, j - 1] @ pre[0]
    want = channels[0, j - 1]
    print(f"  user {j}: |h[n] V - h[ref]| = {np.max(np.abs(got - want)):.2e}")

# run the whole round noise-free: receive, subtract, decode
result = run_stia_round(channels, symbols)
print("\nresidual interference after cancellation (relative):")
for k, res in result.residual_interference.items():
    print(f"  user {k}: {res:.2e}")

print("\ndecoding error per user:")
for k, err in enumerate(np.max(np.abs(result.decoded.stacked() - sent), axis=1), start=1):
    print(f"  user {k}: {err:.2e}")

n_symbols = result.decoded.stacked().size
print(f"\n{n_symbols} symbols over {K} slots = {n_symbols / K:.2f} symbols/slot")

# same round again, now with a finite power budget and receiver noise
noisy = run_stia_round(channels, symbols, power=1e6, noise_std=1.0, rng=rng, snr_linear=1e6)
print("\nwith power 60 dB above the noise floor:")
for k, err in enumerate(np.max(np.abs(noisy.decoded.stacked() - sent), axis=1), start=1):
    rate = noisy.per_user_rate_bits[k]
    print(f"  user {k}: decode error {err:.1e}, rate {rate:.2f} bits/slot")
