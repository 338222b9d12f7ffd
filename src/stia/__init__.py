"""K-user MISO broadcast channel simulator under delayed CSI feedback.

The transmitter has K-1 antennas and serves K single-antenna users whose
block-fading channels it learns only through delayed feedback. The package
implements the space-time aligning transmission that recreates, at later
slots, the interference each receiver already overheard, the ZF and TDMA
baselines, the slot scheduler that time-shares the three, and the
delay-DoF trade-off analysis, with Monte Carlo machinery to measure DoF
as high-SNR rate slopes.

Modules: ``channel`` (feedback timing and CN(0,1) draws), ``numerics``
(small dense solves), ``precoding`` (beamformer construction), ``protocol``
(round execution and rates), ``scheduler`` (slot plans),
``analysis`` (trade-off curves and slope estimation), ``verify``
(property suites), ``cli`` (command-line front end).

Imported before numpy, stia caps the whole process at one OpenBLAS thread unless
a BLAS thread count is set; a process that loaded numpy first keeps its pool.
"""

import os

# Matrices of at most K-1 columns never reach OpenBLAS's threading threshold; a count the user chose wins.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .analysis import (
    baseline_zf_mat,
    baseline_zf_tdma,
    emit_tradeoff_table,
    estimate_dof_slope,
    tradeoff_k3,
)
from .channel import DelayConfig, coherence_time_estimate
from .numerics import (
    SingularMatrixError,
    solve_right,
)
from .precoding import (
    IllConditionedChannelError,
    build_stia_precoders,
)
from .protocol import (
    DecodeFailureError,
    SymbolBlock,
    decode_round,
    draw_round_channels,
    run_stia_round,
)
from .scheduler import (
    account_dof,
    build_plan_general,
    build_plan_k3,
    build_plan_time_share,
    validate_plan,
)

__version__ = "0.1.0"

__all__ = [
    "DecodeFailureError",
    "DelayConfig",
    "IllConditionedChannelError",
    "SingularMatrixError",
    "SymbolBlock",
    "account_dof",
    "baseline_zf_mat",
    "baseline_zf_tdma",
    "build_plan_general",
    "build_plan_k3",
    "build_plan_time_share",
    "build_stia_precoders",
    "coherence_time_estimate",
    "decode_round",
    "draw_round_channels",
    "emit_tradeoff_table",
    "estimate_dof_slope",
    "run_stia_round",
    "solve_right",
    "tradeoff_k3",
    "validate_plan",
]
