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
(round execution and rates), ``scheduler`` (slot partitioning),
``analysis`` (trade-off curves and slope estimation), ``verify``
(property suites), ``cli`` (command-line front end).
"""

from .analysis import (
    MAT_DOF_K3,
    DofEstimate,
    TradeoffPoint,
    baseline_zf_mat,
    baseline_zf_tdma,
    emit_tradeoff_table,
    estimate_dof_slope,
    fit_dof_slope,
    tradeoff_k3,
)
from .channel import DelayConfig, coherence_time_estimate, complex_normal
from .numerics import (
    SingularMatrixError,
    condition_estimate,
    solve_right,
)
from .precoding import (
    IllConditionedChannelError,
    build_stia_precoders,
    build_zf_precoder,
)
from .protocol import (
    DecodeFailureError,
    StiaRoundResult,
    SymbolBlock,
    decode_round,
    draw_round_channels,
    round_rate,
    run_stia_round,
)
from .scheduler import (
    DofAccount,
    SchedulerPlan,
    account_dof,
    build_plan_general,
    build_plan_k3,
    validate_plan,
)

__version__ = "0.1.0"

__all__ = [
    "MAT_DOF_K3",
    "DecodeFailureError",
    "DelayConfig",
    "DofAccount",
    "DofEstimate",
    "IllConditionedChannelError",
    "SchedulerPlan",
    "SingularMatrixError",
    "StiaRoundResult",
    "SymbolBlock",
    "TradeoffPoint",
    "account_dof",
    "baseline_zf_mat",
    "baseline_zf_tdma",
    "build_plan_general",
    "build_plan_k3",
    "build_stia_precoders",
    "build_zf_precoder",
    "coherence_time_estimate",
    "complex_normal",
    "condition_estimate",
    "decode_round",
    "draw_round_channels",
    "emit_tradeoff_table",
    "estimate_dof_slope",
    "fit_dof_slope",
    "round_rate",
    "run_stia_round",
    "solve_right",
    "tradeoff_k3",
    "validate_plan",
]
