"""Delay-DoF trade-off curves and Monte Carlo DoF slope estimation.

The analytic side is exact rational arithmetic: the achievable DoF of the
3-user channel as a function of the delay ratio gamma, together with the
time-sharing baselines (ZF with TDMA fill-in, ZF with the outdated-CSI
scheme whose DoF of 3/2 enters only as a constant).

The empirical side estimates the DoF as the high-SNR slope of Monte Carlo
mean sum rates against log2(SNR). One engine runs every scheme as its
per-trial slot mix of aligned rounds, ZF slots and TDMA slots. Trials are
drawn in fixed-size chunks whose generators are keyed by (seed, chunk
index), so results are byte identical regardless of execution order or
worker count; channel draws are shared across the SNR grid, which removes
almost all Monte Carlo noise from the slope.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import protocol
from .channel import DelayConfig, _require_count, _require_integer, complex_normal
from .precoding import _zf_gains
from .scheduler import build_plan_general

__all__ = [
    "MAT_DOF_K3",
    "SIMULATION_SCHEMES",
    "DofEstimate",
    "TradeoffPoint",
    "baseline_zf_mat",
    "baseline_zf_tdma",
    "emit_tradeoff_table",
    "estimate_dof_slope",
    "fit_dof_slope",
    "tradeoff_k3",
]

# DoF of the completely-outdated-CSI scheme for 3 users and 2 antennas,
# used as a curve constant only (no signal-level simulation of it).
MAT_DOF_K3 = Fraction(3, 2)

SIMULATION_SCHEMES = ("stia", "zf_tdma", "zf", "tdma")

_CHUNK = 512


@dataclass(frozen=True)
class TradeoffPoint:
    """One scheme's DoF at one delay ratio, both exact rationals."""

    scheme: str
    gamma: Fraction
    dof: Fraction


@dataclass
class DofEstimate:
    """Monte Carlo DoF slope with its provenance."""

    scheme: str
    gamma: Fraction
    snr_grid_db: tuple[float, ...]
    mean_sum_rates: tuple[float, ...]
    slope: float
    confidence_halfwidth: float
    trials: int
    seed: int
    resamples: int = 0

    def to_dict(self) -> dict:
        """The fields, JSON-ready: tuples as lists, ``gamma`` as ``gamma_num`` and ``gamma_den``."""
        fields = {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(self).items()}
        gamma = fields.pop("gamma")
        return {**fields, "gamma_num": gamma.numerator, "gamma_den": gamma.denominator}


def tradeoff_k3(gamma) -> Fraction:
    """Achievable DoF of the 3-user, 2-antenna channel versus delay ratio.

    2 up to gamma = 1/3, then the line -(3/4) gamma + 9/4 down to 3/2 at
    gamma = 1, constant 3/2 beyond.
    """
    g = Fraction(gamma)
    if g < 0:
        raise ValueError("gamma cannot be negative")
    if g <= Fraction(1, 3):
        return Fraction(2)
    if g <= 1:
        return -Fraction(3, 4) * g + Fraction(9, 4)
    return MAT_DOF_K3


def baseline_zf_tdma(gamma) -> Fraction:
    """Time sharing of ZF (current CSIT) and TDMA (none): 2 - gamma on [0, 1]."""
    g = Fraction(gamma)
    if not 0 <= g <= 1:
        raise ValueError("the ZF/TDMA baseline is defined on gamma in [0, 1]")
    return 2 - g


def baseline_zf_mat(gamma) -> Fraction:
    """Time sharing of ZF and the outdated-CSI scheme: 2 - gamma/2 on [0, 1]."""
    g = Fraction(gamma)
    if not 0 <= g <= 1:
        raise ValueError("the ZF/outdated-CSI baseline is defined on gamma in [0, 1]")
    return 2 - g / 2


def emit_tradeoff_table(gammas) -> list[TradeoffPoint]:
    """Rows for every scheme at every delay ratio, exact rationals.

    Past gamma = 1 no current-CSIT slots remain, so the time-sharing
    baselines keep their values at 1 there: those of their no-CSIT
    constituents (1 for TDMA fill-in, 3/2 for the outdated-CSI scheme).
    """
    rows = []
    for value in gammas:
        try:
            g = Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise ValueError(f"delay ratio {value!r} is not a number or a fraction") from err
        rows.append(TradeoffPoint("stia", g, tradeoff_k3(g)))  # rejects a negative gamma
        rows.append(TradeoffPoint("zf_tdma", g, baseline_zf_tdma(min(g, 1))))
        rows.append(TradeoffPoint("zf_mat", g, baseline_zf_mat(min(g, 1))))
        rows.append(TradeoffPoint("tdma", g, Fraction(1)))
        rows.append(TradeoffPoint("mat", g, MAT_DOF_K3))
    if not rows:
        raise ValueError("gamma grid must not be empty")
    return rows


def fit_dof_slope(snr_grid_db, mean_rates) -> float:
    """Least-squares slope of rate against log2 of the linear SNR."""
    db = np.asarray(snr_grid_db, dtype=float)
    y = np.asarray(mean_rates, dtype=float)
    if db.shape != y.shape or db.size < 2:
        raise ValueError("need matching grids with at least two SNR points")
    x = db / (10.0 * np.log10(2.0))
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[1])


# ---------------------------------------------------------------------------
# One batched rate engine for every scheme. A trial is the scheme's slot mix
# (aligned rounds, ZF slots, TDMA slots, horizon); the engine returns
# (rates, resamples) with rates of shape (trials, len(snr)) holding per-slot
# sum rates in bits. Slots and rounds are drawn independently; mean rates
# are unaffected because expectation is additive across the horizon.
# ---------------------------------------------------------------------------


def _chunk_layout(trials: int):
    starts = range(0, trials, _CHUNK)
    return [(i, s, min(_CHUNK, trials - s)) for i, s in enumerate(starts)]


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed & (1 << 64) - 1, index))


def _tdma_bits(h: np.ndarray, snr_lin: np.ndarray) -> np.ndarray:
    """Rates of single-user slots with full power on the matched beam: (count, len(snr))."""
    gains = np.sum(np.abs(h) ** 2, axis=1)
    return np.log2(1.0 + snr_lin[None, :] * gains[:, None])


def _zf_bits(gains: np.ndarray, snr_lin: np.ndarray) -> np.ndarray:
    """Sum rates of ZF slots from (count, n_t) ZF gains with equal power per stream."""
    return np.log2(1.0 + (snr_lin[None, None, :] / gains.shape[-1]) * gains[:, :, None]).sum(axis=1)


def _zf_stack_bits(n_t: int, count: int, snr_lin: np.ndarray, rng) -> tuple[np.ndarray, int]:
    """Sum rates of ZF slots on (count,) served-channel stacks.

    Served users' rows are i.i.d., so drawing the n_t x n_t served stack
    directly is distribution-identical to selecting a rotating subset of K
    users.
    """

    def guard(h):
        gains, _, cond = _zf_gains(h)
        return cond, gains

    _, gains, _, resamples = protocol._redraw_guarded(
        lambda n: complex_normal(rng, (n, n_t, n_t)), guard, count
    )
    return _zf_bits(gains, snr_lin), resamples


def _slot_mix(scheme: str, K: int, delay: DelayConfig, rounds_per_trial: int) -> tuple[int, int, int, int]:
    """Aligned rounds, ZF slots, TDMA slots and horizon of one trial of ``scheme``."""
    if scheme == "stia":
        plan = build_plan_general(K, rounds_per_trial)
        if (delay.t_c, delay.t_fb) != (plan.t_c, plan.t_fb):
            raise ValueError(
                "no aligned plan for this delay configuration; need t_c == K and t_fb == 1"
            )
        return len(plan.stia_rounds), len(plan.zf_slots), len(plan.tdma_slots), plan.horizon
    if scheme == "zf_tdma":
        if delay.t_fb > delay.t_c:
            raise ValueError("the ZF/TDMA time share needs t_fb <= t_c")
        return 0, delay.t_c - delay.t_fb, delay.t_fb, delay.t_c
    if scheme == "zf":
        if delay.t_fb != 0:
            raise ValueError("pure ZF needs t_fb == 0")
        return 0, 1, 0, 1
    return 0, 0, 1, 1


def _mix_chunk(K: int, mix: tuple[int, int, int, int], snr_lin, size: int, rng) -> tuple[np.ndarray, int]:
    """Per-slot sum rates of ``size`` trials: draws rounds, then ZF stacks, then TDMA rows."""
    rounds, zf, tdma, horizon = mix
    parts = []
    resamples = 0
    if rounds:
        _, heff, _, resamples = protocol.batch_rounds(K, size * rounds, rng)
        gram = np.einsum("ckaj,ckbj->ckab", heff, heff.conj())
        cov = protocol.difference_noise_covariance(K)
        bits = np.empty((size * rounds, snr_lin.size))
        for gi, p in enumerate(snr_lin):
            bits[:, gi] = protocol._round_bits(gram, cov, p, K).sum(axis=1)
        parts.append(bits.reshape(size, rounds, -1).sum(axis=1))
    if zf:
        bits, zf_res = _zf_stack_bits(K - 1, size * zf, snr_lin, rng)
        parts.append(bits.reshape(size, zf, -1).sum(axis=1))
        resamples += zf_res
    if tdma:
        bits = _tdma_bits(complex_normal(rng, (size * tdma, K - 1)), snr_lin)
        parts.append(bits.reshape(size, tdma, -1).sum(axis=1))
    return sum(parts) / horizon, resamples


def estimate_dof_slope(
    scheme: str,
    K: int,
    delay: DelayConfig,
    snr_grid_db,
    trials: int,
    seed: int,
    rounds_per_trial: int = 16,
    threads: int | None = None,
) -> DofEstimate:
    """Monte Carlo DoF slope of one scheme over an SNR grid.

    Per trial the scheme's slot mix is simulated end to end (the rounds, ZF
    and TDMA slots of a full scheduled horizon for the aligned scheme,
    t_c - t_fb ZF and t_fb TDMA slots for the ZF/TDMA time share, a single
    slot for pure ZF or TDMA) and the sum rate per slot is recorded at every
    grid point. The slope of the mean rates against log2(SNR) is the DoF
    estimate; the confidence half width is 1.96 times the exact standard
    error of the per-trial slopes (0 for a single trial).

    Every scheme needs integers K >= 2, ``trials >= 1``, ``rounds_per_trial
    >= 1`` and ``seed``, and SNR points finite in dB, and positive and
    finite as linear SNR. The aligned scheme requires ``delay == (t_c=K,
    t_fb=1)``, pure ZF ``t_fb == 0`` and the time share ``t_fb <= t_c``.
    """
    db = tuple(float(x) for x in snr_grid_db)
    if not all(np.isfinite(db)):
        raise ValueError("snr_grid_db must be finite")
    try:
        snr_lin = np.asarray([10.0 ** (x / 10.0) for x in db])
    except OverflowError:
        raise ValueError(f"snr_grid_db point {max(db)} dB has no finite linear SNR") from None
    if (snr_lin <= 0).any():
        raise ValueError(f"snr_grid_db point {min(db)} dB has no positive linear SNR")
    if len(db) < 2 or any(x2 <= x1 for x1, x2 in zip(db, db[1:])):
        raise ValueError("snr_grid_db must be strictly increasing with at least 2 points")
    trials = _require_count("trials", trials, 1)
    K = _require_count("K", K, 2)
    rounds_per_trial = _require_count("rounds_per_trial", rounds_per_trial, 1)
    seed = _require_integer("seed", seed)
    if scheme not in SIMULATION_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SIMULATION_SCHEMES}")
    mix = _slot_mix(scheme, K, delay, rounds_per_trial)

    def compute(entry):
        index, _, size = entry
        return _mix_chunk(K, mix, snr_lin, size, _chunk_rng(seed, index))

    layout = _chunk_layout(trials)
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(compute, layout))
    else:
        results = [compute(entry) for entry in layout]

    rates = np.concatenate([r for r, _ in results], axis=0)
    resamples = int(sum(res for _, res in results))
    mean_rates = rates.mean(axis=0)
    slope = fit_dof_slope(db, mean_rates)

    # The fit is linear, so the slope is the mean of the per-trial slopes.
    trial_slopes = rates @ [fit_dof_slope(db, e) for e in np.eye(len(db))]
    halfwidth = float(1.96 * trial_slopes.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0

    return DofEstimate(
        scheme=scheme,
        gamma=delay.gamma,
        snr_grid_db=db,
        mean_sum_rates=tuple(float(x) for x in mean_rates),
        slope=slope,
        confidence_halfwidth=halfwidth,
        trials=trials,
        seed=seed,
        resamples=resamples,
    )
