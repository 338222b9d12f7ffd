"""Delay-DoF trade-off curves and Monte Carlo DoF slope estimation.

The analytic side is exact rational arithmetic: the achievable DoF of the
3-user channel as a function of the delay ratio gamma, together with the
time-sharing baselines (ZF with TDMA fill-in, ZF with the outdated-CSI
scheme whose DoF of 3/2 enters only as a constant).

The empirical side estimates the DoF as the high-SNR slope of Monte Carlo
mean sum rates against log2(SNR). One engine runs every scheme from its
per-trial slot plan of aligned rounds, ZF slots and TDMA slots. Trials are
drawn in fixed-size chunks whose generators are keyed by (seed, chunk
index), so results are byte identical regardless of execution order or
worker count; channel draws are shared across the SNR grid, which removes
almost all Monte Carlo noise from the slope.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import protocol
from .channel import DelayConfig, _keyed_rng, _require_count, _require_integer, complex_normal
from .numerics import _term_sum
from .precoding import _zf_gains
from .scheduler import SchedulerPlan, build_plan_general, build_plan_time_share

__all__ = [
    "SIMULATION_SCHEMES",
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
_DIGITS = 4300  # the most digits CPython writes an int with by default: a delay ratio's terms must fit


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
        try:  # Fraction builds 10**exponent: refused unbuilt past 2 _DIGITS, as a mantissa has _DIGITS digits at most
            g = Fraction(value) if abs(int(str(value).lower().partition("e")[2] or 0)) <= 2 * _DIGITS else None
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise ValueError(f"delay ratio {value!r} is not a number or a fraction") from err
        if g is None or max(abs(g.numerator), g.denominator) >= 10**_DIGITS:
            raise ValueError(f"delay ratio {value!r} has a numerator or denominator of more than {_DIGITS:,} digits")
        rows.append(TradeoffPoint("stia", g, tradeoff_k3(g)))  # rejects a negative gamma
        rows.append(TradeoffPoint("zf_tdma", g, baseline_zf_tdma(min(g, 1))))
        rows.append(TradeoffPoint("zf_mat", g, baseline_zf_mat(min(g, 1))))
        rows.append(TradeoffPoint("tdma", g, Fraction(1)))
        rows.append(TradeoffPoint("mat", g, MAT_DOF_K3))
    if not rows:
        raise ValueError("gamma grid must not be empty")
    return rows


def fit_dof_slope(snr_grid_db, mean_rates):
    """Least-squares slope of rates against log2 SNR along their last axis, a float for 1-d rates: the sum
    of the rates with fixed weights ``d / sum(d**2)``, for ``d`` the centred log2 SNR, taken term by term."""
    db = np.asarray(snr_grid_db, dtype=float)
    y = np.asarray(mean_rates, dtype=float)
    if (db.ndim != 1 or y.shape[-1:] != db.shape or db.size < 2 or db.min() == db.max()
            or not np.isfinite(db).all() or not np.isfinite(y).all()):
        raise ValueError("need matching finite 1-d grids with at least two distinct SNR points")
    x = db / (10.0 * np.log10(2.0))
    d = x - _term_sum(x, 0) / x.size
    slope = _term_sum(d / _term_sum(d * d, 0) * y, -1)
    return float(slope) if slope.ndim == 0 else slope


# ---------------------------------------------------------------------------
# One batched rate engine for every scheme. A trial is the scheme's slot plan
# (aligned rounds, ZF slots, TDMA slots, horizon); the engine returns
# (rates, resamples) with rates of shape (trials, len(snr)) holding per-slot
# sum rates in bits. Slots and rounds are drawn independently; mean rates
# are unaffected because expectation is additive across the horizon.
# ---------------------------------------------------------------------------


def _chunk_layout(trials: int):
    return [(i, min(_CHUNK, trials - s)) for i, s in enumerate(range(0, trials, _CHUNK))]


def _zf_bits(gains: np.ndarray, snr_lin: np.ndarray) -> np.ndarray:
    """ZF sum rates from (count, n_t) gains at equal power per stream; TDMA is one stream of gain ||h||^2."""
    return _term_sum(np.log2(1.0 + (snr_lin[None, None, :] / gains.shape[-1]) * gains[:, :, None]), 1)


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


def _scheme_plan(scheme: str, K: int, delay: DelayConfig, rounds_per_trial: int) -> SchedulerPlan:
    """The slot plan of one trial of ``scheme``; pure ZF and TDMA are one-slot time shares."""
    if scheme == "stia":
        plan = build_plan_general(K, rounds_per_trial)
        if (delay.t_c, delay.t_fb) != (plan.t_c, plan.t_fb):
            raise ValueError("no aligned plan for this delay configuration; need t_c == K and t_fb == 1")
        return plan
    if scheme == "zf" and delay.t_fb != 0:
        raise ValueError("pure ZF needs t_fb == 0")
    return build_plan_time_share(K, *{"zf_tdma": (delay.t_c, delay.t_fb), "zf": (1, 0), "tdma": (1, 1)}[scheme])


def _mix_chunk(K: int, plan: SchedulerPlan, snr_lin, size: int, rng) -> tuple[np.ndarray, int]:
    """Per-slot sum rates of ``size`` trials of the plan: draws rounds, then ZF stacks, then TDMA rows.

    The rounds are one :func:`protocol.batch_rounds` draw, priced slice by slice into one array.
    """
    rounds, zf, tdma = len(plan.stia_rounds), len(plan.zf_slots), len(plan.tdma_slots)
    parts = []
    resamples = 0
    if rounds:
        ch, z, _, resamples = protocol.batch_rounds(K, size * rounds, rng)
        bits = np.empty((size * rounds, snr_lin.size))
        for sl in protocol._slices(ch):
            heff = protocol.batch_effective_channels(ch[sl], z[sl])
            bits[sl] = _term_sum(protocol._round_bits(heff, snr_lin), -1).T
        parts.append(_term_sum(bits.reshape(size, rounds, -1), 1))
    if zf:
        bits, zf_res = _zf_stack_bits(K - 1, size * zf, snr_lin, rng)
        parts.append(_term_sum(bits.reshape(size, zf, -1), 1))
        resamples += zf_res
    if tdma:
        gains = _term_sum(abs(complex_normal(rng, (size * tdma, K - 1))) ** 2, 1)[:, None]
        bits = _zf_bits(gains, snr_lin)
        parts.append(_term_sum(bits.reshape(size, tdma, -1), 1))
    return sum(parts) / plan.horizon, resamples


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

    Per trial the scheme's slot plan is simulated end to end (the rounds, ZF
    and TDMA slots of a full scheduled horizon for the aligned scheme, one
    block of t_c - t_fb ZF and t_fb TDMA slots for the ZF/TDMA time share, a
    single slot for pure ZF or TDMA) and the sum rate per slot is recorded at
    every grid point. The slope of the mean rates against log2(SNR) is the DoF
    estimate; the confidence half width is 1.96 times the exact standard
    error of the per-trial slopes (0 for a single trial).

    Every scheme needs integers K >= 2, ``trials >= 1``, ``rounds_per_trial
    >= 1`` and ``seed``, and SNR points finite in dB, positive and finite as
    linear SNR, and with rates inside float range. The aligned scheme requires
    ``delay == (t_c=K, t_fb=1)``, pure ZF ``t_fb == 0`` and the time share
    ``t_fb <= t_c``.
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
    if not isinstance(delay, DelayConfig):
        raise ValueError(f"delay must be a DelayConfig, got {delay!r}")
    plan = _scheme_plan(scheme, K, delay, rounds_per_trial)

    def compute(entry):
        # Set per chunk: a worker thread does not inherit the caller's error state.
        index, size = entry
        try:
            with np.errstate(over="raise", invalid="raise"):
                return _mix_chunk(K, plan, snr_lin, size, _keyed_rng(seed, index))
        except FloatingPointError as err:
            raise ValueError(f"snr_grid_db {list(db)} has rates past float range ({err})") from None

    threads = None if threads is None else _require_count("threads", threads, 1)
    layout = _chunk_layout(trials)
    if threads is not None and threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(compute, layout))
    else:
        results = [compute(entry) for entry in layout]

    rates = np.concatenate([r for r, _ in results], axis=0)
    mean_rates = rates.mean(axis=0)

    # The fit is linear, so the slope is the mean of the per-trial slopes.
    trial_slopes = fit_dof_slope(db, rates)
    halfwidth = float(1.96 * trial_slopes.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0

    return DofEstimate(
        scheme=scheme,
        gamma=delay.gamma,
        snr_grid_db=db,
        mean_sum_rates=tuple(float(x) for x in mean_rates),
        slope=fit_dof_slope(db, mean_rates),
        confidence_halfwidth=halfwidth,
        trials=trials,
        seed=seed,
        resamples=int(sum(res for _, res in results)),
    )
