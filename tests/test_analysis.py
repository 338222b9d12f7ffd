"""Tests for the trade-off curves and DoF slope estimation."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stia import analysis, protocol
from stia.analysis import (
    MAT_DOF_K3,
    baseline_zf_mat,
    baseline_zf_tdma,
    emit_tradeoff_table,
    estimate_dof_slope,
    fit_dof_slope,
    tradeoff_k3,
)
from stia.channel import DelayConfig, _keyed_rng
from stia.precoding import IllConditionedChannelError
from stia.scheduler import account_dof, build_plan_general, build_plan_time_share, validate_plan

THIRD = Fraction(1, 3)


def test_tradeoff_anchor_points():
    assert tradeoff_k3(0) == 2
    assert tradeoff_k3(THIRD) == 2
    assert tradeoff_k3(Fraction(2, 3)) == Fraction(7, 4)
    assert tradeoff_k3(1) == Fraction(3, 2)
    assert tradeoff_k3(Fraction(3, 2)) == Fraction(3, 2)
    assert tradeoff_k3(5) == Fraction(3, 2)


def test_tradeoff_continuity_at_breakpoints():
    # the middle segment meets both plateaus exactly
    line = lambda g: -Fraction(3, 4) * g + Fraction(9, 4)
    assert line(THIRD) == tradeoff_k3(THIRD)
    assert line(Fraction(1)) == tradeoff_k3(1)


def test_tradeoff_piecewise_linear_and_nonincreasing():
    grid = [Fraction(i, 120) for i in range(0, 241)]
    values = [tradeoff_k3(g) for g in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # slope changes only at 1/3 and 1
    breaks = set()
    for (g0, v0), (g1, v1), (g2, v2) in zip(
        zip(grid, values), zip(grid[1:], values[1:]), zip(grid[2:], values[2:])
    ):
        if (v1 - v0) / (g1 - g0) != (v2 - v1) / (g2 - g1):
            breaks.add(g1)
    assert breaks == {THIRD, Fraction(1)}


def test_tradeoff_domain():
    with pytest.raises(ValueError):
        tradeoff_k3(Fraction(-1, 2))


def test_baselines_at_one_third():
    assert baseline_zf_tdma(THIRD) == Fraction(5, 3)
    assert baseline_zf_mat(THIRD) == Fraction(11, 6)
    assert baseline_zf_tdma(0) == 2
    assert baseline_zf_mat(0) == 2


def test_baseline_domain_errors():
    for bad in (Fraction(-1, 10), Fraction(11, 10)):
        with pytest.raises(ValueError):
            baseline_zf_tdma(bad)
        with pytest.raises(ValueError):
            baseline_zf_mat(bad)


def test_gaps_at_one_third_exact():
    assert tradeoff_k3(THIRD) - baseline_zf_tdma(THIRD) == THIRD
    assert tradeoff_k3(THIRD) - baseline_zf_mat(THIRD) == Fraction(1, 6)


def test_pointwise_dominance():
    for i in range(0, 121):
        g = Fraction(i, 120)
        assert tradeoff_k3(g) >= baseline_zf_mat(g) >= baseline_zf_tdma(g)
        if THIRD < g < 1:
            assert tradeoff_k3(g) > baseline_zf_mat(g)


def test_emit_table_rows_complete():
    gammas = [Fraction(0), THIRD, Fraction(2, 3), Fraction(1), Fraction(4, 3)]
    rows = emit_tradeoff_table(gammas)
    assert len(rows) == 5 * len(gammas)
    stia = {r.gamma: r.dof for r in rows if r.scheme == "stia"}
    assert [stia[g] for g in gammas] == [2, 2, Fraction(7, 4), Fraction(3, 2), Fraction(3, 2)]
    by_key = {(r.scheme, r.gamma) for r in rows}
    for g in gammas:
        for scheme in ("stia", "zf_tdma", "zf_mat", "tdma", "mat"):
            assert (scheme, g) in by_key
    # beyond gamma = 1 the time shares collapse onto their no-CSIT schemes
    tail = {r.scheme: r.dof for r in rows if r.gamma == Fraction(4, 3)}
    assert tail["zf_tdma"] == 1
    assert tail["zf_mat"] == MAT_DOF_K3


def test_emit_table_dominates_zf_tdma_on_unit_interval():
    gammas = [Fraction(i, 24) for i in range(25)]
    rows = emit_tradeoff_table(gammas)
    stia = {r.gamma: r.dof for r in rows if r.scheme == "stia"}
    zf_tdma = {r.gamma: r.dof for r in rows if r.scheme == "zf_tdma"}
    assert all(stia[g] >= zf_tdma[g] for g in gammas)


def test_emit_table_domain():
    with pytest.raises(ValueError):
        emit_tradeoff_table([])
    with pytest.raises(ValueError):
        emit_tradeoff_table([Fraction(-1, 3)])
    for bad in ("1/0", "x/2"):
        with pytest.raises(ValueError, match=repr(bad)):
            emit_tradeoff_table(["1/3", bad])


def test_fit_recovers_injected_slope_exactly():
    grid = (40.0, 50.0, 60.0)
    for d, c in [(2.0, 3.7), (1.0, -0.4), (2.921, 11.0)]:
        rates = [d * db / (10 * np.log10(2.0)) + c for db in grid]
        assert fit_dof_slope(grid, rates) == pytest.approx(d, abs=1e-12)


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        fit_dof_slope((40.0,), (1.0,))
    # Two points at one SNR have no slope: the centred grid is all zeros and its weights divide by zero.
    with pytest.raises(ValueError, match="distinct"):
        fit_dof_slope((1.0, 1.0), (1.0, 2.0))
    # A non-finite point would make every weight, or the slope, nan.
    for db, rates in [((np.nan, 50.0), (1.0, 2.0)), ((40.0, np.inf), (1.0, 2.0)), ((40.0, 50.0), (1.0, np.nan))]:
        with pytest.raises(ValueError, match="finite"):
            fit_dof_slope(db, rates)
    # The grid is one axis; only the rates may be stacked.
    with pytest.raises(ValueError, match="1-d"):
        fit_dof_slope([[40.0, 50.0]], [[1.0, 2.0]])


def _lstsq_slope(db, rates):
    """Reference slopes: LAPACK's least-squares fit of each row of ``rates`` against (1, log2 SNR)."""
    x = np.asarray(db) / (10.0 * np.log10(2.0))
    coef, *_ = np.linalg.lstsq(np.stack([np.ones_like(x), x], axis=1), np.asarray(rates).T, rcond=None)
    return coef[1]


# Grids of 2-8 distinct points at least 0.5 dB apart, each with 1-4 rows of finite rates.
_GRIDS_AND_RATES = st.lists(st.integers(-400, 400), min_size=2, max_size=8, unique=True).flatmap(
    lambda half_db: st.tuples(
        st.just([h / 2 for h in half_db]),
        st.lists(st.lists(st.floats(-1e3, 1e3), min_size=len(half_db), max_size=len(half_db)),
                 min_size=1, max_size=4),
    )
)


@given(_GRIDS_AND_RATES)
def test_fit_matches_a_lstsq_reference(grid_and_rates):
    db, rows = grid_and_rates
    expected = _lstsq_slope(db, rows)
    # 1e-12 of the largest slope the rates' size and the grid's spread allow.
    scale = max(1.0, np.abs(rows).max() / np.ptp(np.asarray(db) / (10.0 * np.log10(2.0))))
    stacked = fit_dof_slope(db, rows)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(rows),)
    assert np.abs(stacked - expected).max() <= 1e-12 * scale
    for row, want in zip(rows, expected):
        slope = fit_dof_slope(db, row)
        assert isinstance(slope, float) and abs(slope - want) <= 1e-12 * scale


def test_estimate_validates_inputs():
    cfg = DelayConfig(3, 1)
    with pytest.raises(ValueError):
        estimate_dof_slope("stia", 3, DelayConfig(4, 1), (40, 50), 10, 0)
    with pytest.raises(ValueError):
        estimate_dof_slope("zf", 3, cfg, (40, 50), 10, 0)
    with pytest.raises(ValueError):
        estimate_dof_slope("nope", 3, cfg, (40, 50), 10, 0)
    with pytest.raises(ValueError):
        estimate_dof_slope("tdma", 3, cfg, (50, 40), 10, 0)
    with pytest.raises(ValueError):
        estimate_dof_slope("tdma", 3, cfg, (40, 50), 0, 0)
    with pytest.raises(ValueError):
        estimate_dof_slope("stia", 2, DelayConfig(2, 1), (40, 50), 10, 0)
    with pytest.raises(ValueError, match="rounds_per_trial"):
        estimate_dof_slope("tdma", 3, cfg, (40, 50), 10, 0, rounds_per_trial=0)
    for grid in ((float("nan"), 50), (40, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            estimate_dof_slope("tdma", 3, cfg, grid, 10, 0)
    # A (t_c, t_fb) tuple was an AttributeError on 't_c'.
    with pytest.raises(ValueError, match="delay must be a DelayConfig"):
        estimate_dof_slope("tdma", 3, (3, 1), (40, 50), 4, 0)


def test_estimate_tdma_smoke():
    est = estimate_dof_slope("tdma", 3, DelayConfig(3, 1), (40, 50, 60), 1500, seed=3)
    assert 0.95 <= est.slope <= 1.05
    assert est.gamma == THIRD
    assert len(est.mean_sum_rates) == 3
    assert est.confidence_halfwidth >= 0.0


@pytest.mark.parametrize("scheme", analysis.SIMULATION_SCHEMES)
def test_estimate_deterministic_and_thread_invariant(scheme):
    delay = DelayConfig(3, 0 if scheme == "zf" else 1)
    args = (scheme, 3, delay, (40.0, 50.0, 60.0), 1200, 11)
    a = estimate_dof_slope(*args, rounds_per_trial=2)
    b = estimate_dof_slope(*args, rounds_per_trial=2)
    c = estimate_dof_slope(*args, rounds_per_trial=2, threads=4)
    assert a == b == c


@pytest.mark.parametrize("scheme", analysis.SIMULATION_SCHEMES)
@pytest.mark.parametrize("threads", [None, 2])
def test_estimate_rejects_a_grid_whose_rates_overflow(scheme, threads):
    # 3082 dB has a finite linear SNR, but rates past it overflow in the engine, in a worker thread too.
    delay = DelayConfig(3, 0 if scheme == "zf" else 1)
    with pytest.raises(ValueError, match=r"\[3000.0, 3082.0\]"):
        estimate_dof_slope(scheme, 3, delay, (3000.0, 3082.0), 1100, 0, rounds_per_trial=2, threads=threads)


def test_estimate_prices_k3_rounds_inside_float_range_at_1500_db():
    # At 1550 dB the products p^2 g_ab g_cd of a 2x2 determinant pass float range; its pivots, of order p, do not.
    # 53/27 is account_dof of the 16-round K=3 plan.
    est = estimate_dof_slope("stia", 3, DelayConfig(3, 1), (1500.0, 1550.0), 4, 0)
    assert abs(est.slope - 53 / 27) <= 1e-9


def test_k3_estimates_run_without_a_lapack_solve(monkeypatch):
    # Every K=3 stack is 2x2 and takes the closed form, so a refactor that drops it fails here.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve was called at K=3")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for scheme in ("stia", "zf_tdma"):
        est = estimate_dof_slope(scheme, 3, DelayConfig(3, 1), (40.0, 50.0), 600, 0)
        assert np.isfinite(est.slope)


def test_estimate_to_dict_round_trips_values():
    est = estimate_dof_slope("zf", 3, DelayConfig(3, 0), (40, 60), 500, seed=1)
    d = est.to_dict()
    assert d["scheme"] == "zf"
    assert d["gamma_num"] == 0 and d["gamma_den"] == 1
    assert d["trials"] == 500
    assert d["slope"] == est.slope


# Each scheme's trial: (scheme, K, delay, rounds per trial), its plan and the
# plan's horizon.
_PLANS = {
    "3": (("stia", 3, DelayConfig(3, 1), 5), build_plan_general(3, 5), 21),
    "4": (("stia", 4, DelayConfig(4, 1), 5), build_plan_general(4, 5), 32),
    "5": (("stia", 5, DelayConfig(5, 1), 5), build_plan_general(5, 5), 45),
    "6": (("stia", 6, DelayConfig(6, 1), 5), build_plan_general(6, 5), 60),
    "zf_tdma": (("zf_tdma", 3, DelayConfig(7, 3), 5), build_plan_time_share(3, 7, 3), 7),
    "zf": (("zf", 4, DelayConfig(3, 0), 5), build_plan_time_share(4, 1, 0), 1),
    "tdma": (("tdma", 4, DelayConfig(3, 1), 5), build_plan_time_share(4, 1, 1), 1),
}


@pytest.mark.parametrize("key", list(_PLANS))
def test_stia_engine_slot_mix_follows_the_plan(key, monkeypatch):
    # The one engine draws each scheme's rounds, ZF slots and TDMA slots per
    # trial and averages over the horizon. With ZF and TDMA slots replaced
    # by one bit each and rounds at vanishing SNR, the per-slot rate is the
    # plan's share of ZF and TDMA slots. Schemes without rounds never draw one.
    (scheme, K, delay, n), expected, horizon = _PLANS[key]
    plan = analysis._scheme_plan(scheme, K, delay, n)
    assert plan == expected and plan.horizon == horizon
    rounds, zf_slots, tdma_slots = len(plan.stia_rounds), len(plan.zf_slots), len(plan.tdma_slots)
    size = 3
    counts = {"rounds": 0, "zf": 0, "tdma": 0}
    batch_rounds = protocol.batch_rounds

    def draw_rounds(K_, count, rng):
        counts["rounds"] += count
        return batch_rounds(K_, count, rng)

    def zf(n_t, count, snr_lin, rng):
        assert n_t == K - 1
        counts["zf"] += count
        return np.ones((count, snr_lin.size)), 0

    # With the ZF stacks faked, the engine's own draws and pricing are its TDMA rows.
    complex_normal = analysis.complex_normal

    def tdma_rows(rng, shape):
        assert shape[1] == K - 1
        counts["tdma"] += shape[0]
        return complex_normal(rng, shape)

    def tdma(gains, snr_lin):
        assert gains.shape[1] == 1
        return np.ones((len(gains), snr_lin.size))

    monkeypatch.setattr(protocol, "batch_rounds", draw_rounds)
    monkeypatch.setattr(analysis, "_zf_stack_bits", zf)
    monkeypatch.setattr(analysis, "complex_normal", tdma_rows)
    monkeypatch.setattr(analysis, "_zf_bits", tdma)
    bits, _ = analysis._mix_chunk(K, plan, np.array([1e-30]), size, np.random.default_rng(K))
    assert counts == {"rounds": size * rounds, "zf": size * zf_slots, "tdma": size * tdma_slots}
    np.testing.assert_allclose(bits, (zf_slots + tdma_slots) / horizon, rtol=1e-12)


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_slot_mix_dof_matches_the_exact_accounting(K):
    for n in (1, 2, 5, 16):
        # n rounds, (K-1)^2 ZF slots and K-1 TDMA slots over K(n+K-1) slots.
        plan = analysis._scheme_plan("stia", K, DelayConfig(K, 1), n)
        assert account_dof(plan).dof == Fraction(K * (K - 1) * n + (K - 1) ** 3 + K - 1, K * (n + K - 1))
    for t_fb in range(4):
        plan = analysis._scheme_plan("zf_tdma", 3, DelayConfig(3, t_fb), 16)
        assert account_dof(plan).dof == baseline_zf_tdma(Fraction(t_fb, 3))
    assert account_dof(analysis._scheme_plan("zf", K, DelayConfig(3, 0), 16)).dof == K - 1
    assert account_dof(analysis._scheme_plan("tdma", K, DelayConfig(3, 1), 16)).dof == 1


@pytest.mark.parametrize("K", [2, 3, 4, 6])
def test_every_scheme_plan_is_a_valid_plan(K):
    plans = [analysis._scheme_plan("zf_tdma", K, DelayConfig(t_c, t_fb), 16) for t_c in range(1, 8) for t_fb in range(t_c + 1)]
    plans += [analysis._scheme_plan("zf", K, DelayConfig(3, 0), 16), analysis._scheme_plan("tdma", K, DelayConfig(3, 1), 16)]
    plans += [analysis._scheme_plan("stia", K, DelayConfig(K, 1), n) for n in (1, 2, 5, 16) if K >= 3]
    for plan in plans:
        validate_plan(plan)


@pytest.mark.parametrize("scheme,delay", [("zf", DelayConfig(3, 0)), ("zf_tdma", DelayConfig(3, 1))])
def test_zf_engines_give_up_on_persistently_singular_draws(scheme, delay, singular_guard):
    with pytest.raises(IllConditionedChannelError):
        estimate_dof_slope(scheme, 3, delay, (40.0, 50.0), 8, seed=0)


@pytest.mark.parametrize("scheme", analysis.SIMULATION_SCHEMES)
def test_every_scheme_rejects_fewer_than_two_users(scheme):
    with pytest.raises(ValueError):
        estimate_dof_slope(scheme, 1, DelayConfig(1, 0), (40.0, 50.0), 8, seed=0)


# (scheme, K, delay, trials) at seed 7 on a 40/50/60 dB grid, with the slope
# and mean rates the bootstrap-era engine printed for them; stia's since K=3
# rounds are priced in closed form, which moved them by at most 1.6e-16 relative.
# The slopes are re-recorded since the fit takes fixed weights in place of
# lstsq, which moved them by at most 1.9e-15 relative.
_PINNED = {
    "tdma": (
        ("tdma", 3, DelayConfig(3, 1), 1000),
        0.999978314974463,
        (13.86530934821206, 17.187106470692765, 20.509021465795655),
    ),
    "zf": (
        ("zf", 3, DelayConfig(3, 0), 1000),
        1.9989749330447562,
        (22.877658859489763, 29.515574320312812, 36.1585608416037),
    ),
    "zf_tdma": (
        ("zf_tdma", 3, DelayConfig(3, 1), 1000),
        1.666343920616368,
        (20.009592401531677, 25.54419254573348, 31.080541772812232),
    ),
    "stia": (
        ("stia", 3, DelayConfig(3, 1), 300),
        1.9612917113319446,
        (22.823968475204403, 29.33498274106796, 35.85450855149102),
    ),
}


@pytest.mark.parametrize("key", list(_PINNED))
def test_halfwidth_is_the_exact_standard_error_of_the_slope(key):
    (scheme, K, delay, trials), slope, mean_rates = _PINNED[key]
    db = (40.0, 50.0, 60.0)
    est = estimate_dof_slope(scheme, K, delay, db, trials, seed=7)
    assert est.slope == slope
    assert est.mean_sum_rates == mean_rates
    assert fit_dof_slope(db, est.mean_sum_rates) == est.slope

    # Rebuild the per-trial rates chunk by chunk, as the estimate draws them.
    plan = analysis._scheme_plan(scheme, K, delay, 16)
    snr_lin = np.asarray([10.0 ** (x / 10.0) for x in db])
    rates = np.concatenate([
        analysis._mix_chunk(K, plan, snr_lin, size, _keyed_rng(7, index))[0]
        for index, size in analysis._chunk_layout(trials)
    ])
    x = np.asarray(db) / (10.0 * np.log10(2.0))
    c = np.linalg.pinv(np.stack([np.ones_like(x), x], axis=1))[1]
    exact = 1.96 * np.std(rates @ c, ddof=1) / np.sqrt(trials)
    assert est.confidence_halfwidth == pytest.approx(exact, rel=1e-12)

    rng = np.random.default_rng(2000)
    boot = [fit_dof_slope(db, rates[rng.integers(0, trials, trials)].mean(axis=0)) for _ in range(2000)]
    assert est.confidence_halfwidth == pytest.approx(1.96 * np.std(boot, ddof=1), rel=0.15)


# Every scheme at a high-SNR grid, where the finite-SNR bias is far below
# the bound: (scheme, K, delay, trials) and the exact DoF of its slot plan.
_EXACT_DOF = {
    **{
        f"stia-k{K}": (("stia", K, DelayConfig(K, 1), trials), account_dof(build_plan_general(K, 16)).dof)
        for K, trials in ((3, 1000), (4, 500), (5, 200), (6, 200))
    },
    "zf_tdma-k3": (("zf_tdma", 3, DelayConfig(3, 1), 1000), Fraction(5, 3)),
    "zf_tdma-k6": (("zf_tdma", 6, DelayConfig(6, 2), 1000), Fraction(11, 3)),
    "zf": (("zf", 3, DelayConfig(3, 0), 1000), Fraction(2)),
    "tdma": (("tdma", 3, DelayConfig(3, 1), 1000), Fraction(1)),
}


@pytest.mark.parametrize("key", list(_EXACT_DOF))
def test_slope_matches_the_exact_accounting_at_high_snr(key):
    (scheme, K, delay, trials), dof = _EXACT_DOF[key]
    est = estimate_dof_slope(scheme, K, delay, (120.0, 130.0, 140.0), trials, seed=7)
    assert abs(est.slope - float(dof)) <= 1e-6


@pytest.mark.parametrize("field,value", [
    ("trials", True), ("trials", 2.5), ("K", 3.5), ("seed", 2.5), ("seed", "1"), ("rounds_per_trial", 1.5),
])
def test_estimate_rejects_counts_and_seeds_that_are_not_integers(field, value):
    args = {"scheme": "tdma", "K": 3, "delay": DelayConfig(3, 3), "snr_grid_db": (40, 50),
            "trials": 4, "seed": 0}
    args[field] = value
    with pytest.raises(ValueError, match=field):
        estimate_dof_slope(**args)


@pytest.mark.parametrize("threads,word", [
    (0, "at least 1, got 0"), (-3, "at least 1, got -3"), (2.5, "integer"), (True, "integer"), ("2", "integer"),
])
def test_estimate_rejects_a_thread_count_that_is_not_a_positive_integer(threads, word):
    with pytest.raises(ValueError, match=f"threads must be .*{word}"):
        estimate_dof_slope("tdma", 3, DelayConfig(3, 3), (40, 50), 4, 0, threads=threads)


def test_estimate_accepts_a_negative_seed():
    est = estimate_dof_slope("tdma", 3, DelayConfig(3, 3), (40, 50), 4, -3)
    assert est.seed == -3 and est.trials == 4


def test_estimate_takes_numpy_integers_as_python_ints():
    # A numpy seed is masked like the int it holds, and the artifact stays JSON-ready.
    est = estimate_dof_slope("tdma", 3, DelayConfig(3, 3), (40, 50), np.int64(4), np.int64(-1))
    assert est == estimate_dof_slope("tdma", 3, DelayConfig(3, 3), (40, 50), 4, -1)
    assert json.loads(json.dumps(est.to_dict()))["trials"] == 4


def test_estimate_from_a_numpy_delay_config_is_json_ready():
    # DelayConfig stores the Python ints its checks return, so gamma is a Fraction of ints.
    est = estimate_dof_slope("zf_tdma", 3, DelayConfig(np.int64(3), np.int64(1)), (40, 50), 4, 0)
    d = json.loads(json.dumps(est.to_dict()))
    assert (d["gamma_num"], d["gamma_den"]) == (1, 3)
    assert est == estimate_dof_slope("zf_tdma", 3, DelayConfig(3, 1), (40, 50), 4, 0)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_emit_table_rejects_a_non_finite_gamma_by_value(bad):
    with pytest.raises(ValueError, match=repr(bad)):
        emit_tradeoff_table([THIRD, bad])


def test_emit_table_baselines_follow_the_time_share_lines():
    gammas = [Fraction(i, 12) for i in range(0, 31)]
    rows = {(r.scheme, r.gamma): r.dof for r in emit_tradeoff_table(gammas)}
    for g in gammas:
        assert rows["zf_tdma", g] == (2 - g if g <= 1 else 1)
        assert rows["zf_mat", g] == (2 - g / 2 if g <= 1 else Fraction(3, 2))


def test_estimate_to_dict_holds_every_field():
    est = estimate_dof_slope("tdma", 3, DelayConfig(3, 1), (40, 50), 8, seed=2)
    d = est.to_dict()
    names = {f.name for f in dataclasses.fields(est)} - {"gamma"}
    assert set(d) == names | {"gamma_num", "gamma_den"}
    assert d["snr_grid_db"] == [40.0, 50.0] and d["mean_sum_rates"] == list(est.mean_sum_rates)
    assert (d["gamma_num"], d["gamma_den"]) == (1, 3)
    assert all(d[name] == getattr(est, name) for name in names - {"snr_grid_db", "mean_sum_rates"})


@pytest.mark.parametrize("K", [4, 5, 6])
def test_mix_chunk_peaks_under_twice_its_channel_draw(K, traced_peak):
    # The draw itself peaks at 1.5x (real and imaginary parts are filled one at
    # a time); pricing runs in slices, so nothing after it grows with the chunk.
    plan = analysis._scheme_plan("stia", K, DelayConfig(K, 1), 16)
    draw = analysis._CHUNK * len(plan.stia_rounds) * K * K * (K - 1) * np.dtype(complex).itemsize
    snr_lin = np.array([1e4, 1e5, 1e6])
    chunk = lambda: analysis._mix_chunk(K, plan, snr_lin, analysis._CHUNK, np.random.default_rng(K))
    assert traced_peak(chunk) < 2 * draw
