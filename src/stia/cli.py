"""Command-line front end: reproducible experiments with CSV/JSON artifacts.

Subcommands
-----------
simulate   Monte Carlo DoF slope of one scheme over an SNR grid.
tradeoff   Exact rational delay-DoF table for all schemes.
verify     Alignment/cancellation/decoding/rank/plan/power property suites.
schedule   Slot plan for one (K, n), as JSON slot-to-role mapping.

Identical flags and seed produce byte-identical output files, regardless
of the STIA_THREADS worker cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from . import analysis, scheduler, verify
from .channel import DelayConfig
from .precoding import IllConditionedChannelError

__all__ = ["RunConfig", "main", "run_schedule", "run_simulate", "run_tradeoff", "run_verify"]

SCHEMA_VERSION = 1

_DEFAULT_GAMMAS = tuple(str(Fraction(i, 24)) for i in range(0, 37))  # 0 .. 3/2 step 1/24


@dataclass
class RunConfig:
    """Flat experiment configuration; round-trips losslessly through JSON."""

    command: str
    k: int = 3
    t_c: int = 3
    t_fb: int = 1
    snr_grid_db: tuple[float, ...] = (40.0, 50.0, 60.0)
    trials: int = 10_000
    seed: int = 0
    scheme: str = "stia"
    output_path: str | None = None
    format: str = "json"
    n: int = 3
    k_values: tuple[int, ...] = (3, 4, 5, 6)
    gammas: tuple[str, ...] = _DEFAULT_GAMMAS
    rounds_per_trial: int = 16
    verify_rounds: int = 1000
    inject_fault: str = "none"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        raw = json.loads(text)
        allowed = {f.name for f in fields(cls)}
        unknown = set(raw) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("snr_grid_db", "k_values", "gammas"):
            if key in raw and raw[key] is not None:
                raw[key] = tuple(raw[key])
        return cls(**raw)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _threads_from_env() -> int | None:
    raw = os.environ.get("STIA_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as err:
        raise ValueError(f"STIA_THREADS must be an integer, got {raw!r}") from err
    if value < 1:
        raise ValueError("STIA_THREADS must be at least 1")
    return value


def run_simulate(cfg: RunConfig) -> int:
    if cfg.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    try:
        est = analysis.estimate_dof_slope(
            cfg.scheme,
            cfg.k,
            DelayConfig(cfg.t_c, cfg.t_fb),
            cfg.snr_grid_db,
            cfg.trials,
            cfg.seed,
            rounds_per_trial=cfg.rounds_per_trial,
            threads=_threads_from_env(),
        )
    except (ValueError, IllConditionedChannelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(
        f"scheme={est.scheme} gamma={est.gamma} slope={est.slope!r} "
        f"ci_halfwidth={est.confidence_halfwidth!r}"
    )
    if cfg.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, **est.to_dict()}
        _emit(_json_text(payload), cfg.output_path)
    else:
        rows = [
            (
                SCHEMA_VERSION,
                est.scheme,
                est.gamma.numerator,
                est.gamma.denominator,
                repr(db),
                repr(rate),
            )
            for db, rate in zip(est.snr_grid_db, est.mean_sum_rates)
        ]
        header = ("schema_version", "scheme", "gamma_num", "gamma_den", "snr_db", "mean_sum_rate_bits")
        _emit(_csv_text(header, rows), cfg.output_path)
    return 0


def run_tradeoff(cfg: RunConfig) -> int:
    try:
        gammas = [Fraction(g) for g in cfg.gammas]
        points = analysis.emit_tradeoff_table(gammas)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if cfg.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "points": [
                {
                    "scheme": p.scheme,
                    "gamma_num": p.gamma.numerator,
                    "gamma_den": p.gamma.denominator,
                    "dof_num": p.dof.numerator,
                    "dof_den": p.dof.denominator,
                }
                for p in points
            ],
        }
        _emit(_json_text(payload), cfg.output_path)
    else:
        header = ("schema_version", "scheme", "gamma_num", "gamma_den", "dof_num", "dof_den")
        rows = [
            (
                SCHEMA_VERSION,
                p.scheme,
                p.gamma.numerator,
                p.gamma.denominator,
                p.dof.numerator,
                p.dof.denominator,
            )
            for p in points
        ]
        _emit(_csv_text(header, rows), cfg.output_path)
    return 0


def run_verify(cfg: RunConfig) -> int:
    try:
        report = verify.run_all(
            k_values=cfg.k_values,
            rounds=cfg.verify_rounds,
            seed=cfg.seed,
            inject_fault=cfg.inject_fault,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(_json_text(report), cfg.output_path)
    for name in ("alignment", "cancellation", "decoding", "rank"):
        status = "ok" if report[name]["passed"] else "FAIL"
        print(f"{name}: {status}")
    print(f"plans: {'ok' if report['plans']['passed'] else 'FAIL'}")
    print(f"power: {'ok' if report['power']['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def run_schedule(cfg: RunConfig) -> int:
    try:
        plan = scheduler.build_plan_k3(cfg.n) if cfg.k == 3 else scheduler.build_plan_general(cfg.k, cfg.n)
        scheduler.validate_plan(plan)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    payload = {"schema_version": SCHEMA_VERSION, **plan.to_dict()}
    _emit(_json_text(payload), cfg.output_path)
    if cfg.output_path is not None:
        rounds = ", ".join("{" + ",".join(map(str, r)) + "}" for r in plan.stia_rounds)
        print(f"rounds: {rounds}")
        print(f"zf: {sorted(plan.zf_slots)} tdma: {sorted(plan.tdma_slots)}")
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stia",
        description="MISO broadcast simulator under delayed CSI feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with RunConfig defaults")
        p.add_argument("--k", type=int, help="number of users")
        p.add_argument("--tc", type=int, dest="t_c", help="coherence time in slots")
        p.add_argument("--tfb", type=int, dest="t_fb", help="feedback delay in slots")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--out", dest="output_path", help="output file (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    sim = sub.add_parser("simulate", help="Monte Carlo DoF slope estimate")
    add_common(sim)
    sim.add_argument("--scheme", choices=analysis.SIMULATION_SCHEMES, help="transmission scheme")
    sim.add_argument("--snr", type=_parse_float_list, dest="snr_grid_db", help="comma list of dB points")
    sim.add_argument("--trials", type=int, help="Monte Carlo trials")
    sim.add_argument("--rounds-per-trial", type=int, dest="rounds_per_trial",
                     help="aligned rounds per simulated horizon")

    trade = sub.add_parser("tradeoff", help="exact delay-DoF table")
    add_common(trade)
    trade.add_argument("--gammas", type=_parse_str_list,
                       help="comma list of delay ratios, fractions allowed (e.g. 0,1/3,1)")

    ver = sub.add_parser("verify", help="run the property suites")
    add_common(ver)
    ver.add_argument("--k-values", type=_parse_int_list, dest="k_values",
                     help="comma list of user counts to sweep")
    ver.add_argument("--rounds", type=int, dest="verify_rounds", help="rounds per user count")
    ver.add_argument("--inject-fault", choices=("none", "alignment"), dest="inject_fault",
                     help="testing hook: break the precoders and expect failure")

    sched = sub.add_parser("schedule", help="emit a slot plan")
    add_common(sched)
    sched.add_argument("--n", type=int, help="number of aligned rounds in the horizon")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base = RunConfig(command=args.command)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            base = RunConfig.from_json(fh.read())
        base.command = args.command
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "config") and value is not None
    }
    for name, value in overrides.items():
        setattr(base, name, value)
    return base


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    runners = {
        "simulate": run_simulate,
        "tradeoff": run_tradeoff,
        "verify": run_verify,
        "schedule": run_schedule,
    }
    try:
        return runners[cfg.command](cfg)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
