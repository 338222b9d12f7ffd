"""Command-line front end: reproducible experiments with CSV/JSON artifacts.

Subcommands
-----------
simulate   Monte Carlo DoF slope of one scheme over an SNR grid.
tradeoff   Exact rational delay-DoF table for all schemes.
verify     Alignment/cancellation/decoding/rank/plan/power property suites.
schedule   Slot plan for one (K, n), as JSON slot-to-role mapping.

Each subcommand takes ``--config`` and the flags of the RunConfig fields
its runner reads (``_SUBCOMMANDS``); any other flag is a usage error.
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
from dataclasses import asdict, dataclass
from fractions import Fraction
from types import UnionType
from typing import get_args, get_origin, get_type_hints

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
        """Parse ``to_json`` output; reject unknown keys and values of the wrong type."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        hints = get_type_hints(cls)
        unknown = set(raw) - set(hints)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if not _has_type(value, hints[key]):
                raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
            if isinstance(value, list):
                raw[key] = tuple(value)
        if "command" not in raw:
            raise ValueError("config has no 'command' key")
        return cls(**raw)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a RunConfig field annotation; ints count as floats."""
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if get_origin(hint) is UnionType:
        return any(_has_type(value, h) for h in get_args(hint))
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and not isinstance(value, bool)


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
    points = analysis.emit_tradeoff_table(cfg.gammas)
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
    report = verify.run_all(
        k_values=cfg.k_values,
        rounds=cfg.verify_rounds,
        seed=cfg.seed,
        inject_fault=cfg.inject_fault,
    )
    _emit(_json_text(report), cfg.output_path)
    for name in ("alignment", "cancellation", "decoding", "rank"):
        status = "ok" if report[name]["passed"] else "FAIL"
        print(f"{name}: {status}")
    print(f"plans: {'ok' if report['plans']['passed'] else 'FAIL'}")
    print(f"power: {'ok' if report['power']['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def run_schedule(cfg: RunConfig) -> int:
    plan = scheduler.build_plan_general(cfg.k, cfg.n)
    scheduler.validate_plan(plan)
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


# The flag that sets each RunConfig field from the command line.
_FLAGS = {
    "k": ("--k", {"type": int, "help": "number of users"}),
    "t_c": ("--tc", {"type": int, "help": "coherence time in slots"}),
    "t_fb": ("--tfb", {"type": int, "help": "feedback delay in slots"}),
    "seed": ("--seed", {"type": int, "help": "base RNG seed"}),
    "output_path": ("--out", {"help": "output file (stdout if omitted)"}),
    "format": ("--format", {"choices": ("csv", "json"), "help": "output format"}),
    "scheme": ("--scheme", {"choices": analysis.SIMULATION_SCHEMES, "help": "transmission scheme"}),
    "snr_grid_db": ("--snr", {"type": _parse_float_list, "help": "comma list of dB points"}),
    "trials": ("--trials", {"type": int, "help": "Monte Carlo trials"}),
    "rounds_per_trial": ("--rounds-per-trial", {"type": int, "help": "aligned rounds per simulated horizon"}),
    "gammas": ("--gammas", {"type": _parse_str_list,
                            "help": "comma list of delay ratios, fractions allowed (e.g. 0,1/3,1)"}),
    "k_values": ("--k-values", {"type": _parse_int_list, "help": "comma list of user counts to sweep"}),
    "verify_rounds": ("--rounds", {"type": int, "help": "rounds per user count"}),
    "inject_fault": ("--inject-fault", {"choices": ("none", "alignment"),
                                        "help": "testing hook: break the precoders and expect failure"}),
    "n": ("--n", {"type": int, "help": "number of aligned rounds in the horizon"}),
}

# Per subcommand: its runner, its help line and the RunConfig fields the runner reads.
_SUBCOMMANDS = {
    "simulate": (run_simulate, "Monte Carlo DoF slope estimate",
                 ("k", "t_c", "t_fb", "seed", "output_path", "format", "scheme", "snr_grid_db",
                  "trials", "rounds_per_trial")),
    "tradeoff": (run_tradeoff, "exact delay-DoF table", ("output_path", "format", "gammas")),
    "verify": (run_verify, "run the property suites",
               ("seed", "output_path", "k_values", "verify_rounds", "inject_fault")),
    "schedule": (run_schedule, "emit a slot plan", ("k", "output_path", "n")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stia",
        description="MISO broadcast simulator under delayed CSI feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _SUBCOMMANDS.items():
        # No abbreviations: verify would otherwise read --k as --k-values.
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON file with RunConfig defaults")
        for name in names:
            flag, spec = _FLAGS[name]
            p.add_argument(flag, dest=name, **spec)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base = RunConfig(command=args.command)
    if args.config:
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
    args = _build_parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][0](_config_from_args(args))
    except (OSError, ValueError, ZeroDivisionError, IllConditionedChannelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
