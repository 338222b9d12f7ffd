"""Command-line front end: reproducible experiments with CSV/JSON artifacts.

Subcommands
-----------
simulate   Monte Carlo DoF slope of one scheme over an SNR grid.
tradeoff   Exact rational delay-DoF table for all schemes.
verify     Alignment/cancellation/decoding/rank/plan/power property suites.
schedule   Slot plan for one (K, n), as JSON slot-to-role mapping.

Each setting is one RunConfig field, declared with the flag that sets it. Each
subcommand reads the settings listed in ``_SUBCOMMANDS``, from the flags or from
``--config``, a JSON file whose ``command`` key, if any, names that subcommand;
given flags win, and any other flag or config key is a usage error.
Identical flags and seed produce byte-identical output files, regardless of the
STIA_THREADS worker cap and of the BLAS thread count.

``python -m stia.cli`` and the installed ``stia`` script both start through
``_entry``, which freezes the import-time heap before it runs ``main``. After
these imports the collector tracks about 22,000 objects, nearly all of them
numpy's, and the collections at interpreter exit would scan them all again.
Objects made by the run are collected as before. ``main`` itself does not
freeze, so a program that calls it keeps its own garbage collectable.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import analysis, scheduler, verify
from .channel import DelayConfig
from .precoding import IllConditionedChannelError

__all__ = ["RunConfig", "main", "run_schedule", "run_simulate", "run_tradeoff", "run_verify"]

SCHEMA_VERSION = 1


def _comma_list(item, what: str):
    """An argparse type: a comma list of ``item`` values, whose error names the format as ``what``."""
    def parse(text: str) -> tuple:
        try:
            return tuple(item(part.strip()) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma list of {what}, got {text!r}") from None
    return parse


def _setting(default, flag: str, help: str, **spec):
    """A RunConfig field whose metadata is the command-line flag that sets it and its argparse spec."""
    return field(default=default, metadata={"flag": (flag, {"help": help, **spec})})


@dataclass
class RunConfig:
    """Flat experiment configuration; each subcommand's settings round-trip losslessly through JSON."""

    k: int = _setting(3, "--k", "number of users", type=int)
    t_c: int = _setting(3, "--tc", "coherence time in slots", type=int)
    t_fb: int = _setting(1, "--tfb", "feedback delay in slots", type=int)
    snr_grid_db: tuple[float, ...] = _setting((40.0, 50.0, 60.0), "--snr", "comma list of dB points",
                                              type=_comma_list(float, "numbers"))
    trials: int = _setting(10_000, "--trials", "Monte Carlo trials", type=int)
    seed: int = _setting(0, "--seed", "base RNG seed", type=int)
    scheme: str = _setting("stia", "--scheme", "transmission scheme", choices=analysis.SIMULATION_SCHEMES)
    output_path: str | None = _setting(None, "--out", "output file (stdout if omitted)")
    format: str = _setting("json", "--format", "output format", choices=("csv", "json"))
    n: int = _setting(3, "--n", "number of aligned rounds in the horizon", type=int)
    k_values: tuple[int, ...] = _setting((3, 4, 5, 6), "--k-values", "comma list of user counts to sweep",
                                         type=_comma_list(int, "integers"))
    gammas: tuple[str, ...] = _setting(tuple(str(Fraction(i, 24)) for i in range(37)),  # 0 .. 3/2 step 1/24
                                       "--gammas", "comma list of delay ratios, fractions allowed (e.g. 0,1/3,1)",
                                       type=_comma_list(str, "delay ratios"))
    rounds_per_trial: int = _setting(16, "--rounds-per-trial", "aligned rounds per simulated horizon", type=int)
    verify_rounds: int = _setting(1000, "--rounds", "rounds per user count", type=int)
    inject_fault: str = _setting("none", "--inject-fault", "testing hook: break the precoders and expect failure",
                                 choices=("none", "alignment"))

    def to_json(self, command: str) -> str:
        """``command`` and the settings its runner reads, as JSON that ``from_json`` reads back."""
        settings = {name: getattr(self, name) for name in _SUBCOMMANDS[command][2]}
        return json.dumps({"command": command, **settings}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, command: str) -> "RunConfig":
        """Parse ``to_json`` output for subcommand ``command``; reject keys that ``command`` does not
        read, values of the wrong type, bad choices and a ``command`` key that names another subcommand."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        if (named := raw.pop("command", command)) != command:
            raise ValueError(f"config key 'command' must be {command!r}: {named!r}")
        if unread := set(raw) - set(_SUBCOMMANDS[command][2]):
            raise ValueError(f"config keys {sorted(unread)} are not settings of {command}")
        hints = get_type_hints(cls)
        for key, value in raw.items():
            if not _has_type(value, hints[key]):
                raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
            choices = _FLAGS[key][1].get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"config key {key!r} must be one of {list(choices)}: {value!r}")
            if isinstance(value, list):
                raw[key] = tuple(value)
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
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    _emit(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True, indent=2) + "\n", path)


def _write(cfg: RunConfig, payload: dict, header, rows) -> None:
    """The artifact as ``cfg.format`` says: ``payload`` as JSON, or ``header`` and ``rows`` as CSV."""
    if cfg.format == "json":
        _write_json(cfg.output_path, payload)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("schema_version", *header))
    writer.writerows((SCHEMA_VERSION, *row) for row in rows)
    _emit(buf.getvalue(), cfg.output_path)


def _threads_from_env() -> int | None:
    raw = os.environ.get("STIA_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as err:
        raise ValueError(f"STIA_THREADS must be an integer, got {raw!r}") from err
    if value < 1:
        raise ValueError(f"STIA_THREADS must be at least 1, got {value}")
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
    payload = est.to_dict()
    header = ("scheme", "gamma_num", "gamma_den", "snr_db", "mean_sum_rate_bits")
    rows = [
        (est.scheme, payload["gamma_num"], payload["gamma_den"], db, rate)
        for db, rate in zip(est.snr_grid_db, est.mean_sum_rates)
    ]
    _write(cfg, payload, header, rows)
    return 0


def run_tradeoff(cfg: RunConfig) -> int:
    header = ("scheme", "gamma_num", "gamma_den", "dof_num", "dof_den")
    rows = [
        (p.scheme, p.gamma.numerator, p.gamma.denominator, p.dof.numerator, p.dof.denominator)
        for p in analysis.emit_tradeoff_table(cfg.gammas)
    ]
    _write(cfg, {"points": [dict(zip(header, row)) for row in rows]}, header, rows)
    return 0


def run_verify(cfg: RunConfig) -> int:
    report = verify.run_all(
        k_values=cfg.k_values,
        rounds=cfg.verify_rounds,
        seed=cfg.seed,
        inject_fault=cfg.inject_fault,
    )
    _write_json(cfg.output_path, report)
    for name, entry in report.items():
        if isinstance(entry, dict) and "passed" in entry:
            print(f"{name}: {'ok' if entry['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def run_schedule(cfg: RunConfig) -> int:
    plan = scheduler.build_plan_general(cfg.k, cfg.n)
    scheduler.validate_plan(plan)
    _write_json(cfg.output_path, plan.to_dict())
    if cfg.output_path is not None:
        rounds = ", ".join("{" + ",".join(map(str, r)) + "}" for r in plan.stia_rounds)
        print(f"rounds: {rounds}")
        print(f"zf: {sorted(plan.zf_slots)} tdma: {sorted(plan.tdma_slots)}")
    return 0


# The flag that sets each RunConfig field from the command line, and its argparse spec.
_FLAGS = {f.name: f.metadata["flag"] for f in fields(RunConfig)}

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
    """The config file's settings, or the defaults, with every flag given in place of the file's value."""
    base = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = RunConfig.from_json(fh.read(), args.command)
    return replace(base, **{name: value for name, value in vars(args).items() if name in _FLAGS and value is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][0](_config_from_args(args))
    except (OSError, ValueError, IllConditionedChannelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # a bare MemoryError has an empty message
        print(f"error: out of memory: {err}" if str(err) else "error: out of memory", file=sys.stderr)
        return 2


def _entry() -> None:
    """The process entry: freeze the import-time heap, then exit with ``main``'s code."""
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    _entry()
