"""The four benchmark workloads: their inputs, how one pass runs, and output checks.

Three workloads run one fresh process per command, with ``src`` on
``PYTHONPATH``. Two drive the real command line, ``python -m stia.cli ...``;
``verify-sweep`` runs ``verify_suites.py``, the suites of ``stia verify``
less its power suite. The fourth, ``library-rounds``, drives the README's
library path in one process. The workload seed reaches the program only as
``--seed`` values and as the generator of the library inputs.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is recorded in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SNR = "40,50,60"

# Acceptance bands of the aligned scheme (tests/test_acceptance.py).
STIA_BANDS = {3: (1.85, 2.05), 4: (2.80, 3.10)}
# Baseline slopes must sit this close to the exact time-share DoF.
BASELINE_SLACK = 0.1

# library-rounds: power budget and SNR handed to run_stia_round.
LIBRARY_POWER = 1e5
LIBRARY_SNR = 1e5
RESIDUAL_TOL = 1e-9
DECODE_TOL = 1e-8


@dataclass(frozen=True)
class Command:
    """One invocation: flags after ``python -m stia.cli`` (or after a perfbench
    ``script``), less ``--seed``/``--out``."""

    label: str
    flags: tuple[str, ...]
    seed_offset: int
    script: str | None = None

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.flags, "--seed", str(seed * 100 + self.seed_offset), "--out", str(out)]

    def process_argv(self, seed: int, out: Path) -> list[str]:
        """The whole command line of the command's fresh process."""
        head = ["-m", "stia.cli"] if self.script is None else [str(BENCH_DIR / self.script)]
        return [sys.executable, *head, *self.argv(seed, out)]

    def entry(self):
        """The in-process ``main``, looked up at call time so a tracer's wrapper is used."""
        if self.script is None:
            import stia.cli

            return stia.cli.main
        return importlib.import_module(Path(self.script).stem).main

    def check(self, artifact: dict) -> str | None:
        """Error message when the artifact is wrong, else None."""
        if self.flags[0] != "simulate":
            if artifact.get("passed") is True:
                return None
            failed = [name for name, part in artifact.items()
                      if isinstance(part, dict) and part.get("passed") is False]
            return f"verify suites did not pass; failed: {', '.join(failed)}"
        opts = dict(zip(self.flags[1::2], self.flags[2::2]))
        k, t_c, t_fb = int(opts["--k"]), int(opts["--tc"]), int(opts["--tfb"])
        if opts["--scheme"] == "stia":
            lo, hi = STIA_BANDS[k]
        else:
            dof = Fraction((t_c - t_fb) * (k - 1) + t_fb, t_c)
            lo, hi = float(dof) - BASELINE_SLACK, float(dof) + BASELINE_SLACK
        slope = artifact.get("slope")
        if not isinstance(slope, float) or not lo <= slope <= hi:
            return f"slope {slope!r} outside [{lo:.4g}, {hi:.4g}]"
        return None


def _simulate(label, scheme, k, t_c, t_fb, trials, offset):
    flags = ("simulate", "--scheme", scheme, "--k", str(k), "--tc", str(t_c), "--tfb", str(t_fb),
             "--snr", SNR, "--trials", str(trials))
    return Command(label, flags, offset)


# Workloads of fresh processes: (start-up sample, commands). Each command
# takes about a second, so a run repeats it often enough for the median of
# its calibrated times to be steady (see timed_run in run.py). The slopes
# are steady to three decimals at these trial counts because every SNR
# point of a trial shares its channel draws.
PROCESS_WORKLOADS = {
    "mc-stia": (("-m", "stia.cli", "simulate", "--help"), (
        _simulate("stia-k3", "stia", 3, 3, 1, 3000, 0),
        _simulate("stia-k4", "stia", 4, 4, 1, 1000, 1),
    )),
    "mc-baselines": (("-m", "stia.cli", "simulate", "--help"), (
        _simulate("zf_tdma-k3", "zf_tdma", 3, 3, 1, 50_000, 0),
        _simulate("zf-k3", "zf", 3, 3, 0, 50_000, 1),
        _simulate("tdma-k3", "tdma", 3, 3, 3, 50_000, 2),
        _simulate("zf_tdma-k6", "zf_tdma", 6, 6, 2, 15_000, 3),
    )),
    "verify-sweep": ((str(BENCH_DIR / "verify_suites.py"), "--help"), (
        Command("verify-k3to6", ("--rounds", "1000"), 0, script="verify_suites.py"),
    )),
}
LIBRARY_K = (3, 4, 5)
LIBRARY_ROUNDS = 100  # per K and pass; each K's rounds are one timed part
WORKLOADS = (*PROCESS_WORKLOADS, "library-rounds")


_CALIBRATION_DATA = [random.Random(0).random() for _ in range(40_000)]


def calibration() -> float:
    """Wall time of a fixed piece of pure-Python work, about 15 ms on an idle core.

    Timed next to every part of a pass, it gauges how fast the machine
    runs at that moment (see timed_run in run.py). It is pure Python so
    that the benchmark process, whose peak RSS its children inherit in
    their max-RSS readings, stays small.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(80_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i * 3 // 7
    sorted(_CALIBRATION_DATA)
    return time.perf_counter() - start


@dataclass
class PassResult:
    """One pass: timings, per-operation outcomes and artifact digests."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    errors: list[str]
    digests: dict[str, str]
    # (wall s, CPU s, calibration s) of each part of the pass: a command, or
    # one K's library rounds. The calibration time is the mean of the
    # calibrations run right before and right after the part.
    parts: dict[str, tuple[float, float, float]]
    artifact_bytes: int = 0
    latencies_s: tuple[float, ...] = ()


def child_env() -> dict[str, str]:
    """Environment of measured processes: ``src`` first on the path, default threads."""
    env = {k: v for k, v in os.environ.items() if k != "STIA_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(argv: list[str], env: dict[str, str], log: Path) -> tuple[float, float, float, int]:
    """Run one process to completion: (wall s, user+sys CPU s, max RSS MB, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def setup_argv(workload: str) -> list[str]:
    """Fresh-process start-up: interpreter, imports and (but for the library) argparse."""
    if workload == "library-rounds":
        return [sys.executable, "-c", "import stia"]
    return [sys.executable, *PROCESS_WORKLOADS[workload][0]]


def _collect(cmd: Command, out: Path, code: int, errors: list[str], digests: dict[str, str]) -> int:
    """Digest and check one command's artifact; returns its size. One error at most."""
    problems = [] if code == 0 else [f"exit code {code}"]
    size = 0
    try:
        data = out.read_bytes()
    except OSError as err:
        problems.append(f"no artifact ({err.strerror})")
    else:
        size = len(data)
        digests[cmd.label] = hashlib.sha256(data).hexdigest()
        try:
            problem = cmd.check(json.loads(data))
        except ValueError as err:
            problem = f"artifact is not JSON ({err})"
        if problem:
            problems.append(problem)
    if problems:
        errors.append(f"{cmd.label}: " + "; ".join(problems))
    return size


def process_pass(workload: str, seed: int, tmp: Path, env: dict[str, str]) -> PassResult:
    """One untraced pass: every command of the workload as a fresh process."""
    errors: list[str] = []
    digests: dict[str, str] = {}
    parts: dict[str, tuple[float, float, float]] = {}
    rss = 0.0
    size = 0
    before = calibration()
    for cmd in PROCESS_WORKLOADS[workload][1]:
        out = tmp / f"{cmd.label}.json"
        out.unlink(missing_ok=True)
        wall, cpu, peak, code = run_process(cmd.process_argv(seed, out), env, tmp / f"{cmd.label}.log")
        after = calibration()
        parts[cmd.label] = (wall, cpu, (before + after) / 2)
        before = after
        rss = max(rss, peak)
        size += _collect(cmd, out, code, errors, digests)
    wall, cpu, _ = (sum(column) for column in zip(*parts.values()))
    return PassResult(wall, cpu, rss, len(parts), errors, digests, parts, size)


def inprocess_pass(workload: str, seed: int, tmp: Path) -> PassResult:
    """One pass with every command run through its ``main`` in this process."""
    errors: list[str] = []
    digests: dict[str, str] = {}
    size = 0
    start, cpu0 = time.perf_counter(), time.process_time()
    commands = PROCESS_WORKLOADS[workload][1]
    for cmd in commands:
        out = tmp / f"{cmd.label}.json"
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cmd.entry()(cmd.argv(seed, out))
        size += _collect(cmd, out, code, errors, digests)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    return PassResult(wall, cpu, _self_rss_mb(), len(commands), errors, digests, {}, size)


def library_pass(seed: int) -> PassResult:
    """The README's library path: draw, symbols, one ``run_stia_round`` per round.

    Names are looked up on the ``stia`` package at call time, as a user
    of ``from stia import ...`` would reach them, so a tracer's wrappers
    are used when one is installed.
    """
    import numpy as np
    import stia

    errors: list[str] = []
    digests: dict[str, str] = {}
    parts: dict[str, tuple[float, float, float]] = {}
    latencies = []
    before = calibration()
    for k in LIBRARY_K:
        rng = np.random.default_rng((seed, k))
        digest = hashlib.sha256()
        start, cpu0 = time.perf_counter(), time.process_time()
        for index in range(LIBRARY_ROUNDS):
            channels = stia.draw_round_channels(k, 1, rng)[0]
            symbols = stia.SymbolBlock.random(k, rng)
            t0 = time.perf_counter()
            try:
                result = stia.run_stia_round(channels, symbols, power=LIBRARY_POWER,
                                             noise_std=0.0, snr_linear=LIBRARY_SNR)
            except (stia.IllConditionedChannelError, stia.DecodeFailureError) as err:
                result = None
                errors.append(f"K={k} round {index}: {err}")
            latencies.append(time.perf_counter() - t0)
            if result is not None:
                sent, got = symbols.stacked(), result.decoded.stacked()
                residual = max(result.residual_interference.values())
                decode_error = float(np.max(np.abs(got - sent)) / np.max(np.abs(sent)))
                if not residual <= RESIDUAL_TOL or not decode_error <= DECODE_TOL:
                    errors.append(f"K={k} round {index}: residual {residual:.3e}, "
                                  f"decode error {decode_error:.3e}")
                digest.update(got.tobytes())
                digest.update(np.array(sorted(result.per_user_rate_bits.items())).tobytes())
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        after = calibration()
        parts[f"k{k}"] = (wall, cpu, (before + after) / 2)
        before = after
        digests[f"rounds-k{k}"] = digest.hexdigest()
    wall, cpu, _ = (sum(column) for column in zip(*parts.values()))
    return PassResult(wall, cpu, _self_rss_mb(), len(latencies), errors, digests, parts,
                      latencies_s=tuple(latencies))


def _self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
