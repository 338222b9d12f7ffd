"""stia benchmark: end-to-end timings untraced, per-layer timings traced.

    python3 perfbench/run.py --workload mc-stia --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` runs passes of the workload, untraced, for at most
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced in-process passes for the
same time and reports the per-layer metrics. ``--workload all`` runs every
workload both ways and prints every metric with its unit. Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Tracer, child_shares, summarize, tracing, write_spans  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
TRACE_DIR = ROOT / ".bench_traces"
SETUPS = 11  # start-up samples per timed run, spread over it
# Library passes a run makes at least, so that its round_p99 has ten calls beyond it.
MIN_LIBRARY_PASSES = 4


def tail_percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has fewer than 10 samples beyond it")
    return ordered[rank - 1]


def environment() -> dict:
    """What the measured processes ran on; ``git_commit`` is null outside a git checkout."""
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {lib: f"{deps[lib].get('name')} {deps[lib].get('version')}" for lib in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    commit = dirty = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=20).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                        cwd=ROOT, capture_output=True, text=True,
                                        timeout=20).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas,
        "STIA_THREADS": workloads.child_env().get("STIA_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "git_dirty": dirty,
    }


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, attempted: int, errors) -> None:
        self.attempted += attempted
        self.errors.extend(errors)


def _check_repeats(passes, tally: Tally) -> None:
    # Same command and seed within one invocation must give the same bytes.
    first = passes[0].digests
    for p in passes[1:]:
        for label, digest in p.digests.items():
            if first.get(label) != digest:
                tally.add(0, [f"{label}: artifact digest differs between passes of one seed"])


def _bytes_changed(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    try:
        recorded = json.loads(DIGESTS.read_text())[workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return [f"no recorded digests for {workload} seed {seed}"]
    return [f"bytes changed: {label} differs from {DIGESTS.name}"
            for label, digest in sorted(digests.items()) if recorded.get(label) != digest]


def _room_for_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more iteration, at the mean length so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def timed_run(workload: str, seed: int, seconds: float, tmp: Path):
    """Untraced passes for at most ``seconds``; returns (metrics, tally, notes).

    Other tenants of a shared machine slow it down, by up to half, for
    stretches of a fraction of a second to minutes, so raw times moved by
    a third from run to run. Each part of a pass is therefore timed on its
    own, next to a fixed pure-Python calibration (``workloads.calibration``)
    run right before and after it. ``wall_cal``/``cpu_cal`` add up, over
    the parts, the median of the part's wall/CPU time divided by its
    calibration time: what one pass costs in calibration loops. The
    ``SETUPS`` start-up samples are spread evenly over the run, each before
    a pass, and reported in seconds as their median.
    """
    env = workloads.child_env()
    tally = Tally()
    setups = []

    def setup_once():
        wall, _, _, code = workloads.run_process(workloads.setup_argv(workload), env,
                                                 tmp / "setup.log")
        setups.append(wall)
        tally.add(1, [f"setup: exit code {code}"] if code else [])

    passes = []
    start = time.perf_counter()
    least = MIN_LIBRARY_PASSES if workload == "library-rounds" else 1
    while len(passes) < least or _room_for_another(start, len(passes), seconds):
        if time.perf_counter() - start >= len(setups) * seconds / SETUPS:
            setup_once()
        if workload == "library-rounds":
            result = workloads.library_pass(seed)
        else:
            result = workloads.process_pass(workload, seed, tmp, env)
        tally.add(result.attempted, result.errors)
        passes.append(result)
    while len(setups) < SETUPS:
        setup_once()
    _check_repeats(passes, tally)

    def per_calibration(column: int) -> float:
        return sum(statistics.median(p.parts[label][column] / p.parts[label][2] for p in passes)
                   for label in passes[0].parts)

    metrics = {
        "wall_cal": per_calibration(0),
        "cpu_cal": per_calibration(1),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    fastest = sum(min(p.parts[label][0] for p in passes) for label in passes[0].parts)
    calibrations = [p.parts[label][2] for p in passes for label in p.parts]
    notes = [f"{len(passes)} passes in {time.perf_counter() - start:.1f} s; "
             f"median pass {statistics.median(p.wall_s for p in passes):.4g} s, "
             f"sum of fastest parts {fastest:.4g} s, "
             f"median calibration {1e3 * statistics.median(calibrations):.4g} ms"]
    if workload == "library-rounds":
        latencies = [x for p in passes for x in p.latencies_s]
        notes.append(f"round_p50_ms {1e3 * statistics.median(latencies):.4f} ms, "
                     f"round_p99_ms {1e3 * tail_percentile(latencies, 99):.4f} ms "
                     f"over {len(latencies)} run_stia_round calls")
    notes += _bytes_changed(workload, seed, passes[0].digests)
    return metrics, tally, notes


def traced_run(workload: str, seed: int, seconds: float, tmp: Path):
    """Alternate untraced and traced in-process passes for at most ``seconds`` after a warm-up."""
    def one_pass():
        if workload == "library-rounds":
            return workloads.library_pass(seed)
        return workloads.inprocess_pass(workload, seed, tmp)

    tally = Tally()
    # The warm-up pass pays the imports and first-call costs that would
    # otherwise make the first untraced pass look slower than a traced one.
    warmup = one_pass()
    tally.add(warmup.attempted, warmup.errors)
    plain, traced, layers = [], [], []
    kept_spans = None
    start = time.perf_counter()
    least = MIN_LIBRARY_PASSES if workload == "library-rounds" else 1
    while len(traced) < least or _room_for_another(start, len(traced), seconds):
        plain.append(one_pass())
        tracer = Tracer()
        with tracing(tracer):
            traced.append(one_pass())
        layers.append(summarize(tracer.spans))
        if kept_spans is None:
            kept_spans = tracer.spans
        for result in (plain[-1], traced[-1]):
            tally.add(result.attempted, result.errors)
        if traced[-1].digests != plain[-1].digests:
            tally.add(0, ["traced artifacts differ from untraced ones"])
    _check_repeats([warmup, *plain, *traced], tally)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["cli.artifact_bytes"] = statistics.median(p.artifact_bytes for p in traced)
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in plain))
    latencies = [x for p in plain for x in p.latencies_s]
    metrics["protocol.run_stia_round.p50_ms"] = 1e3 * statistics.median(latencies) if latencies else 0.0
    metrics["protocol.run_stia_round.p99_ms"] = 1e3 * tail_percentile(latencies, 99) if latencies else 0.0

    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    write_spans(kept_spans, spans_path)
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes in "
             f"{time.perf_counter() - start:.1f} s; spans of the first traced pass "
             f"in {spans_path.relative_to(ROOT)}"]
    notes += design_checks(workload, metrics, kept_spans)
    return metrics, tally, notes


def design_checks(workload: str, metrics: dict, spans) -> list[str]:
    """Measured confirmation of the workload design (see README.md)."""
    notes = []
    if workload in ("mc-baselines", "library-rounds"):
        ok = metrics["protocol.batch_rounds.calls"] == 0
        notes.append(f"design: protocol.batch_rounds.calls == 0: {'ok' if ok else 'NOT MET'}")
    if workload in workloads.PROCESS_WORKLOADS:
        ok = metrics["precoding.build_stia_precoders.calls"] == 0
        notes.append(f"design: precoding.build_stia_precoders.calls == 0: {'ok' if ok else 'NOT MET'}")
    if workload == "mc-stia":
        shares = child_shares(spans, "analysis.estimate_dof_slope")
        total = sum(shares.values())
        top = sorted(shares.items(), key=lambda item: -item[1])[:5]
        ok = top[0][0] == "protocol.batch_rounds>svd"
        notes.append("design: guard svd is the largest share of analysis.estimate_dof_slope: "
                     f"{'ok' if ok else 'NOT MET'} ("
                     + ", ".join(f"{name} {100 * s / total:.0f}%" for name, s in top) + ")")
    return notes


def run_one(workload: str, seed: int, seconds: float, trace: bool, contract: dict):
    """One benchmark run; returns (result object, human-readable lines)."""
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        run = traced_run if trace else timed_run
        values, tally, notes = run(workload, seed, seconds, Path(tmp))
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(tally.errors)
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": metrics}
    width = max(len(name) for name in metrics)
    lines = [f"== {workload} seed {seed} trace {int(trace)}: " + "; ".join(notes[:1])]
    lines += [f"  {name:<{width}}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  {'fail_ratio':<{width}}  {failed / tally.attempted:.6g} "
                 f"({failed} failed of {tally.attempted} operations)")
    lines += [f"  {note}" for note in notes[1:]]
    lines += [f"  FAILED {error}" for error in tally.errors[:20]]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stia" / "__init__.py").is_file():
        print(f"error: no stia package under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))  # in-process passes import stia from this checkout

    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                # One fresh process per run, as the single-run command gets.
                proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                                       "--trace", trace], stdout=subprocess.PIPE, text=True)
                sys.stdout.write(proc.stdout)
                last = proc.stdout.splitlines()[-1:]
                ok = ok and proc.returncode == 0 and json.loads(last[0])["correct"]
        return 0 if ok else 1

    result, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace), contract)
    # After the run: a child's max-RSS reading includes the peak RSS of the
    # process that started it, so nothing (numpy included) is loaded here
    # before the measured processes have run.
    print("env " + json.dumps(environment(), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
