"""In-memory span tracer that times stia's layers from outside the package.

The tracer replaces each public stia function at every place a caller
looks it up (the defining module, every module that imported it by name,
and the ``stia`` package namespace) with a wrapper that records one span
per call: ``[name, start, end, parent, info]``. It also wraps
``numpy.linalg.svd``, ``solve``, ``eigvalsh`` and ``lstsq``; a numpy span
is attributed to its nearest enclosing stia span. Spans stay in memory
until the caller writes them out. :meth:`Tracer.restore` puts every
original object back, so code run after tracing pays nothing.

Single-threaded by design: the benchmark leaves ``STIA_THREADS`` unset,
so stia runs every chunk on the calling thread and one span stack is
enough.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time

LAYERS = ("cli", "analysis", "protocol", "precoding", "numerics", "channel", "scheduler", "verify")
NUMPY_LINALG = ("svd", "solve", "eigvalsh", "lstsq")

NAME, START, END, PARENT, INFO = range(5)


def _batch_items(args, kwargs, result):
    # Stacked matrices in the first operand; a plain matrix counts as one.
    a = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(a, "shape", ())
    return {"items": math.prod(shape[:-2])}


# Counts read off a call's arguments or result, keyed by span name.
MEASURES = {
    "channel.complex_normal": lambda args, kwargs, result: {"values": int(getattr(result, "size", 1))},
    "protocol.batch_rounds": lambda args, kwargs, result: {
        "rounds": int(result[0].shape[0]),
        "resamples": int(result[3]),
    },
    "analysis.estimate_dof_slope": lambda args, kwargs, result: {"resamples": int(result.resamples)},
    "verify.round_sweep": lambda args, kwargs, result: {"k": int(args[0] if args else kwargs["K"])},
}


class Tracer:
    """Span recorder plus the table of attributes it has replaced."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._clock = clock
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, measure, args, kwargs):
        """Run ``fn`` inside a new span whose parent is the innermost open span."""
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = self._clock()
            self._open.pop()
        if measure is not None:
            record[INFO] = measure(args, kwargs, result)
        return result

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, measure, args, kwargs)

        return traced

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper; :meth:`restore` undoes it."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, measure))

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap numpy.linalg and every public stia function at each lookup site."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        import numpy

        for fname in NUMPY_LINALG:
            self.patch(numpy.linalg, fname, f"numpy.{fname}", _batch_items)
        package = importlib.import_module("stia")
        modules = [package] + [importlib.import_module(f"stia.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "")
                if not home.startswith("stia.") or value.__name__ not in getattr(
                    importlib.import_module(home), "__all__", ()
                ):
                    continue
                name = f"{home[len('stia.'):]}.{value.__name__}"
                self.patch(module, attr, name, MEASURES.get(name))


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install ``tracer`` for the body of the ``with`` block, then restore."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def nearest_stia(spans, index: int) -> str | None:
    """Name of the closest enclosing span that is not a numpy span."""
    parent = spans[index][PARENT]
    while parent is not None:
        if not spans[parent][NAME].startswith("numpy."):
            return spans[parent][NAME]
        parent = spans[parent][PARENT]
    return None


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see perfbench/README.md)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        name = span[NAME]
        key = name
        if name.startswith("numpy."):
            key = f"{nearest_stia(spans, index)}>{name[len('numpy.'):]}"
        elif name == "verify.round_sweep":
            key = f"{name}.k{span[INFO]['k']}"
        total[key] = total.get(key, 0.0) + span[END] - span[START]
        calls[key] = calls.get(key, 0) + 1
        for field, value in (span[INFO] or {}).items():
            info[f"{key}.{field}"] = info.get(f"{key}.{field}", 0) + value
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def numpy_under(owner_prefix: str, fname: str, field: str = "s") -> float:
        out = 0.0
        for key in total:
            owner, _, fn = key.partition(">")
            if fn == fname and owner.startswith(owner_prefix):
                out += total[key] if field == "s" else info.get(f"{key}.{field}", 0)
        return out

    rounds = info.get("protocol.batch_rounds.rounds", 0)
    resamples = info.get("protocol.batch_rounds.resamples", 0)
    metrics = {
        "protocol.batch_rounds.s": total.get("protocol.batch_rounds", 0.0),
        "protocol.batch_rounds.calls": calls.get("protocol.batch_rounds", 0),
        "protocol.batch_rounds.rounds": rounds,
        "protocol.batch_rounds.resamples": resamples,
        "protocol.batch_rounds.accept_ratio": rounds / (rounds + resamples) if rounds else 1.0,
        "protocol.guard_svd.s": numpy_under("protocol.batch_rounds", "svd"),
        "protocol.guard_svd.items": numpy_under("protocol.batch_rounds", "svd", "items"),
        "protocol.precoder_solve.s": numpy_under("protocol.batch_rounds", "solve"),
        "analysis.self_s": layer_self.get("analysis", 0.0),
        "analysis.zf_guard_svd.s": numpy_under("analysis.", "svd"),
        "analysis.zf_guard_svd.items": numpy_under("analysis.", "svd", "items"),
        "analysis.zf_solve.s": numpy_under("analysis.", "solve"),
        "analysis.resamples": info.get("analysis.estimate_dof_slope.resamples", 0),
        "analysis.eigvalsh.s": numpy_under("analysis.", "eigvalsh"),
        "analysis.eigvalsh.items": numpy_under("analysis.", "eigvalsh", "items"),
        "channel.complex_normal.values": info.get("channel.complex_normal.values", 0),
        "verify.rank_svd.s": numpy_under("verify.round_sweep", "svd"),
        "verify.decode_solve.s": numpy_under("verify.round_sweep", "solve"),
        "cli.main.self_s": layer_self.get("cli", 0.0),
    }
    for k in (3, 4, 5, 6):
        metrics[f"verify.round_sweep.k{k}.s"] = total.get(f"verify.round_sweep.k{k}", 0.0)
    timed = (
        "protocol.batch_effective_channels", "protocol.draw_round_channels",
        "analysis.estimate_dof_slope", "protocol.decode_round", "protocol.round_rate",
        "channel.complex_normal", "verify.plan_suite",
    )
    for name in timed:
        metrics[f"{name}.s"] = total.get(name, 0.0)
    counted = (
        "analysis.fit_dof_slope", "protocol.run_stia_round", "precoding.build_stia_precoders",
        "numerics.solve_right", "numerics.condition_estimate", "numerics.rank_with_tol",
        "scheduler.build_plan_general", "scheduler.validate_plan", "scheduler.account_dof",
        "scheduler.build_plan_k3",
    )
    for name in counted:
        metrics[f"{name}.s"] = total.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0)
    return metrics


def child_shares(spans, parent_name: str) -> dict[str, float]:
    """Time inside every ``parent_name`` span, split by the components below it.

    Components are the numpy calls keyed by their nearest stia owner
    (``owner>svd``) and the self time of each stia span name; the shares
    sum to the parents' total duration.
    """
    selfs = self_times(spans)
    inside = [False] * len(spans)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        inside[index] = span[NAME] == parent_name or (parent is not None and inside[parent])
    shares: dict[str, float] = {}
    for index, span in enumerate(spans):
        if not inside[index]:
            continue
        name = span[NAME]
        if name.startswith("numpy."):
            name = f"{nearest_stia(spans, index)}>{name[len('numpy.'):]}"
        shares[name] = shares.get(name, 0.0) + selfs[index]
    return shares


def write_spans(spans, path) -> None:
    """One JSON object per line: name, start, end, parent index, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "info"), span))) + "\n")
