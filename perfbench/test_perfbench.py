"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import tail_percentile  # noqa: E402
from tracer import Tracer, child_shares, nearest_stia, self_times, summarize, tracing  # noqa: E402
from workloads import SRC, inprocess_pass  # noqa: E402

sys.path.insert(0, str(SRC))

import stia  # noqa: E402
import stia.protocol  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["a", 0.0, 10.0, None, None],
        ["b", 1.0, 3.0, 0, None],
        ["c", 2.0, 5.0, 0, None],   # overlaps b: covered once
        ["d", 2.5, 2.75, 2, None],  # grandchild: charged to c only
        ["e", 8.0, 12.0, 0, None],  # clipped at the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 2.0, 2.0, 2.75, 0.25, 4.0])


def test_nested_wrappers_record_parents_and_self_time():
    ticks = count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("numerics.inner", lambda: None)
    outer = tracer.wrap("protocol.outer", lambda: (inner(), inner()))
    outer()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["protocol.outer", "numerics.inner", "numerics.inner"]
    assert parents == [None, 0, 0]
    # outer spans ticks 0..5, each inner one tick.
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 1001), 99) == 990
    assert tail_percentile(range(1, 1010), 99) == 999
    with pytest.raises(ValueError):
        tail_percentile(range(1, 1000), 99)  # rank 990 leaves only 9 beyond
    assert tail_percentile(range(1, 22), 50) == 11


def test_numpy_span_goes_to_the_nearest_stia_parent():
    spans = [
        ["verify.round_sweep", 0.0, 9.0, None, {"k": 3}],
        ["numpy.svd", 1.0, 2.0, 0, {"items": 4}],
        ["protocol.batch_rounds", 3.0, 8.0, 0, None],
        ["numpy.solve", 4.0, 6.0, 2, {"items": 4}],
        ["numpy.svd", 4.5, 5.0, 3, {"items": 2}],  # numpy inside numpy
    ]
    assert nearest_stia(spans, 1) == "verify.round_sweep"
    assert nearest_stia(spans, 3) == "protocol.batch_rounds"
    assert nearest_stia(spans, 4) == "protocol.batch_rounds"
    layers = summarize(spans)
    assert layers["verify.rank_svd.s"] == pytest.approx(1.0)
    assert layers["protocol.guard_svd.s"] == pytest.approx(0.5)
    assert layers["protocol.guard_svd.items"] == 2
    assert layers["protocol.precoder_solve.s"] == pytest.approx(2.0)
    shares = child_shares(spans, "protocol.batch_rounds")
    assert shares == pytest.approx({"protocol.batch_rounds": 3.0, "protocol.batch_rounds>solve": 1.5,
                                    "protocol.batch_rounds>svd": 0.5})


def test_real_calls_attribute_linalg_to_their_layer():
    rng = np.random.default_rng(0)
    tracer = Tracer()
    with tracing(tracer):
        stia.protocol.batch_rounds(3, 8, rng)
        stia.numerics.condition_estimate(np.eye(2))
    layers = summarize(tracer.spans)
    assert layers["protocol.batch_rounds.calls"] == 1
    assert layers["protocol.batch_rounds.rounds"] == 8
    assert layers["protocol.guard_svd.items"] == 8 * 2 * 3  # rounds x precoded slots x users
    assert layers["numerics.condition_estimate.calls"] == 1
    owners = {nearest_stia(tracer.spans, i) for i, s in enumerate(tracer.spans) if s[0] == "numpy.svd"}
    assert owners == {"protocol.batch_rounds", "numerics.condition_estimate"}


def test_wrappers_are_removed_after_tracing():
    sites = [(np.linalg, "svd"), (stia.protocol, "batch_rounds"), (stia, "run_stia_round"),
             (stia.protocol, "build_stia_precoders"), (stia.precoding, "solve_right")]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracing(tracer):
            assert all(getattr(o, a) is not f for (o, a), f in zip(sites, originals))
            with pytest.raises(RuntimeError, match="already installed"):
                tracer.install()
            raise RuntimeError("boom")
    assert all(getattr(o, a) is f for (o, a), f in zip(sites, originals))


def test_traced_artifacts_match_untraced(tmp_path, monkeypatch):
    import workloads

    small = {"mc-small": ((), (workloads._simulate("stia-k3", "stia", 3, 3, 1, 300, 0),
                                        workloads._simulate("zf-k3", "zf", 3, 3, 0, 600, 1)))}
    monkeypatch.setattr(workloads, "PROCESS_WORKLOADS", small)
    plain = inprocess_pass("mc-small", 5, tmp_path)
    tracer = Tracer()
    with tracing(tracer):
        traced = inprocess_pass("mc-small", 5, tmp_path)
    assert plain.errors == traced.errors == []
    assert plain.digests == traced.digests and len(plain.digests) == 2
    assert summarize(tracer.spans)["protocol.batch_rounds.calls"] == 1


def test_verify_suites_report_is_run_all_less_power(tmp_path):
    import verify_suites
    from stia import verify

    out = tmp_path / "report.json"
    assert verify_suites.main(["--rounds", "40", "--seed", "300", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    full = verify.run_all(k_values=verify_suites.K_VALUES, rounds=40, seed=300)
    del full["power"]
    full["passed"] = report["passed"]  # run_all's verdict also counts the power suite
    assert report == json.loads(json.dumps(full))
