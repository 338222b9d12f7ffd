"""The verify-sweep command: ``stia verify`` without its power suite.

    python3 perfbench/verify_suites.py --rounds 2000 --seed 100 --out report.json

Runs what ``stia.verify.run_all`` runs, with its tolerances, except
``power_suite``: ``round_sweep`` at K=3..6 and ``plan_suite``. It writes
the report as ``stia verify --out`` writes it, less the ``power`` entry,
and exits with 1 when a suite fails. ``stia`` must be importable.

The power suite is left out because it fails on about one seed in ten:
its 2% tolerance is about two standard errors of the 10,000-sample mean
it checks (``stia.verify.POWER_RTOL``). The other suites' verdicts held
on every seed tried. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json

from stia import verify

K_VALUES = (3, 4, 5, 6)
PLAN_N_MAX = 50  # run_all's default


def report(rounds: int, seed: int) -> dict:
    """The suites' report. Suites are looked up at call time, so a tracer's wrappers are used."""
    sweeps = {k: verify.round_sweep(k, rounds, seed) for k in K_VALUES}
    verdicts = {
        "alignment": ("tolerance", verify.ALIGNMENT_TOL,
                      all(s["max_alignment_residual"] <= verify.ALIGNMENT_TOL for s in sweeps.values())),
        "cancellation": ("tolerance", verify.LEAKAGE_TOL,
                         all(s["max_cancellation_leakage"] <= verify.LEAKAGE_TOL for s in sweeps.values())),
        "decoding": ("tolerance", verify.DECODE_TOL,
                     all(s["max_decode_error"] <= verify.DECODE_TOL for s in sweeps.values())),
        "rank": ("min_fraction", verify.RANK_MIN_FRACTION,
                 all(s["full_rank_fraction"] >= verify.RANK_MIN_FRACTION
                     and s["unflagged_rank_failures"] == 0 for s in sweeps.values())),
    }
    plans = verify.plan_suite(k_values=K_VALUES, n_max=PLAN_N_MAX)
    out = {
        "schema_version": 1,
        "seed": seed,
        "rounds_per_k": rounds,
        "k_values": list(K_VALUES),
        "inject_fault": "none",
        "round_sweeps": {str(k): sweeps[k] for k in K_VALUES},
        **{name: {key: limit, "passed": ok} for name, (key, limit, ok) in verdicts.items()},
        "plans": plans,
    }
    out["passed"] = bool(all(ok for _, _, ok in verdicts.values()) and plans["passed"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, required=True, help="rounds per user count")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="report file")
    args = parser.parse_args(argv)
    result = report(args.rounds, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
