"""Record the artifact digests of workloads for seeds 0..19 in digests.json.

    python3 perfbench/record_digests.py [workload ...]

With no workload named it records every one; otherwise only the named
ones, and the other entries of digests.json stay as they are.

Run it on the commit whose output bytes are the reference. Failed checks
are printed, and their artifacts' digests recorded all the same. Afterwards
``run.py`` prints "bytes changed" for any artifact whose digest differs
from the recorded one; that is a report, not a failure.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import BENCH_DIR, DIGESTS  # noqa: E402

SEEDS = range(20)


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        print(f"error: unknown workloads {sorted(unknown)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    env = workloads.child_env()
    table: dict[str, dict[str, dict[str, str]]] = json.loads(DIGESTS.read_text()) if names else {}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        for workload in names or workloads.WORKLOADS:
            table[workload] = {}
            for seed in SEEDS:
                if workload == "library-rounds":
                    result = workloads.library_pass(seed)
                else:
                    result = workloads.process_pass(workload, seed, Path(tmp), env)
                for error in result.errors:
                    print(f"{workload} seed {seed}: {error}", file=sys.stderr)
                table[workload][str(seed)] = result.digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
