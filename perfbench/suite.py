"""Run every workload untraced, then traced, and report the tracing overhead.

    python3 perfbench/suite.py [--seed 1] [--seconds 42]

Prints each workload's end-to-end metrics by name with their units, the
operations attempted and failed, the per-layer metrics of the traced run,
and the overhead as traced wall_s minus untraced wall_s. Spans go to
.perfbench/spans/, full results to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import sys

from run import WorkerError, report, run_workload
from workloads import NAMES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    args = parser.parse_args(argv)

    failed = 0
    for workload in NAMES:
        try:
            plain = run_workload(workload, args.seed, args.seconds, trace=False)
            report(plain)
            failed += plain["result"]["failed"]
            traced = run_workload(workload, args.seed, args.seconds, trace=True)
            report(traced)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        wall = plain["result"]["metrics"]["wall_s"]["value"]
        traced_wall = traced["result"]["metrics"]["trace.wall_s"]["value"]
        print(f"{workload}: tracing overhead {traced_wall - wall:+.3f} s "
              f"({(traced_wall - wall) / wall:+.1%} of wall_s {wall:.3f} s)")
    return 0 if not failed else 2


if __name__ == "__main__":
    sys.exit(main())
