"""Record the reference outputs the benchmark checks its operations against.

    python3 perfbench/record.py [workload ...]

Runs each workload's operations once in this process and writes
perfbench/reference/<workload>.json. Re-record only when a change is meant
to alter the program's outputs, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import STATE
from worker import REFERENCE_DIR, run_pass
from workloads import NAMES


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(NAMES)
    REFERENCE_DIR.mkdir(exist_ok=True)
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    for workload in names:
        tmp = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=STATE / "tmp")
        reference: dict = {}
        try:
            out = run_pass(workload, 0, Path(tmp), record=reference)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        bad = [op for op in out["ops"] if not op["ok"]]
        if bad:
            print(f"{workload}: not recorded, failed operations: {bad}", file=sys.stderr)
            return 1
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(reference)} operation(s) recorded in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
