"""One pass of a workload in a fresh process; prints its measurements as one JSON line.

    python3 perfbench/worker.py --workload figures --seed 1 --tmp DIR [--trace 1]
    python3 perfbench/worker.py --setup-only

Set-up is interpreter start (from the monotonic time the launcher puts in
PERFBENCH_T0), ``import oscpair`` and a warm-up call that also pays the first
sizeable LAPACK call's one-off cost. Each operation then runs in-process
through ``oscpair.cli.main(argv)`` with its output directory under --tmp, and
is checked against the recorded reference outside its timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from checks import Deviation, check_outputs, describe_outputs
from provenance import collect
from tracing import Tracer, installed_wrappers, layer_metrics
from workloads import operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"


def import_program():
    """Import oscpair from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import oscpair.cli

    if not Path(oscpair.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"oscpair imported from {oscpair.cli.__file__}, not from {src}")
    return oscpair.cli


def warm_up(cli) -> None:
    import numpy as np

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["threshold", "--preset", "fig5"])
    mat = np.random.default_rng(0).standard_normal((400, 400))
    np.linalg.eigh(mat + mat.T)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def run_op(cli, op, tmp: Path) -> tuple[dict, Path]:
    """Run one operation; returns its record (no checks yet) and its output directory."""
    outdir = tmp / op.name
    argv = list(op.argv) + (["--out", str(outdir)] if op.writes else [])
    log = io.StringIO()
    error = None
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the operation failed; record it and go on with the next
        rc = None
        error = traceback.format_exc(limit=5)
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    record = {"op": op.name, "argv": argv, "wall_s": wall, "cpu_s": cpu, "rc": rc,
              "bytes_written": _dir_bytes(outdir), "problems": []}
    if error is not None:
        record["problems"].append(error)
    elif rc != 0:
        record["problems"].append(f"exit code {rc}: {log.getvalue()[-2000:]}")
    return record, outdir


def run_pass(workload: str, seed: int, tmp: Path, *, trace: bool = False,
             spans_path: Path | None = None, record: dict | None = None) -> dict:
    """Run every operation of a workload once in this process.

    With ``record`` given, the reference of each writing operation is stored
    in it instead of being checked.
    """
    cli = import_program()
    import oscpair.verify

    ops = operations(workload, seed, oscpair.verify.draw_case)
    reference = {}
    if record is None:
        ref_path = REFERENCE_DIR / f"{workload}.json"
        reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    if installed_wrappers():
        raise RuntimeError(f"tracing wrappers present before the pass: {installed_wrappers()}")
    tracer = Tracer()
    dev = Deviation()
    results = []
    try:
        if trace:
            tracer.install()
        for op in ops:
            rec, outdir = run_op(cli, op, tmp)
            if op.writes and not rec["problems"]:
                if record is not None:
                    record[op.name] = describe_outputs(outdir)
                elif op.name not in reference:
                    rec["problems"].append(f"no reference recorded for {op.name}")
                else:
                    rec["problems"] += check_outputs(outdir, reference[op.name], dev)
            rec["ok"] = not rec["problems"]
            results.append(rec)
    finally:
        tracer.restore()
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")

    out = {"ops": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "max_deviation": {"abs": dev.abs, "rel": dev.rel, "where": dev.where}}
    if trace:
        layers = layer_metrics(tracer.spans)
        layers["cli.bytes_written"] = sum(r["bytes_written"] for r in results)
        layers["trace.wall_s"] = sum(r["wall_s"] for r in results)
        layers["trace.spans"] = len(tracer.spans)
        out["layers"] = layers
        if spans_path is not None:
            tracer.dump(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = float(os.environ["PERFBENCH_T0"]) if "PERFBENCH_T0" in os.environ else None
    cli = import_program()
    warm_up(cli)
    setup_s = time.monotonic() - t0 if t0 is not None else None
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_pass(args.workload, args.seed, args.tmp, trace=bool(args.trace),
                               spans_path=args.spans))
        result["provenance"] = collect(ROOT, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
