"""Benchmark launcher: runs one workload in fresh worker processes and prints its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 42 --trace 0

A run first starts SETUP_PROBES workers that only set up, then runs passes of
the workload, each in a fresh worker with its own temporary output directory
(removed after the pass's checks). It starts another pass while the time the
run has taken plus one more average pass fits in --seconds; there is always at
least one. The launcher itself starts no threads, and runs one worker at a time.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the workers trace every layer and the
object carries the per-layer metrics instead. Everything else a run learns
(provenance, per-operation times, the largest deviation from the reference)
goes to the lines before it and to .perfbench/results/. The exit code is 0
when every worker ran to the end, whether or not its operations passed their
checks; failed operations are counted in the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import metric_units
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "op_max_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker to completion and return the JSON object on its last line."""
    env = dict(os.environ, PERFBENCH_T0=repr(time.monotonic()))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {args} did not finish within {timeout:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Probe set-up, run passes until the time is used, and aggregate their metrics."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    for sub in ("tmp", "results", "spans"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(["--setup-only"], deadline - time.monotonic())["setup_s"])

    passes = []
    pass_time = 0.0
    while not passes or time.monotonic() - started + pass_time / len(passes) <= seconds:
        tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE / "tmp"))
        args = ["--workload", workload, "--seed", str(seed), "--tmp", str(tmp),
                "--trace", str(int(trace))]
        if trace:
            args += ["--spans", str(STATE / "spans" / f"{workload}-seed{seed}-pass{len(passes)}.jsonl")]
        t0 = time.monotonic()
        try:
            passes.append(spawn(args, deadline - t0))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        pass_time += time.monotonic() - t0
        setups.append(passes[-1]["setup_s"])

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"FAILED {op['op']}: {op['problems'][0][:500]}")

    med = statistics.median
    if trace:
        units = metric_units()
        metrics = {name: med([p["layers"][name] for p in passes]) for name in units}
    else:
        units = END_TO_END
        metrics = {
            "wall_s": med([sum(op["wall_s"] for op in p["ops"]) for p in passes]),
            "op_max_s": med([max(op["wall_s"] for op in p["ops"]) for p in passes]),
            "cpu_s": med([sum(op["cpu_s"] for op in p["ops"]) for p in passes]),
            "peak_rss_mb": med([p["peak_rss_mb"] for p in passes]),
            "setup_s": med(setups),
        }
    worst = max((p["max_deviation"] for p in passes), key=lambda d: d["rel"])
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "passes": len(passes),
        "setup_samples": setups, "max_deviation": worst,
        "provenance": passes[0]["provenance"],
        "ops": [{k: op[k] for k in ("op", "wall_s", "cpu_s", "rc", "ok")} for op in ops],
    }
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    (STATE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**summary, "result": result}, indent=1) + "\n")
    return {"summary": summary, "result": result}


def report(out: dict) -> None:
    summary, result = out["summary"], out["result"]
    print("provenance: " + json.dumps(summary["provenance"], sort_keys=True))
    for op in summary["ops"]:
        print(f"op {op['op']:<24} {op['wall_s']:9.3f} s wall {op['cpu_s']:9.3f} s cpu "
            f"rc={op['rc']} {'ok' if op['ok'] else 'FAILED'}")
    dev = summary["max_deviation"]
    print(f"max deviation from reference: {dev['abs']:.3e} abs, {dev['rel']:.3e} of scale"
        f" at {dev['where'] or '-'}")
    print(f"{summary['workload']}: {len(summary['ops'])} operations attempted, "
        f"{result['failed']} failed, {summary['passes']} pass(es)")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {NAMES}")
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
