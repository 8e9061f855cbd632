"""Layer timings of the exact model and the Fock oracle, and their accuracy delta
between two source trees.

    python3 bench/record.py --src SRC [--against OTHER_SRC] [--out BENCH_N.json]

``SRC`` and ``OTHER_SRC`` are the ``src`` directories of two checkouts of
this repository, typically a change and its parent. Each repeat of a
measurement runs in a fresh worker process per tree that imports ``oscpair``
from that tree only. The trees take turns going first from one repeat to
the next, so host load and fresh-process BLAS effects fall on both alike;
each case records the order of its repeats (``order``, tree names). The
measurements:

- ``exact_trajectory`` at the headline parameters (fig4) with M = 50, 100,
  200, 400, 800, 1600, 4000 and 16000 on the 1501-point grid 0:300;
- ``exact_trajectory`` on coarse grids, where an expansion has fewer times
  than half its terms: M = 800, 4000 and 16000 on the 101-point grid 0:300
  (``exact_grid101``), and M = 400 on the 301-point grid 0:30000, about 50
  restarted expansions (``exact_t30000``); each is timed, then run once more
  under ``tracemalloc`` for its traced peak (``traced_peak_mb``);
- ``oscpair sweep --axis M --values 100,200,400,800`` with the exact, global,
  local and mixture schemes on 101 points (the benchmark's ``bath_sweep``);
- ``thermal_product_state`` and ``fidelity_truncated`` at cutoffs d = 14, 20, 40;
- ``lindblad_propagate`` of the global scheme from the vacuum to t = 40
  (five output times) at d = 14, 20, 40, timed, then run once more under
  ``tracemalloc`` with the generator cached for its traced peak;
- the cold set-up of that scheme's generator at d = 14, 20, 40: ``fock._pattern``
  plus ``fock._master_rhs`` with the ``fock`` caches cleared, timed, then
  built once more under ``tracemalloc`` for its traced peak
  (``traced_peak_mb``, in units of 2**20 bytes like ``peak_rss_mb``); its
  outputs are the right-hand side at a thermal state's coordinates;
- the work of ``oscpair verify --draws 3 --seed 3`` (``verify.run_suite``);
- ``oscpair run --preset fig9b --oracle-verify on``;
- ``memory_time`` at the fig5 and fig9b parameters and at the headline
  parameters with M = 4000, each repeat starting from empty ``spectral``
  caches, as the one call a run makes does;
- fresh processes: ``import oscpair``, ``oscpair fidelity --preset fig6``,
  ``oscpair run --preset fig5`` and ``oscpair run --preset fig7`` (the exact
  model at M = 50), each timed from the spawn of its interpreter to its exit,
  so import costs count.

Each is repeated ``--repeats`` times. A worker makes one untimed warm-up
call and then the timed repeat (a fresh-process case starts one interpreter
per repeat and has no warm-up). A worker that exceeds ``--timeout`` seconds
is stopped, the limit is recorded and that tree's later repeats of the case
are skipped; its finished repeats are kept. Besides the times, every repeat
records its outputs (moments, fidelities, the verify reports, the spot
check's summary), and the record
gives the largest absolute difference of its outputs between the two trees:
the accuracy delta of the change; a fresh-process case's outputs are the
values of the CSV files it writes. Outputs longer than ``MAX_STORED`` values
(trajectories, the sweep's CSVs) enter the delta but not the record. A case's
``size`` is the cutoff d of a Fock case and the bath size M of an exact case.
A case run in a worker also records the largest peak resident memory of
its workers (``peak_rss_mb``, from ``getrusage``), which for a large case is
the case's, and the process CPU seconds of each repeat (``cpu_s``, user +
system time from ``getrusage`` around the repeat, with their median
``median_cpu_s``).
The CPU time counts BLAS worker threads, so a thread woken by the warm-up
reads as CPU above wall time in the repeat while it spins on.
Machine, libraries, BLAS and its thread settings come from
``perfbench/provenance.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CUTOFFS = (14, 20, 40)
BATH_SIZES = (50, 100, 200, 400, 800, 1600, 4000, 16000)
#: the headline parameters (fig4) at which exact_trajectory is timed
EXACT_PARAMS = dict(n_omega0=10.0, g=0.3, kappa0=0.04, omega_c=3.0, alpha=1.0)
#: coarse-grid exact cases: op -> (t_max, points) of the grid 0:t_max
COARSE = {"exact_grid101": (300.0, 101), "exact_t30000": (30000.0, 301)}
SWEEP_ARGV = ["sweep", "--axis", "M", "--values", "100,200,400,800",
              "--set", "schemes=exact,global,local,mixture", "--grid", "0:300:101:lin"]
MAX_STORED = 64
#: the oracle workload's cost class: global scheme, N(omega0) >= 0.16, kappa0 in [0.04, 0.05)
PARAMS = dict(g=0.2, kappa0=0.045, alpha=1.0, n_omega0=0.3)
OCCUPATIONS = ((0.3, 0.2), (0.2, 0.25))   # certified by d = 14 under the 1e-8 tail rule
#: memory_time cases: the parameters at which the bath memory time is found
MEMORY_TIME = {"memory_time_fig5": dict(EXACT_PARAMS, M=400),
               "memory_time_fig9b": dict(EXACT_PARAMS, n_omega0=0.01, M=400),
               "memory_time_M4000": dict(EXACT_PARAMS, M=4000)}
#: fresh-process cases: the ``oscpair`` arguments, or None for ``import oscpair`` alone
FRESH = {"fresh_import": None,
         "fresh_fidelity_fig6": ["fidelity", "--preset", "fig6"],
         "fresh_run_fig5": ["run", "--preset", "fig5"],
         "fresh_run_fig7": ["run", "--preset", "fig7"]}
CASES = ([("exact_trajectory", m) for m in BATH_SIZES]
         + [("exact_grid101", m) for m in (800, 4000, 16000)] + [("exact_t30000", 400)]
         + [("sweep_M", None)]
         + [("thermal_product_state", d) for d in CUTOFFS]
         + [("fidelity_truncated", d) for d in CUTOFFS]
         + [("lindblad_propagate", d) for d in CUTOFFS]
         + [("generator_build", d) for d in CUTOFFS]
         + [("verify_draws3_seed3", None), ("run_fig9b_oracle", None)]
         + [(op, None) for op in MEMORY_TIME]
         + [(op, None) for op in FRESH])


def _moments(fock, state) -> list[float]:
    mom = fock.number_expectations(state)
    return [mom.n_plus, mom.n_minus, mom.cross.real, mom.cross.imag]


def _global_scheme():
    """The global scheme at PARAMS: the coarse-grained family at filter 0."""
    from oscpair.moments import Scheme
    from oscpair.params import ModelParams
    from oscpair.spectral import dissipator_coefficients

    return Scheme.coarse_grained(dissipator_coefficients(ModelParams(**PARAMS)), 0.0)


def _traced_peak_mb(call) -> float:
    """Traced peak of one call, in units of 2**20 bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _run_case(op: str, size: int | None):
    """Run one measurement in this process; returns (seconds, outputs) or
    (seconds, outputs, extra fields of the repeat's record)."""
    import numpy as np
    from oscpair import cli, exact_trajectory, fock, spectral, verify
    from oscpair.params import ModelParams

    if op == "exact_trajectory" or op in COARSE:
        params = ModelParams(**EXACT_PARAMS, M=size)
        times = np.linspace(0.0, *COARSE.get(op, (300.0, 1501)))
        start = time.perf_counter()
        run = exact_trajectory(params, times)
        elapsed = time.perf_counter() - start
        traj = run.trajectory
        columns = [traj.n_plus, traj.n_minus, traj.cross.real, traj.cross.imag, *run.energies.T]
        extra = ({"traced_peak_mb": _traced_peak_mb(lambda: exact_trajectory(params, times))}
                 if op in COARSE else {})
        return elapsed, np.concatenate(columns).tolist(), extra
    if op == "sweep_M":
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            code = cli.main(SWEEP_ARGV + ["--out", out])
            elapsed = time.perf_counter() - start
            values = _csv_values(Path(out))
        if code != 0:
            raise RuntimeError(f"sweep exited {code}")
        return elapsed, values
    if op == "thermal_product_state":
        start = time.perf_counter()
        state = fock.thermal_product_state(*OCCUPATIONS[0], size)
        return time.perf_counter() - start, _moments(fock, state)
    if op == "fidelity_truncated":
        states = [fock.thermal_product_state(*occ, size) for occ in OCCUPATIONS]
        start = time.perf_counter()
        value = fock.fidelity_truncated(*states)
        return time.perf_counter() - start, [value]
    if op == "lindblad_propagate":
        scheme = _global_scheme()
        vacuum = fock.thermal_product_state(0.0, 0.0, size)
        times = np.linspace(0.0, 40.0, 5)
        start = time.perf_counter()
        states = fock.lindblad_propagate(scheme, vacuum, times)
        elapsed = time.perf_counter() - start
        peak = _traced_peak_mb(lambda: fock.lindblad_propagate(scheme, vacuum, times))
        return (elapsed, [x for st in states for x in _moments(fock, st)],
                {"traced_peak_mb": peak})
    if op == "generator_build":
        scheme = _global_scheme()
        for cached in (fock._pattern, fock._layout):
            cached.cache_clear()
        start = time.perf_counter()
        rhs = fock._master_rhs(scheme, size)
        elapsed = time.perf_counter() - start
        for cached in (fock._pattern, fock._layout):
            cached.cache_clear()
        peak = _traced_peak_mb(lambda: fock._master_rhs(scheme, size))
        coords = fock._coordinates(fock.thermal_product_state(*OCCUPATIONS[0], size).blocks)
        return elapsed, rhs(0.0, coords).tolist(), {"traced_peak_mb": peak}
    if op == "verify_draws3_seed3":
        start = time.perf_counter()
        reports = list(verify.run_suite(3, 3))
        elapsed = time.perf_counter() - start
        return elapsed, [x for r in reports for x in (r.max_moment_error, r.max_fidelity_error)]
    if op == "run_fig9b_oracle":
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            code = cli.main(["run", "--preset", "fig9b", "--oracle-verify", "on", "--out", out])
            elapsed = time.perf_counter() - start
            oracle = json.loads((Path(out) / "summary.json").read_text())["oracle_verify"]
        if code != 0:
            raise RuntimeError(f"run exited {code}")
        return elapsed, [oracle["cutoff"], oracle["max_moment_deviation"]]
    if op in MEMORY_TIME:
        params = ModelParams(**MEMORY_TIME[op])
        for cached in vars(spectral).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        start = time.perf_counter()
        tau = spectral.memory_time(params)
        return time.perf_counter() - start, [tau]
    raise ValueError(f"unknown case {op!r}")


def _worker(src: str, op: str, size: int | None) -> None:
    """One untimed warm-up call of the case, then one timed repeat, whose
    record is printed as one line of JSON."""
    sys.path.insert(0, src)
    import oscpair

    if Path(oscpair.__file__).resolve().parent.parent != Path(src).resolve():
        raise RuntimeError(f"imported oscpair from {oscpair.__file__}, not from {src}")
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries the record
        _run_case(op, size)
        cpu_start = _cpu_seconds()
        seconds, outputs, *extra = _run_case(op, size)
        cpu_s = _cpu_seconds() - cpu_start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"seconds": seconds, "cpu_s": cpu_s, "outputs": outputs,
                      "peak_rss_mb": peak_mb, **(extra[0] if extra else {})}), flush=True)


def _cpu_seconds() -> float:
    """User + system CPU seconds of this process, all of its threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _csv_values(out: Path) -> list[float]:
    import numpy as np

    return [x for path in sorted(out.rglob("*.csv"))
            for x in np.loadtxt(path, delimiter=",", skiprows=1).ravel().tolist()]


def _measure_fresh(src: Path, op: str, timeout: float) -> dict:
    """One fresh interpreter running one case, timed from spawn to exit."""
    src = src.resolve()
    code = f"import sys, oscpair; assert oscpair.__file__.startswith({str(src)!r})"
    if FRESH[op] is not None:
        code += f"; from oscpair.cli import main; sys.exit(main({FRESH[op] + ['--out', 'out']!r}))"
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cwd:
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"timed_out_after_s": timeout}
        if proc.returncode != 0:
            return {"exit_code": proc.returncode}
        return {"seconds": time.monotonic() - start, "outputs": _csv_values(Path(cwd))}


def _measure_once(src: Path, op: str, size: int | None, timeout: float) -> dict:
    """One timed repeat of a case in a fresh worker (or interpreter) on ``src``:
    its record, or the worker's ``timed_out_after_s`` or ``exit_code``."""
    if op in FRESH:
        return _measure_fresh(src, op, timeout)
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker",
            "--src", str(src.resolve()), "--op", op]
    if size is not None:
        argv += ["--size", str(size)]
    with tempfile.TemporaryFile("w+") as log:
        proc = subprocess.Popen(argv, stdout=log, cwd=tempfile.gettempdir())
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"timed_out_after_s": timeout}
        log.seek(0)
        runs = [json.loads(line) for line in log if line.strip()]
    return runs[0] if code == 0 and runs else {"exit_code": code}


def _summary(runs: list[dict], stop: dict) -> dict:
    """One tree's record of a case from its repeats' records, and the
    ``timed_out_after_s`` or ``exit_code`` that stopped them, if any."""
    out = {"seconds": [r["seconds"] for r in runs],
           "outputs": runs[-1]["outputs"] if runs else None, **stop}
    if runs:
        out["median_s"] = statistics.median(out["seconds"])
    if runs and "cpu_s" in runs[0]:
        out["cpu_s"] = [r["cpu_s"] for r in runs]
        out["median_cpu_s"] = statistics.median(out["cpu_s"])
        out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    if runs and "traced_peak_mb" in runs[0]:
        out["traced_peak_mb"] = [r["traced_peak_mb"] for r in runs]
    return out


def _max_delta(a, b) -> float | None:
    if a is None or b is None or len(a) != len(b):
        return None
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _git(root: Path, *args: str) -> str | None:
    """Output of a git command in ``root``; None where ``root`` is no checkout."""
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def _tree(src: Path) -> dict:
    """The commit of the checkout that holds ``src``, and a hash of any
    uncommitted changes to its tracked files, so the record names the code it timed."""
    root = src.resolve().parent
    head = _git(root, "rev-parse", "HEAD")
    diff = _git(root, "diff", "HEAD")
    tree = {"git_commit": head.strip() if head else None,
            "uncommitted_changes": None if diff is None else bool(diff)}
    if diff:
        tree["uncommitted_diff_sha256"] = hashlib.sha256(diff.encode()).hexdigest()
    return tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, help="src directory of the tree to time")
    parser.add_argument("--against", help="src directory of the tree to compare with")
    parser.add_argument("--out", help="write the record here (default: print it)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds allowed to one worker (a warm-up and one repeat)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--op", help=argparse.SUPPRESS)
    parser.add_argument("--size", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.src, args.op, args.size)
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    sys.path.insert(0, str(REPO))  # for perfbench.provenance
    from perfbench.provenance import collect

    trees = {"src": Path(args.src)}
    if args.against:
        trees["against"] = Path(args.against)
    machine = collect(REPO, seed=None)
    for key in ("git_commit", "seed"):
        machine.pop(key)
    record = {
        "script": "bench/record.py",
        "machine": machine,
        "trees": {name: _tree(src) for name, src in trees.items()},
        "repeats": args.repeats,
        "timeout_s": args.timeout,
        "cases": [],
    }
    for op, size in CASES:
        entry = {"op": op, "size": size, "order": []}
        runs = {name: [] for name in trees}
        stops = {name: {} for name in trees}
        for repeat in range(args.repeats):
            order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
            entry["order"].append(order)
            for name in order:
                if not stops[name]:
                    run = _measure_once(trees[name], op, size, args.timeout)
                    if "seconds" in run:
                        runs[name].append(run)
                    else:
                        stops[name] = run
        for name in trees:
            entry[name] = _summary(runs[name], stops[name])
            print(f"{op} size={size} {name}: {entry[name].get('median_s', math.nan):.4g} s"
                  + (" (timed out)" if "timed_out_after_s" in entry[name] else ""),
                  file=sys.stderr, flush=True)
        if "against" in trees:
            entry["max_abs_delta"] = _max_delta(entry["src"]["outputs"],
                                                entry["against"]["outputs"])
        for name in trees:
            outputs = entry[name]["outputs"]
            if outputs is not None and len(outputs) > MAX_STORED:
                entry[name]["outputs"] = None
                entry[name]["n_outputs"] = len(outputs)
        record["cases"].append(entry)

    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
