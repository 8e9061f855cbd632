"""Preset artifacts of two source trees, compared file by file.

    python3 bench/presets.py --src SRC --against OTHER_SRC

``SRC`` and ``OTHER_SRC`` are the ``src`` directories of two checkouts of
this repository, typically a change and its parent; the same directory twice
checks that every artifact is byte-deterministic across fresh processes. One
fresh interpreter per tree, importing ``oscpair`` from that tree only, writes

- ``oscpair run`` on every preset;
- ``oscpair fidelity`` on fig6, fig9a and fig9b;
- ``oscpair fidelity --preset fig6 --grid 0:300:151:lin`` on global, local,
  mixture, ``cg_redfield:1.0`` and redfield, whose two filters past the CP
  bound get the flagged ``re_f2_*`` / ``*_nonphysical`` columns;
- ``oscpair fidelity --preset fig6 --lamb-shift off``, where every η is 0;
- ``oscpair run --preset fig9b --grid 0:300:151:lin`` on a bare
  ``cg_redfield`` and ``cp_redfield`` at ``delta_t=3.7``, where the filter
  comes from ``delta_t``;
- ``oscpair run --preset fig9b --set beta=inf``, a bath at zero
  temperature, where the N-weighted Lamb-shift integrals are 0.

Each file is then printed as ``byte-identical``, or with its largest
deviation relative to column scale: max |a − b| / max(|a|, |b|) over a CSV
column, or over one number of ``summary.json``. A file only one tree wrote, a
different header, shape or JSON layout, and a command whose exit codes differ
are printed too. The exit code is 0 when every file is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FIDELITY_PRESETS = ("fig6", "fig9a", "fig9b")
#: cases beyond each preset's run and the fidelity presets, by output directory
EXTRA = {
    "fidelity_fig6_flagged": ["fidelity", "--preset", "fig6", "--grid", "0:300:151:lin", "--set",
                              "schemes=global,local,mixture,cg_redfield:1.0,redfield"],
    "fidelity_fig6_lamb_shift_off": ["fidelity", "--preset", "fig6", "--lamb-shift", "off"],
    "run_fig9b_delta_t_3.7": ["run", "--preset", "fig9b", "--grid", "0:300:151:lin", "--set",
                              "schemes=cg_redfield,cp_redfield", "--set", "delta_t=3.7"],
    "run_fig9b_beta_inf": ["run", "--preset", "fig9b", "--set", "beta=inf"],
}

#: run in the fresh interpreter; argv: source tree, output root, JSON [fidelity presets, extra]
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
import oscpair.cli
from oscpair.presets import PRESETS

src, out, (fidelity, extra) = sys.argv[1], Path(sys.argv[2]), json.loads(sys.argv[3])
if Path(oscpair.cli.__file__).resolve().parents[1] != Path(src).resolve():
    sys.exit(f"oscpair imported from {oscpair.cli.__file__}, not from {src}")
cases = {f"run_{name}": ["run", "--preset", name] for name in PRESETS}
cases.update({f"fidelity_{name}": ["fidelity", "--preset", name] for name in fidelity})
cases.update(extra)
codes = {}
for case, argv in cases.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[case] = oscpair.cli.main(argv + ["--out", str(out / case)])
print(json.dumps(codes))
"""


def _write_tree(src: Path, out: Path) -> dict:
    """Write every case's artifacts from ``src`` under ``out``; returns the exit codes."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-c", CHILD, str(src), str(out),
            json.dumps([FIDELITY_PRESETS, EXTRA])]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a − b| / max(|a|, |b|) along axis 0, from the finite entries' scale;
    a NaN or infinity that the other side does not repeat counts as infinite."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.nan_to_num(np.abs(a - b), nan=np.inf))
    both = np.abs(np.concatenate([a, b]))
    scale = np.where(np.isfinite(both), both, 0.0).max(axis=0)
    return diff.max(axis=0) / np.where(scale > 0.0, scale, 1.0)


def _csv_deviation(a: Path, b: Path) -> str:
    (head_a, *_), (head_b, *_) = (p.read_text().split("\n", 1) for p in (a, b))
    if head_a != head_b:
        return f"header differs: {head_a} against {head_b}"
    rows_a, rows_b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (a, b))
    if rows_a.shape != rows_b.shape:
        return f"shape {rows_a.shape} against {rows_b.shape}"
    dev = _deviation(rows_a, rows_b)
    return f"max deviation {dev.max():.2e} of column scale ({head_a.split(',')[dev.argmax()]})"


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _json_deviation(a: Path, b: Path) -> str:
    leaves_a, leaves_b = (dict(_leaves(json.loads(p.read_text()))) for p in (a, b))
    if leaves_a.keys() != leaves_b.keys():
        return f"layout differs at {sorted(leaves_a.keys() ^ leaves_b.keys())}"
    keys = list(leaves_a)
    other = [k for k in keys if not all(_is_number(d[k]) for d in (leaves_a, leaves_b))]
    if any(leaves_a[k] != leaves_b[k] for k in other):
        return f"values differ at {[k for k in other if leaves_a[k] != leaves_b[k]]}"
    numbers = [k for k in keys if k not in other]
    dev = _deviation(*(np.array([[float(d[k]) for k in numbers]]) for d in (leaves_a, leaves_b)))
    return f"max deviation {dev.max():.2e} of value scale ({numbers[dev.argmax()]})"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(src: Path, against: Path) -> int:
    """Print one line per file and per differing exit code; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        roots = Path(tmp, "src"), Path(tmp, "against")
        codes = [_write_tree(tree, root) for tree, root in zip((src, against), roots)]
        differences = 0
        for case in sorted(codes[0].keys() | codes[1].keys()):
            if codes[0].get(case) != codes[1].get(case):
                print(f"{case}: exit code {codes[0].get(case)} against {codes[1].get(case)}")
                differences += 1
        files = sorted({p.relative_to(root) for root in roots
                        for p in root.rglob("*") if p.is_file()})
        for rel in files:
            a, b = (root / rel for root in roots)
            if not (a.exists() and b.exists()):
                line = f"only in {src if a.exists() else against}"
            elif a.read_bytes() == b.read_bytes():
                print(f"{rel}: byte-identical")
                continue
            elif rel.suffix == ".csv":
                line = _csv_deviation(a, b)
            else:
                line = _json_deviation(a, b)
            print(f"{rel}: {line}")
            differences += 1
    print(f"{len(files)} file(s) from {len(codes[0])} command(s); {differences} difference(s)")
    return 0 if differences == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="src directory of one tree")
    parser.add_argument("--against", required=True, type=Path,
                        help="src directory of the tree to compare with")
    args = parser.parse_args(argv)
    return compare(args.src, args.against)


if __name__ == "__main__":
    sys.exit(main())
