"""Reference values for the benchmark's operations, and the checks against them.

A reference records, for every file an operation writes:

- CSV: the header, the row count and eleven evenly spaced rows (first and
  last included), all columns;
- ``summary.json``: every numeric leaf, by its dotted path;
- a sweep's ``index.json``: the status of each swept value.

A value passes when |value - ref| <= RTOL * max(1, scale), where scale is the
largest magnitude of the reference column (CSV) or of the value itself
(JSON). RTOL = 1e-7 admits rewrites that agree to roundoff (a different
eigensolver or integrator step sequence moves the outputs by 1e-13 to 1e-9)
and rejects a wrong scheme, which moves them by 1e-3 or more.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-7
SAMPLES = 11


def _sample_rows(n: int) -> list[int]:
    return sorted({round(k * (n - 1) / (SAMPLES - 1)) for k in range(SAMPLES)}) if n else []


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _numeric_leaves(value, prefix: str = "") -> dict[str, float]:
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_numeric_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(value, list):
        out = {}
        for i, item in enumerate(value):
            out.update(_numeric_leaves(item, f"{prefix}[{i}]"))
        return out
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix: float(value)}
    return {}


def describe_file(path: Path) -> dict:
    """Reference record for one output file."""
    if path.name == "index.json":
        index = json.loads(path.read_text())
        return {"kind": "index",
                "statuses": {v: r["status"] for v, r in index["values"].items()}}
    if path.suffix == ".json":
        return {"kind": "json", "values": _numeric_leaves(json.loads(path.read_text()))}
    header, rows = _read_csv(path)
    picks = _sample_rows(len(rows))
    scale = [max((abs(rows[i][j]) for i in picks), default=0.0) for j in range(len(header))]
    return {"kind": "csv", "header": header, "nrows": len(rows), "scale": scale,
            "rows": {str(i): rows[i] for i in picks}}


def describe_outputs(outdir: Path) -> dict:
    """Reference records for every file under an operation's output directory."""
    return {p.relative_to(outdir).as_posix(): describe_file(p)
            for p in sorted(outdir.rglob("*")) if p.is_file()}


class Deviation:
    """Largest deviation seen, and where."""

    def __init__(self):
        self.abs = 0.0
        self.rel = 0.0
        self.where = ""

    def add(self, value: float, ref: float, scale: float, where: str) -> bool:
        if value == ref or (math.isnan(value) and math.isnan(ref)):
            diff = 0.0
        else:
            diff = abs(value - ref) if math.isfinite(value) else math.inf
        rel = diff / max(1.0, scale)
        if rel > self.rel or (rel == self.rel and diff > self.abs):
            self.abs, self.rel, self.where = diff, rel, where
        return rel <= RTOL


def check_outputs(outdir: Path, expected: dict, dev: Deviation) -> list[str]:
    """Compare an operation's output directory with its reference; returns the problems."""
    problems = []
    for rel, ref in expected.items():
        path = outdir / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        try:
            problems += _check_file(path, rel, ref, dev)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            problems.append(f"{rel}: unreadable ({type(exc).__name__}: {exc})")
    return problems


def _check_file(path: Path, rel: str, ref: dict, dev: Deviation) -> list[str]:
    problems = []
    if ref["kind"] == "index":
        got = {v: r["status"] for v, r in json.loads(path.read_text())["values"].items()}
        if got != ref["statuses"]:
            problems.append(f"{rel}: statuses {got} != {ref['statuses']}")
        return problems
    if ref["kind"] == "json":
        got = _numeric_leaves(json.loads(path.read_text()))
        for key, want in ref["values"].items():
            if key not in got:
                problems.append(f"{rel}: {key} missing")
            elif not dev.add(got[key], want, abs(want), f"{rel}:{key}"):
                problems.append(f"{rel}: {key} = {got[key]!r}, reference {want!r}")
        return problems
    header, rows = _read_csv(path)
    if len(rows) != ref["nrows"]:
        return [f"{rel}: {len(rows)} rows, reference {ref['nrows']}"]
    for j, name in enumerate(ref["header"]):
        if name not in header:
            problems.append(f"{rel}: column {name} missing")
            continue
        col = header.index(name)
        for i, want_row in ref["rows"].items():
            value = rows[int(i)][col]
            if not dev.add(value, want_row[j], ref["scale"][j], f"{rel}:{name}[{i}]"):
                problems.append(f"{rel}: {name}[{i}] = {value!r}, reference {want_row[j]!r}")
    return problems
