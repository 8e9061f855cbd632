"""In-memory span tracer that wraps the public functions of each oscpair layer.

Tracing is installed from outside the program: every binding of a wrapped
function is replaced, because oscpair modules import names directly
(``oscpair.cli.memory_time`` is the same object as
``oscpair.spectral.memory_time``). Functions the program imports from other
packages (``scipy.linalg.expm`` in ``moments``, ``scipy.integrate.solve_ivp``
in ``fock``) are wrapped only in the module named for them, so calls made
elsewhere are not attributed to that layer.

Each thread keeps its own parent stack. A span opened on a thread with an
empty stack (a pool thread of ``cmd_sweep``) takes the innermost span open on
the main thread as its parent. Self time is a span's duration minus the part
of its interval covered by the union of its child spans, so children that run
in parallel threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field

# layer -> (module, [function names]); a dotted name is a class attribute
LAYERS: dict[str, tuple[str, list[str]]] = {
    "cli": ("oscpair.cli", ["cmd_run", "cmd_fidelity", "cmd_sweep", "cmd_verify"]),
    "runner": ("oscpair.runner", ["SchemeRunner.trajectory"]),
    "spectral": ("oscpair.spectral", ["dissipator_coefficients", "pv_integral", "memory_time",
                                      "correlation_function", "cp_threshold"]),
    "exact": ("oscpair.exact", ["build_full_model", "exact_trajectory"]),
    "moments": ("oscpair.moments", ["propagate", "steady_state", "cg_redfield_generator",
                                    "local_generator", "expm"]),
    "gaussian": ("oscpair.gaussian", ["gaussian_fidelity_sq", "eigenmode_covariance",
                                      "lambda_c_trajectory"]),
    "fock": ("oscpair.fock", ["lindblad_propagate", "thermal_product_state",
                              "fidelity_truncated", "number_expectations", "solve_ivp"]),
    "verify": ("oscpair.verify", ["draw_case", "run_case"]),
}

_MARK = "__perfbench_span__"


def _short(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _cutoff_squared(args, kwargs, result):
    d = args[2] if len(args) > 2 else kwargs.get("d")
    return None if d is None else int(d) ** 2


def _dim(args, kwargs, result):
    return int(result.size)


def _points(args, kwargs, result):
    times = args[1] if len(args) > 1 else kwargs.get("times")
    return len(times)


def _nfev(args, kwargs, result):
    return int(result.nfev)


# span name -> {extra field: function(args, kwargs, result)}
EXTRAS = {
    "exact.build_full_model": {"dim": _dim},
    "exact.exact_trajectory": {"points": _points},
    "fock.thermal_product_state": {"dim": _cutoff_squared},
    "fock.solve_ivp": {"nfev": _nfev},
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``install`` wraps the layers, ``restore`` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        top = stack[-1:] or self._main_stack[-1:]
        parent = top[0].sid if top else None
        with self._lock:
            span = Span(len(self.spans), parent, name, threading.get_ident(),
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, name: str, func):
        extras = EXTRAS.get(name, {})

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
                for key, fn in extras.items():
                    value = fn(args, kwargs, result)
                    if value is not None:
                        span.extra[key] = value
                return result
            finally:
                self.close(span)

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every function listed in ``LAYERS``.

        A listed name that is missing raises ``LookupError``, so a renamed
        function fails the traced run instead of reading as 0 calls.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(modname)
            for name in names:
                span_name = f"{layer}.{_short(name)}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name, None)
                    if owner is None or attr not in vars(owner):
                        self.restore()
                        raise LookupError(f"{modname}.{name} not found; update LAYERS")
                    self._patch(owner, attr, self.wrap(span_name, vars(owner)[attr]))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.restore()
                    raise LookupError(f"{modname}.{name} not found; update LAYERS")
                wrapper = self.wrap(span_name, original)
                if getattr(original, "__module__", "").startswith("oscpair"):
                    owners = [m for n, m in list(sys.modules.items())
                              if (n == "oscpair" or n.startswith("oscpair.")) and m is not None]
                else:
                    owners = [module]
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                     "thread": s.thread, "start": s.start, "end": s.end,
                                     **s.extra}) + "\n")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer, (_, names) in LAYERS.items():
        for name in names:
            key = f"{layer}.{_short(name)}"
            units[f"{key}.calls"] = "count"
            units[f"{key}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "cli.bytes_written": "B", "cli.sweep.overlap": "ratio",
        "runner.trajectory.hit_ratio": "ratio",
        "exact.build_full_model.dim_max": "count", "exact.exact_trajectory.points": "count",
        "exact.exact_trajectory.points_per_s": "1/s",
        "fock.solve_ivp.nfev": "count", "fock.dim_max": "count",
        "verify.useful_ratio": "ratio",
        "trace.wall_s": "s", "trace.spans": "count",
    })
    return units


def installed_wrappers() -> list[str]:
    """Names of oscpair bindings that currently hold a tracing wrapper."""
    found = []
    for modname, module in list(sys.modules.items()):
        if not (modname == "oscpair" or modname.startswith("oscpair.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            holders = [(attr, value)]
            if isinstance(value, type):
                holders += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            found += [f"{modname}.{a}" for a, v in holders if hasattr(v, _MARK)]
    return found


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.sid, [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out[s.sid] = (s.end - s.start) - _union_length(clipped)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls and self time, per-layer roll-ups, and the layer extras."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    has_child = {s.parent for s in spans if s.parent is not None}

    out: dict[str, float] = {}
    for layer, (_, names) in LAYERS.items():
        layer_self = 0.0
        for name in names:
            key = f"{layer}.{_short(name)}"
            group = by_name.get(key, [])
            self_s = sum(own[s.sid] for s in group)
            out[f"{key}.calls"] = len(group)
            out[f"{key}.self_s"] = self_s
            layer_self += self_s
        out[f"{layer}.self_s"] = layer_self

    def total(name: str, key: str) -> float:
        return sum(s.extra.get(key, 0) for s in by_name.get(name, []))

    def duration(group) -> float:
        return sum(s.end - s.start for s in group)

    sweeps = by_name.get("cli.cmd_sweep", [])
    sweep_ids = {s.sid for s in sweeps}
    inner = [s for s in by_name.get("cli.cmd_run", []) if s.parent in sweep_ids]
    out["cli.sweep.overlap"] = _ratio(duration(inner), duration(sweeps))

    traj = by_name.get("runner.trajectory", [])
    hits = sum(1 for s in traj if s.sid not in has_child)
    out["runner.trajectory.hit_ratio"] = _ratio(hits, len(traj))

    builds = by_name.get("exact.build_full_model", [])
    out["exact.build_full_model.dim_max"] = max((s.extra.get("dim", 0) for s in builds), default=0)
    points = total("exact.exact_trajectory", "points")
    out["exact.exact_trajectory.points"] = points
    out["exact.exact_trajectory.points_per_s"] = _ratio(
        points, duration(by_name.get("exact.exact_trajectory", [])))

    out["fock.solve_ivp.nfev"] = total("fock.solve_ivp", "nfev")
    out["fock.dim_max"] = max((s.extra.get("dim", 0)
                               for s in by_name.get("fock.thermal_product_state", [])), default=0)

    out["verify.useful_ratio"] = _ratio(len(by_name.get("verify.draw_case", [])),
                                        len(by_name.get("verify.run_case", [])))
    return out
