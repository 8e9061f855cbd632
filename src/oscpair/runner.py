"""Scheme dispatch: one entry point mapping a scheme name to a moment trajectory."""

from __future__ import annotations

import math

import numpy as np

from . import exact as exact_mod
from .errors import ValidationError
from .moments import (VACUUM, Trajectory, cg_redfield_generator, local_generator,
                      mixture_moments, propagate)
from .params import SATURATING, ModelParams
from .spectral import cp_bound_from_tensors, dissipator_coefficients, secular_filter

SCHEMES = ("exact", "redfield", "cp_redfield", "cg_redfield", "global", "local", "mixture")


def parse_scheme(name: str) -> tuple[str, float | None]:
    """Split a scheme spec into (kind, filter value); ``cg_redfield:0.5`` style."""
    if ":" in name:
        kind, _, arg = name.partition(":")
        if kind != "cg_redfield":
            raise ValidationError(f"only cg_redfield takes a parameter, got {name!r}")
        try:
            s = float(arg)
        except ValueError as exc:
            raise ValidationError(f"bad filter value in {name!r}") from exc
        return kind, s
    if name not in SCHEMES:
        raise ValidationError(f"unknown scheme {name!r}; choose from {SCHEMES}")
    return name, None


def filter_value(kind: str, s: float | None, params: ModelParams, coeffs) -> float:
    """Resolve the coarse-grain filter S₊₋ a scheme uses."""
    if kind == "redfield":
        return 1.0
    if kind == "global":
        return 0.0
    if kind == "cp_redfield":
        return cp_bound_from_tensors(coeffs.gamma1, coeffs.gamma2)
    if kind == "cg_redfield":
        if s is not None:
            return s
        if params.delta_t == SATURATING:
            return cp_bound_from_tensors(coeffs.gamma1, coeffs.gamma2)
        return float(secular_filter(params.delta_t, params.g)[0, 1])
    raise ValidationError(f"scheme {kind!r} has no filter value")


class SchemeRunner:
    """Computes and caches per-scheme trajectories for one parameter set.

    The exact model is solved once per time grid, moments and energies
    together, by :func:`~oscpair.exact.exact_trajectory` in mode space;
    master-equation schemes are closed-form propagations and essentially free.
    """

    def __init__(self, params: ModelParams, *, lamb_shift: bool = True):
        self.params = params
        self.lamb_shift = lamb_shift
        self.coeffs = dissipator_coefficients(params, lamb_shift=lamb_shift)
        self._exact_runs: dict[bytes, exact_mod.ExactRun] = {}
        self._cache: dict[tuple, Trajectory] = {}

    def exact_run(self, times) -> exact_mod.ExactRun:
        key = np.asarray(times, dtype=float).tobytes()
        if key not in self._exact_runs:
            self._exact_runs[key] = exact_mod.exact_trajectory(self.params, times)
        return self._exact_runs[key]

    def trajectory(self, scheme: str, times) -> Trajectory:
        times = np.asarray(times, dtype=float)
        key = (scheme, times.tobytes())
        if key in self._cache:
            return self._cache[key]
        kind, s = parse_scheme(scheme)
        if kind == "exact":
            traj = self.exact_run(times).trajectory
        elif kind == "local":
            traj = propagate(local_generator(self.coeffs, self.lamb_shift), VACUUM, times)
        elif kind == "mixture":
            traj = mixture_moments(self.trajectory("local", times),
                                   self.trajectory("global", times),
                                   self.params.mixture_rate)
        else:
            s_val = filter_value(kind, s, self.params, self.coeffs)
            gen = cg_redfield_generator(self.coeffs, s_val, scheme=scheme)
            traj = propagate(gen, VACUUM, times)
        self._cache[key] = traj
        return traj


def time_grid(start: float, stop: float, count: int, kind: str = "lin") -> np.ndarray:
    """Build a run grid; log grids get t = 0 prepended so propagation contracts hold."""
    if count < 2:
        raise ValidationError("grid needs at least 2 points")
    if not stop > start:
        raise ValidationError("grid stop must exceed start")
    if kind == "lin":
        grid = np.linspace(start, stop, count)
        if grid[0] != 0.0:
            grid = np.concatenate(([0.0], grid)) if start > 0.0 else grid
        return grid
    if kind == "log":
        if start <= 0.0:
            raise ValidationError("log grid needs start > 0")
        return np.concatenate(([0.0], np.geomspace(start, stop, count)))
    raise ValidationError(f"grid kind must be lin or log, got {kind!r}")


def default_s_label(value: float) -> str:
    return f"{value:g}" if math.isfinite(value) else str(value)
