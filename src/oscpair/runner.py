"""Scheme names, and the trajectories they stand for.

:func:`resolve_scheme` is the one place a master-equation scheme name
becomes its :class:`~oscpair.moments.Scheme`; :class:`SchemeRunner` adds the
two names that are not master equations, the exact model and the
local/global mixture, and caches trajectories per time grid.
"""

from __future__ import annotations

import math

import numpy as np

from . import exact as exact_mod
from .errors import ValidationError
from .moments import VACUUM, Scheme, Trajectory, mixture_moments, propagate
from .params import ModelParams
from .spectral import CoefficientSet, cp_bound_from_tensors, dissipator_coefficients

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
        if not math.isfinite(s):
            raise ValidationError(f"filter value in {name!r} must be finite")
        return kind, s
    if name not in SCHEMES:
        raise ValidationError(f"unknown scheme {name!r}; choose from {SCHEMES}")
    return name, None


def resolve_scheme(name: str, coeffs: CoefficientSet) -> Scheme:
    """The master equation a scheme name stands for, at the given coefficients.

    Filter values: Redfield 1, global 0, CP-Redfield the positivity bound,
    ``cg_redfield`` the explicit ``:s`` or else the ``delta_t`` filter already
    resolved in ``coeffs.s_offdiag``.
    """
    kind, s = parse_scheme(name)
    if kind == "local":
        return Scheme.local(coeffs)
    if kind == "redfield":
        s = 1.0
    elif kind == "global":
        s = 0.0
    elif kind == "cp_redfield":
        s = cp_bound_from_tensors(coeffs.gamma1, coeffs.gamma2)
    elif kind == "cg_redfield":
        s = coeffs.s_offdiag if s is None else s
    else:
        raise ValidationError(f"{name!r} is not a master-equation scheme")
    return Scheme.coarse_grained(coeffs, s)


class SchemeRunner:
    """Computes and caches per-scheme trajectories for one parameter set.

    The exact model is solved once per time grid, moments and energies
    together, by :func:`~oscpair.exact.exact_trajectory` in mode space;
    master-equation schemes are closed-form propagations and essentially free.
    """

    def __init__(self, params: ModelParams, *, lamb_shift: bool = True):
        self.params = params
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
        if scheme == "exact":
            traj = self.exact_run(times).trajectory
        elif scheme == "mixture":
            traj = mixture_moments(self.trajectory("local", times),
                                   self.trajectory("global", times),
                                   self.params.mixture_rate)
        else:
            traj = propagate(resolve_scheme(scheme, self.coeffs).generator(), VACUUM, times)
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
