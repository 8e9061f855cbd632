"""Scheme names, and the trajectories they stand for.

:func:`resolve_scheme` is the one place a master-equation scheme name
becomes its :class:`~oscpair.moments.Scheme`; :class:`SchemeRunner` adds the
two names that are not master equations, the exact model and the
local/global mixture, and caches the trajectories of one time grid.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import exact as exact_mod
from .errors import ValidationError
from .moments import Scheme, Trajectory, mixture_moments, propagate
from .params import ModelParams
from .spectral import CoefficientSet, dissipator_coefficients

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

    Filter values: Redfield 1, global 0, CP-Redfield ``coeffs.cp_bound``,
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
        s = coeffs.cp_bound
    elif kind == "cg_redfield":
        s = coeffs.s_offdiag if s is None else s
    else:
        raise ValidationError(f"{name!r} is not a master-equation scheme")
    return Scheme.coarse_grained(coeffs, s)


class SchemeRunner:
    """Computes and caches per-scheme trajectories for one parameter set on
    one time grid, the grid a run or fidelity table is written on.

    The exact model is solved once, moments and energies together, by
    :func:`~oscpair.exact.exact_trajectory`, a Chebyshev expansion of the
    mode propagator with no eigensolver: its N ≈ r·t_max terms (r the
    half-width of the mode spectrum) cost O(N·M) to build and O(N·M) per
    grid point to sum. Master-equation schemes are closed-form propagations
    from the vacuum by :func:`~oscpair.moments.propagate` and essentially free.
    Every trajectory starts from the joint ground state, and its t = 0 row is
    exactly zero.
    """

    def __init__(self, params: ModelParams, times, *, lamb_shift: bool = True):
        self.params = params
        self.times = np.asarray(times, dtype=float)
        self.coeffs = dissipator_coefficients(params, lamb_shift=lamb_shift)
        self._cache: dict[str, Trajectory] = {}

    @cached_property
    def exact(self) -> exact_mod.ExactRun:
        """The exact model's moments and energies on the runner's grid."""
        return exact_mod.exact_trajectory(self.params, self.times)

    def trajectory(self, scheme: str) -> Trajectory:
        if scheme not in self._cache:
            if scheme == "exact":
                traj = self.exact.trajectory
            elif scheme == "mixture":
                traj = mixture_moments(self.trajectory("local"), self.trajectory("global"),
                                       self.params.mixture_rate)
            else:
                traj = propagate(resolve_scheme(scheme, self.coeffs), self.times)
            self._cache[scheme] = traj
        return self._cache[scheme]


def time_grid(start: float, stop: float, count: int, kind: str = "lin") -> np.ndarray:
    """Build a run grid on finite t >= 0; t = 0 is prepended when the grid starts
    later, so every run starts from the vacuum at t = 0."""
    if count < 2:
        raise ValidationError("grid needs at least 2 points")
    if not 0.0 <= start < stop < math.inf:
        raise ValidationError(f"grid needs finite 0 <= start < stop, got {start}:{stop}")
    if kind == "lin":
        grid = np.linspace(start, stop, count)
        return grid if start == 0.0 else np.concatenate(([0.0], grid))
    if kind == "log":
        if start == 0.0:
            raise ValidationError("log grid needs start > 0")
        return np.concatenate(([0.0], np.geomspace(start, stop, count)))
    raise ValidationError(f"grid kind must be lin or log, got {kind!r}")
