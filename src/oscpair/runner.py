"""Scheme names, and the trajectories and fidelity columns they stand for.

:class:`SchemeRunner` owns every rule about a scheme name on one parameter set
and time grid. :meth:`~SchemeRunner.equation` is the one place a name becomes
the :class:`~oscpair.moments.Scheme` it runs under; :meth:`~SchemeRunner.trajectory`
adds the exact model and the local/global mixture, which are not master
equations, and caches; :meth:`~SchemeRunner.fidelity_columns` scores them.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np

from . import exact as exact_mod
from .errors import OscPairError, ValidationError
from .gaussian import gaussian_fidelity_sq, mixture_fidelity_lower_bound
from .moments import Scheme, Trajectory, checked_grid, mixture_moments, propagate
from .params import ModelParams
from .spectral import dissipator_coefficients

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


def scheme_label(name: str) -> str:
    """The scheme name as it appears in file names and column headers."""
    return name.replace(":", "_s")


class SchemeRunner:
    """Computes and caches per-scheme trajectories for one parameter set on
    one time grid, the grid a run or fidelity table is written on; the runner
    keeps its own copy of that grid.

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
        self.times = checked_grid(times)
        self.coeffs = dissipator_coefficients(params, lamb_shift=lamb_shift)
        self._cache: dict[str, Trajectory] = {}

    @cached_property
    def exact(self) -> exact_mod.ExactRun:
        """The exact model's moments and energies on the runner's grid."""
        return exact_mod.exact_trajectory(self.params, self.times)

    def equation(self, name: str) -> Scheme:
        """The master equation a scheme name runs under, at the runner's coefficients.

        Filter values: Redfield 1, global 0, CP-Redfield ``coeffs.cp_bound``,
        ``cg_redfield`` the explicit ``:s`` or else the ``delta_t`` filter
        already resolved in ``coeffs.s_offdiag``. The mixture relaxes under
        the global scheme; the exact model has no master equation.
        """
        kind, s = parse_scheme(name)
        if kind == "local":
            return Scheme.local(self.coeffs)
        filters = {"redfield": 1.0, "cp_redfield": self.coeffs.cp_bound, "global": 0.0,
                   "mixture": 0.0, "cg_redfield": self.coeffs.s_offdiag if s is None else s}
        if kind not in filters:
            raise ValidationError("the exact model is not a master-equation scheme")
        return Scheme.coarse_grained(self.coeffs, filters[kind])

    def trajectory(self, scheme: str) -> Trajectory:
        if scheme not in self._cache:
            if scheme == "exact":
                traj = self.exact.trajectory
            elif scheme == "mixture":
                traj = mixture_moments(self.trajectory("local"), self.trajectory("global"),
                                       self.params.mixture_rate)
            else:
                traj = propagate(self.equation(scheme), self.times)
            self._cache[scheme] = traj
        return self._cache[scheme]

    def fidelity_columns(self, schemes, reference: str = "exact") -> dict[str, np.ndarray]:
        """The ``fidelity`` table by column name: ``t``, then each scheme's squared
        fidelity ``f2_<label>`` against ``reference``. The mixture is not Gaussian and
        gets the squared concavity bound, ``f2_mixture_lower_bound``. A filter past the
        CP bound may leave the physical states, so it gets ``re_f2_<label>`` and a
        ``<label>_nonphysical`` flag. A mixture reference raises ``ValidationError``,
        any other non-physical input ``OscPairError`` naming the reference."""
        if reference == "mixture":
            raise ValidationError("the mixture state is not Gaussian; pick another reference")
        ref = self.trajectory(reference)
        score = cache(lambda name: gaussian_fidelity_sq(self.trajectory(name), ref))
        columns = {"t": self.times}
        for name in schemes:
            if name == "mixture":
                f_loc, f_glob = (np.sqrt(np.clip(score(s)[0], 0.0, 1.0))
                                 for s in ("local", "global"))
                bound = mixture_fidelity_lower_bound(f_loc, f_glob, self.params.mixture_rate,
                                                     self.times)
                columns["f2_mixture_lower_bound"] = np.asarray(bound) ** 2
                continue
            vals, physical = score(name)
            label = scheme_label(name)
            s = None if name == "exact" else self.equation(name).filter_s
            if s is not None and abs(s) > self.coeffs.cp_bound:
                columns[f"re_f2_{label}"] = vals
                columns[f"{label}_nonphysical"] = (~physical).astype(float)
            elif not physical.all():
                raise OscPairError(
                    f"scheme {name} against reference {reference} produced "
                    f"non-physical fidelity input at t = {self.times[np.argmin(physical)]}")
            else:
                columns[f"f2_{label}"] = vals
        return columns


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
