"""Oracle equivalence checks: Fock-space propagation against the Gaussian pipeline.

Used by the ``verify`` CLI subcommand, by ``run --oracle-verify`` and by the
test suite, which runs the subcommand's default draws. Each case draws model
parameters in the small-occupation regime the truncated oracle can certify,
chooses the per-mode cutoff d from a thermal tail bound, propagates one
scheme both ways, and compares moment trajectories plus Uhlmann fidelities
against a thermal reference state. The oracle works on the 2d−1
total-excitation blocks of at most d states each (see :mod:`oscpair.fock`),
so its cost grows as d⁴ rather than as the d⁶ of dense d² × d² products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (TruncatedState, fidelity_truncated, lindblad_propagate,
                   number_expectations, thermal_product_state)
from .gaussian import gaussian_fidelity
from .moments import VACUUM, MomentState, Scheme, Trajectory, propagate
from .params import ModelParams, bose_occupation
from .runner import resolve_scheme
from .spectral import cp_threshold, dissipator_coefficients

_SCHEME_CYCLE = ("local", "global", "cg_redfield")
_OCCUPANCY_BUDGET = 0.35
#: output times per case, from t = 0 to t_max; fidelities are probed at the
#: middle and the last
_N_TIMES = 5


@dataclass(frozen=True)
class EquivalenceCase:
    params: ModelParams
    scheme: str          # local | global | cg_redfield
    s: float | None      # filter value for cg_redfield
    t_max: float
    cutoff: int
    reference: tuple[float, float]  # thermal occupations for the fidelity probe


def _cutoff_for(n_scale: float) -> int:
    # smallest d whose thermal edge population stays well under the 1e-6 monitor
    n_eff = 1.2 * n_scale + 0.05
    q = n_eff / (n_eff + 1.0)
    return 2 + math.ceil(math.log(1e-7 * (1.0 - q)) / math.log(q))


def draw_case(rng: np.random.Generator) -> EquivalenceCase:
    """Random small-occupation configuration with the cutoff chosen from a tail bound."""
    n0 = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
    g = float(rng.uniform(0.05, 0.3))
    kappa0 = float(rng.uniform(0.02, 0.08))
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    params = ModelParams(g=g, kappa0=kappa0, alpha=alpha, n_omega0=n0)
    scheme = _SCHEME_CYCLE[int(rng.integers(0, len(_SCHEME_CYCLE)))]
    s = None
    if scheme == "cg_redfield":
        s = float(rng.uniform(0.3, 1.0)) * cp_threshold(params).bound

    # cap the accumulated occupation so a modest cutoff certifies the run
    n_slow = bose_occupation(params.beta * params.omega_minus)
    kappa_slow = kappa0 * (params.omega_minus / params.omega0) ** alpha
    if n_slow <= _OCCUPANCY_BUDGET:
        t_max = 40.0
    else:
        t_max = min(40.0, -2.0 / kappa_slow * math.log1p(-_OCCUPANCY_BUDGET / n_slow))
    n_reached = min(n_slow, _OCCUPANCY_BUDGET)
    cutoff = _cutoff_for(n_reached)
    # reference occupations scaled to the draw so its cutoff certifies them too
    ref_cap = 0.6 * n_reached
    ref = (float(rng.uniform(0.0, ref_cap)), float(rng.uniform(0.0, ref_cap)))
    return EquivalenceCase(params, scheme, s, t_max, cutoff, ref)


@dataclass(frozen=True)
class EquivalenceReport:
    case: EquivalenceCase
    max_moment_error: float
    max_fidelity_error: float

    @property
    def passed(self) -> bool:
        return self.max_moment_error <= 1e-4 and self.max_fidelity_error <= 1e-4


def moment_deviation(scheme: Scheme, cutoff: int,
                     times) -> tuple[float, list[TruncatedState], Trajectory]:
    """Propagate ``scheme`` from the vacuum through the Fock oracle and the moment
    route; returns the largest moment difference and both trajectories."""
    fock_states = lindblad_propagate(scheme, thermal_product_state(0.0, 0.0, cutoff), times)
    traj = propagate(scheme.generator(), VACUUM, times)
    worst = 0.0
    for i, st in enumerate(fock_states):
        mom = number_expectations(st)
        worst = max(worst, abs(mom.n_plus - traj.n_plus[i]),
                    abs(mom.n_minus - traj.n_minus[i]), abs(mom.cross - traj.cross[i]))
    return worst, fock_states, traj


def run_case(case: EquivalenceCase) -> EquivalenceReport:
    """Propagate one scheme through both routes and compare."""
    times = np.linspace(0.0, case.t_max, _N_TIMES)
    name = case.scheme if case.s is None else f"cg_redfield:{float(case.s)!r}"
    scheme = resolve_scheme(name, dissipator_coefficients(case.params))
    moment_err, fock_states, traj = moment_deviation(scheme, case.cutoff, times)

    ref_state = thermal_product_state(*case.reference, case.cutoff)
    ref_moments = MomentState(*case.reference, 0j)
    fid_err = 0.0
    for i in (_N_TIMES // 2, _N_TIMES - 1):
        f_fock = fidelity_truncated(fock_states[i], ref_state)
        f_gauss = gaussian_fidelity(traj.state(i), ref_moments)
        fid_err = max(fid_err, abs(f_fock - f_gauss), abs(f_fock**2 - f_gauss**2))
    return EquivalenceReport(case, moment_err, fid_err)


def run_suite(draws: int, seed: int, *, verbose: bool = False) -> list[EquivalenceReport]:
    """Draw and run ``draws`` cases from ``seed``; a case whose truncated Fock
    space cannot certify it raises ``CutoffError``."""
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(draws):
        report = run_case(draw_case(rng))
        reports.append(report)
        if verbose:
            c = report.case
            print(f"draw {i:2d}: scheme={c.scheme:<12s} N0={c.params.n_occupation_omega0:7.3f} "
                  f"g={c.params.g:5.3f} alpha={c.params.alpha:.1f} d={c.cutoff:2d} "
                  f"t_max={c.t_max:5.1f} dmom={report.max_moment_error:.2e} "
                  f"dfid={report.max_fidelity_error:.2e} "
                  f"{'ok' if report.passed else 'FAIL'}")
    return reports
