"""Oracle equivalence checks: Fock-space propagation against the Gaussian pipeline.

Used by the ``verify`` CLI subcommand, by ``run --oracle-verify``
(:func:`spot_check`, on the same ``_N_TIMES`` and ``_TOLERANCE``) and by the
test suite. Each case draws model parameters in the small-occupation regime
the truncated oracle can certify, chooses the per-mode cutoff d from a
thermal tail bound, propagates one scheme both ways, and compares moment
trajectories plus Uhlmann fidelities against a thermal reference state. The
oracle works on the 2d−1 total-excitation blocks of at most d states each; its
integrator state is the d(2d² + 1)/3 real coordinates of that Hermitian block
stack, and one right-hand side costs the O(d³) nonzeros of a real sparse
generator (see :mod:`oscpair.fock`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import fock, moments, spectral
from .errors import ConsistencyError, ValidationError
from .fock import TruncatedState
from .gaussian import gaussian_fidelity
from .moments import MomentState, Scheme, Trajectory
from .params import ModelParams, bose_factor
from .runner import SchemeRunner

_SCHEME_CYCLE = ("local", "global", "cg_redfield")
_OCCUPANCY_BUDGET = 0.35
#: output times per case, from t = 0 to t_max; fidelities are probed at the
#: middle and the last
_N_TIMES = 5
#: largest moment or fidelity deviation between the two routes that passes
_TOLERANCE = 1e-4


@dataclass(frozen=True)
class EquivalenceCase:
    """One oracle comparison: ``scheme`` is the name the runner takes, ``local``,
    ``global`` or ``cg_redfield:<filter>`` with the filter's float repr."""

    params: ModelParams
    scheme: str
    t_max: float
    cutoff: int
    reference: tuple[float, float]  # thermal occupations for the fidelity probe


def _cutoff_for(n_scale: float) -> int:
    # smallest d whose thermal edge population stays well under the 1e-6 monitor
    n_eff = 1.2 * n_scale + 0.05
    q = n_eff / (n_eff + 1.0)
    return 2 + math.ceil(math.log(1e-7 * (1.0 - q)) / math.log(q))


def draw_case(rng: np.random.Generator) -> EquivalenceCase:
    """Random small-occupation configuration with the cutoff chosen from a tail bound.

    A cg_redfield draw's filter is uniform in [0.3, 1]·``cp_bound`` and is kept
    in the scheme name.
    """
    n0 = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
    g = float(rng.uniform(0.05, 0.3))
    kappa0 = float(rng.uniform(0.02, 0.08))
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    params = ModelParams(g=g, kappa0=kappa0, alpha=alpha, n_omega0=n0)
    scheme = _SCHEME_CYCLE[int(rng.integers(0, len(_SCHEME_CYCLE)))]
    if scheme == "cg_redfield":
        s = float(rng.uniform(0.3, 1.0) * spectral.cp_threshold(params))
        scheme = f"cg_redfield:{s!r}"

    # cap the accumulated occupation so a modest cutoff certifies the run
    n_slow = bose_factor(params.omega_minus, params.beta)
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
    return EquivalenceCase(params, scheme, t_max, cutoff, ref)


@dataclass(frozen=True)
class EquivalenceReport:
    case: EquivalenceCase
    max_moment_error: float
    max_fidelity_error: float

    @property
    def passed(self) -> bool:
        return self.max_moment_error <= _TOLERANCE and self.max_fidelity_error <= _TOLERANCE


def moment_deviation(scheme: Scheme, cutoff: int,
                     times) -> tuple[float, list[TruncatedState], Trajectory]:
    """Propagate ``scheme`` from the vacuum through the Fock oracle and the moment
    route; returns the largest moment difference and both trajectories."""
    fock_states = fock.lindblad_propagate(scheme, fock.thermal_product_state(0.0, 0.0, cutoff),
                                         times)
    traj = moments.propagate(scheme, times)
    worst = 0.0
    for i, st in enumerate(fock_states):
        mom = fock.number_expectations(st)
        worst = max(worst, abs(mom.n_plus - traj.n_plus[i]),
                    abs(mom.n_minus - traj.n_minus[i]), abs(mom.cross - traj.cross[i]))
    return worst, fock_states, traj


def run_case(case: EquivalenceCase) -> EquivalenceReport:
    """Propagate one scheme through both routes and compare."""
    times = np.linspace(0.0, case.t_max, _N_TIMES)
    scheme = SchemeRunner(case.params, times).equation(case.scheme)
    moment_err, fock_states, traj = moment_deviation(scheme, case.cutoff, times)

    ref_state = fock.thermal_product_state(*case.reference, case.cutoff)
    ref_moments = MomentState(*case.reference, 0j)
    fid_err = 0.0
    for i in (_N_TIMES // 2, _N_TIMES - 1):
        f_fock = fock.fidelity_truncated(fock_states[i], ref_state)
        f_gauss = gaussian_fidelity(traj.state(i), ref_moments)
        fid_err = max(fid_err, abs(f_fock - f_gauss), abs(f_fock**2 - f_gauss**2))
    return EquivalenceReport(case, moment_err, fid_err)


def spot_check(runner: SchemeRunner, schemes) -> dict:
    """Moments of the local and global ``schemes`` against the oracle on
    [0, min(t_end, 20/ω0)], t_end the end of the runner's grid; needs
    N(ω₋) ≤ 1.2, so that the cutoff certifies them."""
    params = runner.params
    n_slow = bose_factor(params.omega_minus, params.beta)
    if n_slow > 1.2:
        raise ValidationError(
            "oracle-verify needs small occupations (N(omega_minus) <= 1.2); "
            f"got {n_slow:.3g}")
    case_schemes = [s for s in schemes if s in ("local", "global")]
    if not case_schemes:
        raise ValidationError("oracle-verify needs local or global among the schemes")
    times = np.linspace(0.0, min(runner.times[-1], 20.0 / params.omega0), _N_TIMES)
    d = _cutoff_for(n_slow)
    worst = max(moment_deviation(runner.equation(name), d, times)[0]
                for name in case_schemes)
    if worst > _TOLERANCE:
        raise ConsistencyError(f"oracle spot check failed: moment deviation {worst:.2e}")
    return {"schemes": case_schemes, "cutoff": d, "max_moment_deviation": worst}


def run_suite(draws: int, seed: int) -> Iterator[EquivalenceReport]:
    """Draw and run ``draws`` cases from ``seed``, yielding each report as its
    case finishes; a case whose truncated Fock space cannot certify it raises
    ``CutoffError``."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        yield run_case(draw_case(rng))
