import numpy as np
import pytest

from oscpair import (ModelParams, VACUUM, cp_threshold, dissipator_coefficients,
                     lindblad_propagate, number_expectations, propagate,
                     thermal_product_state)
from oscpair.runner import resolve_scheme
from oscpair.verify import EquivalenceCase, run_case

from conftest import FIG4

#: warm enough to populate both modes, cold enough for cutoff d = 10 up to t = 10
WARM = {**FIG4, "n_omega0": 0.5}


@pytest.fixture(scope="module")
def params():
    return ModelParams(**WARM)


@pytest.fixture(scope="module")
def coeffs(params):
    return dissipator_coefficients(params)


@pytest.mark.parametrize("kind", ["local", "global", "cg_redfield"])
def test_oracle_matches_moment_route(params, coeffs, kind):
    """lindblad_propagate and propagate read the same Scheme and must agree."""
    name = kind
    if kind == "cg_redfield":
        name = f"cg_redfield:{0.5 * cp_threshold(params).bound!r}"
    scheme = resolve_scheme(name, coeffs)
    times = np.linspace(0.0, 10.0, 6)
    states = lindblad_propagate(scheme, thermal_product_state(0.0, 0.0, 10), times)
    traj = propagate(scheme.generator(), VACUUM, times)
    assert traj.n_plus[-1] > 0.01 and traj.n_minus[-1] > 0.01
    for i, state in enumerate(states):
        mom = number_expectations(state)
        assert abs(mom.n_plus - traj.n_plus[i]) <= 1e-9
        assert abs(mom.n_minus - traj.n_minus[i]) <= 1e-9
        assert abs(mom.cross - traj.cross[i]) <= 1e-9


def test_run_case_takes_numpy_filter_value(params):
    # draw_case scales by cp_threshold's bound, so s can be a numpy scalar
    s = np.float64(0.5) * cp_threshold(params).bound
    case = EquivalenceCase(params, "cg_redfield", s, 10.0, 10, (0.01, 0.02))
    report = run_case(case)
    assert report.passed
    assert report.max_moment_error <= 1e-9
