import numpy as np
import pytest

from oscpair import (DomainError, ModelParams, MomentState, cp_threshold, exact_trajectory,
                     propagate)
from oscpair.fock import (TruncatedState, _coordinates, _from_coordinates, _master_rhs,
                          boundary_population, fidelity_truncated, lindblad_propagate,
                          number_expectations, thermal_product_state)
from oscpair.runner import SchemeRunner, parse_scheme
from oscpair.verify import draw_case, run_suite

from conftest import FIG4

from dense_fock import (block_slots, dense_fidelity, dense_gaussian_state, dense_moments,
                        dense_propagate, dense_rhs, to_blocks, to_dense)

#: warm enough to populate both modes, cold enough for cutoff d = 10 up to t = 10
WARM = {**FIG4, "n_omega0": 0.5}
D = 10
TIMES = np.linspace(0.0, 10.0, 6)


@pytest.fixture(scope="module")
def params():
    return ModelParams(**WARM)


@pytest.fixture(scope="module", params=["local", "global", "cg_redfield"])
def routes(request, params):
    """One scheme propagated from the vacuum by the blocked oracle and the dense reference."""
    name = request.param
    if name == "cg_redfield":
        name = f"cg_redfield:{0.5 * cp_threshold(params).bound!r}"
    scheme = SchemeRunner(params, TIMES).equation(name)
    vacuum = thermal_product_state(0.0, 0.0, D)
    blocked = lindblad_propagate(scheme, vacuum, TIMES)
    dense = dense_propagate(scheme, to_dense(vacuum.blocks), D, TIMES)
    return scheme, blocked, dense


def test_oracle_matches_moment_route(routes):
    """lindblad_propagate and propagate read the same Scheme and must agree."""
    scheme, states, _ = routes
    traj = propagate(scheme, TIMES)
    assert traj.n_plus[-1] > 0.01 and traj.n_minus[-1] > 0.01
    for i, state in enumerate(states):
        mom = number_expectations(state)
        assert abs(mom.n_plus - traj.n_plus[i]) <= 1e-9
        assert abs(mom.n_minus - traj.n_minus[i]) <= 1e-9
        assert abs(mom.cross - traj.cross[i]) <= 1e-9


def test_blocked_matches_dense_reference(routes):
    _, blocked, dense = routes
    for state, rho in zip(blocked, dense):
        assert np.abs(to_dense(state.blocks) - rho).max() <= 1e-9
        mom, ref = number_expectations(state), dense_moments(rho, D)
        assert abs(mom.n_plus - ref.n_plus) <= 1e-10
        assert abs(mom.n_minus - ref.n_minus) <= 1e-10
        assert abs(mom.cross - ref.cross) <= 1e-10
        # the dense route itself keeps no weight between different excitation numbers
        block, _ = block_slots(D)
        assert np.abs(rho[block[:, None] != block[None, :]]).max() <= 1e-12


def test_padding_stays_exactly_zero(routes):
    _, blocked, _ = routes
    for state in blocked:
        assert np.array_equal(to_blocks(to_dense(state.blocks), D), state.blocks)


def random_hermitian_stack(d, seed):
    """A random Hermitian d² × d² matrix that conserves the total excitation, and
    its block stack."""
    block, _ = block_slots(d)
    same = block[:, None] == block[None, :]
    rng = np.random.default_rng(seed)
    rho = np.where(same, rng.normal(size=same.shape) + 1j * rng.normal(size=same.shape), 0.0)
    rho = 0.5 * (rho + rho.conj().T)
    return rho, to_blocks(rho, d)


@pytest.mark.parametrize("name", ["local", "global", "cg_redfield"])
def test_generator_matches_dense_rhs(name, params):
    """The sparse right-hand side on the coordinates of a random Hermitian block
    stack, without the integrator.

    local and the filtered Redfield scheme have off-diagonal (u, w, h), so they
    exercise the ladder-product order and the phase group of every term."""
    if name == "cg_redfield":
        name = f"cg_redfield:{0.5 * cp_threshold(params).bound!r}"
    scheme = SchemeRunner(params, TIMES).equation(name)
    d = 6
    rho, blocks = random_hermitian_stack(d, 6)
    block, _ = block_slots(d)
    stored = to_blocks((block[:, None] == block[None, :]).astype(float), d) != 0.0
    rhs, ref = _master_rhs(scheme, d), dense_rhs(scheme, d)
    for t in (0.0, 0.7, 13.1):
        out = _from_coordinates(rhs(t, _coordinates(blocks)), d)
        expect = ref(t, rho.ravel()).reshape(rho.shape)
        assert np.abs(to_dense(out) - expect).max() <= 1e-13 * np.abs(expect).max()
        assert not np.any(out[~stored])
        assert abs(np.trace(out, axis1=1, axis2=2).sum()) <= 1e-13 * np.abs(out).max()


@pytest.mark.parametrize(("d", "size"), [(2, 6), (6, 146), (14, 1834)])
def test_coordinates_round_trip(d, size):
    """Σ_N d_N² real coordinates, which give the Hermitian stack back bit for bit."""
    _, blocks = random_hermitian_stack(d, d)
    coords = _coordinates(blocks)
    assert coords.dtype == float and coords.size == size
    assert size == sum(min(n + 1, 2 * d - 1 - n) ** 2 for n in range(2 * d - 1))
    assert np.array_equal(_from_coordinates(coords, d), blocks)


@pytest.mark.parametrize("g", [0.0, 1e-9])
@pytest.mark.parametrize("name", ["local", "global"])
def test_oracle_at_vanishing_coupling(name, g):
    """At g = 0 the eigenmodes are degenerate: every phase is 1 and the three
    phase groups act as one generator. Uncoupled, the heat stays in mode a,
    so the bath is cooler than WARM for cutoff D to certify the moments."""
    params = ModelParams(**{**WARM, "n_omega0": 0.2, "g": g})
    scheme = SchemeRunner(params, TIMES).equation(name)
    vacuum = thermal_product_state(0.0, 0.0, D)
    states = lindblad_propagate(scheme, vacuum, TIMES)
    dense = dense_propagate(scheme, to_dense(vacuum.blocks), D, TIMES)
    traj = propagate(scheme, TIMES)
    assert traj.n_plus[-1] > 0.01 and traj.n_minus[-1] > 0.01
    for i, (state, rho) in enumerate(zip(states, dense)):
        assert np.abs(to_dense(state.blocks) - rho).max() <= 1e-9
        mom = number_expectations(state)
        assert abs(mom.n_plus - traj.n_plus[i]) <= 1e-9
        assert abs(mom.n_minus - traj.n_minus[i]) <= 1e-9
        assert abs(mom.cross - traj.cross[i]) <= 1e-9


#: eigenmode occupations up to 0.1, which cutoff 8 certifies; the last is pure in one mode
SMALL = [MomentState(0.0, 0.0, 0j), MomentState(0.09, 0.05, 0j),
         MomentState(0.06, 0.03, 0.02 - 0.015j), MomentState(0.05, 0.05, 0.05)]


@pytest.mark.parametrize("d", [8, 10])
@pytest.mark.parametrize("moments", SMALL)
def test_gaussian_constructor_matches_dense(d, moments):
    state = thermal_product_state(moments.n_plus, moments.n_minus, d, moments.cross)
    rho = dense_gaussian_state(moments, d)
    assert np.abs(to_dense(state.blocks) - rho).max() <= 1e-12
    mom, ref = number_expectations(state), dense_moments(rho, d)
    assert abs(mom.n_plus - ref.n_plus) <= 1e-12 and abs(mom.cross - ref.cross) <= 1e-12
    pops = np.real(np.diag(rho)).reshape(d, d)
    edge = pops[d - 1, :].sum() + pops[:, d - 1].sum() - pops[d - 1, d - 1]
    assert boundary_population(state) == pytest.approx(edge, abs=1e-15)


def test_fidelity_matches_dense():
    d = 10
    pairs = [(SMALL[2], MomentState(0.08, 0.12, -0.03 + 0.01j)),
             (SMALL[0], MomentState(0.12, 0.06, 0j)), (SMALL[3], SMALL[2]), (SMALL[1], SMALL[1])]
    for s1, s2 in pairs:
        f = fidelity_truncated(thermal_product_state(s1.n_plus, s1.n_minus, d, s1.cross),
                               thermal_product_state(s2.n_plus, s2.n_minus, d, s2.cross))
        ref = dense_fidelity(dense_gaussian_state(s1, d), dense_gaussian_state(s2, d))
        assert abs(f - ref) <= 1e-12


def test_truncated_state_rejects_padding_and_bad_shape():
    state = thermal_product_state(0.0, 0.0, 4)
    blocks = np.array(state.blocks)
    blocks[0, 1, 1] = 1e-30  # block 0 holds one state: slot 1 is padding
    with pytest.raises(DomainError):
        TruncatedState(blocks, 4)
    with pytest.raises(DomainError):
        TruncatedState(np.eye(16) / 16, 4)


@pytest.mark.parametrize("times", [np.array([]), np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                                   np.array([0.0, np.nan]), np.array([0.0, np.inf])])
def test_propagation_rejects_bad_grid(params, times):
    # the same from-zero grid check as the moment propagator, empty grid included;
    # the non-finite grids used to leave the integrator stepping without end
    with pytest.raises(DomainError):
        lindblad_propagate(SchemeRunner(params, TIMES).equation("local"),
                           thermal_product_state(0.0, 0.0, 3), times)


def test_every_route_leaves_the_callers_grid_writable(params):
    # a Trajectory freezes its own grid, never the array the caller passed in
    scheme = SchemeRunner(params, TIMES).equation("global")
    routes = (lambda t: SchemeRunner(params, t).trajectory("global"),
              lambda t: exact_trajectory(ModelParams(**{**WARM, "M": 20}), t),
              lambda t: propagate(scheme, t),
              lambda t: lindblad_propagate(scheme, thermal_product_state(0.0, 0.0, D), t))
    for route in routes:
        t = TIMES.copy()
        route(t)
        assert t.flags.writeable
        t[1] = 0.5
    # and the runner's grid is its own, so a caller's later edit does not reach it
    runner = SchemeRunner(params, t := TIMES.copy())
    t[1] = 0.5
    assert np.array_equal(runner.times, TIMES)


def test_constructor_rejects_cross_beyond_uncertainty():
    with pytest.raises(DomainError):
        thermal_product_state(0.05, 0.05, 8, 0.06)


def test_draw_case_names_a_runnable_scheme():
    # the cg filter travels in the name: a numpy scalar there would print as
    # "np.float64(...)", which parse_scheme rejects
    kinds = set()
    for seed in range(40):
        case = draw_case(np.random.default_rng(seed))
        kind, s = parse_scheme(case.scheme)
        kinds.add(kind)
        if kind == "cg_redfield":
            bound = cp_threshold(case.params).bound
            assert 0.3 * bound <= s <= bound
        else:
            assert s is None and case.scheme in ("local", "global")
    assert kinds == {"local", "global", "cg_redfield"}


def test_default_verify_suite_passes():
    """The draws of ``oscpair verify`` at its default seed: every scheme, d = 15-17."""
    reports = run_suite(8, 20260809)
    assert {parse_scheme(r.case.scheme)[0] for r in reports} == {"local", "global",
                                                                   "cg_redfield"}
    assert {r.case.cutoff for r in reports} <= set(range(15, 18))
    for report in reports:
        assert report.passed, report
