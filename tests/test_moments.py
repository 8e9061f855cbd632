import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from oscpair import (DomainError, MomentState, SteadyStateError, Trajectory, VACUUM,
                     AffineGenerator, bose_factor, cp_threshold, dissipator_coefficients,
                     mixture_moments, propagate, spectral_density, steady_state)
from oscpair import moments
from oscpair.moments import cg_redfield_generator, local_generator
from oscpair.runner import resolve_scheme

from conftest import FIG4
from oscpair import ModelParams
from phase_space import asymptotic_gap_first_order, global_closed_form, local_closed_form


@pytest.fixture(scope="module")
def p():
    return ModelParams(**FIG4)


@pytest.fixture(scope="module")
def coeffs(p):
    return dissipator_coefficients(p)


def eigenmode_rates(params):
    """(κ(ω₊), κ(ω₋)) and (N(ω₊), N(ω₋)) from the parameters."""
    w = np.array([params.omega_plus, params.omega_minus])
    return spectral_density(w, params), bose_factor(w, params.beta)


def hand_written_cg_redfield(params, coeffs, s):
    """Entry-by-entry (A, b) of the coarse-grained Redfield moment equations."""
    g1, g2, e1, e2 = coeffs.gamma1, coeffs.gamma2, coeffs.eta1, coeffs.eta2
    (kappa_plus, kappa_minus), (n_occ_plus, n_occ_minus) = eigenmode_rates(params)
    delta_omega_plus, delta_omega_minus = (e1 + e2).diagonal().real
    p = e1[0, 1] + e2[1, 0]          # multiplies cross in the n± equations
    q = g1[0, 1] - g2[1, 0]
    r = e1[1, 0] + e2[0, 1]          # multiplies n₋−n₊ in the cross equation
    t = g1[1, 0] - g2[0, 1]
    drive = g1[1, 0]
    delta = (coeffs.omega_plus + delta_omega_plus
             - coeffs.omega_minus - delta_omega_minus)
    decay = 0.25 * (kappa_plus + kappa_minus)
    a = np.zeros((4, 4))
    a[0, 0] = -0.5 * kappa_plus
    a[0, 2] = s * (2.0 * p.imag + q.real)
    a[0, 3] = s * (2.0 * p.real - q.imag)
    a[1, 1] = -0.5 * kappa_minus
    a[1, 2] = s * (-2.0 * p.imag + q.real)
    a[1, 3] = s * (-2.0 * p.real - q.imag)
    a[2, 0] = s * (r.imag + 0.5 * t.real)
    a[2, 1] = s * (-r.imag + 0.5 * t.real)
    a[2, 2] = -decay
    a[2, 3] = -delta
    a[3, 0] = s * (-r.real + 0.5 * t.imag)
    a[3, 1] = s * (r.real + 0.5 * t.imag)
    a[3, 2] = delta
    a[3, 3] = -decay
    b = np.array([0.5 * kappa_plus * n_occ_plus,
                  0.5 * kappa_minus * n_occ_minus,
                  s * drive.real, s * drive.imag])
    return a, b


def hand_written_local(coeffs):
    """Entry-by-entry (A, b) of the local moment equations."""
    k0, n0, dwa = coeffs.kappa_omega0, coeffs.n_occ_omega0, coeffs.delta_omega_a
    two_g = coeffs.omega_plus - coeffs.omega_minus
    a = np.array([
        [-0.5 * k0, 0.0, -0.5 * k0, dwa],
        [0.0, -0.5 * k0, -0.5 * k0, -dwa],
        [-0.25 * k0, -0.25 * k0, -0.5 * k0, -two_g],
        [-0.5 * dwa, 0.5 * dwa, two_g, -0.5 * k0],
    ])
    b = np.array([0.5 * k0 * n0, 0.5 * k0 * n0, 0.5 * k0 * n0, 0.0])
    return a, b


REFERENCE_SETS = [FIG4, {**FIG4, "n_omega0": 0.01}, {**FIG4, "g": 0.04},
                  {**FIG4, "alpha": 0.5}, {**FIG4, "alpha": 2.0}]


class TestDerivedGenerator:
    """The generator derived from (u, w, h) against the hand-written entries."""

    @staticmethod
    def assert_same(gen, ref):
        a_ref, b_ref = ref
        assert np.abs(gen.a - a_ref).max() <= 1e-14 * np.abs(a_ref).max()
        assert np.abs(gen.b - b_ref).max() <= 1e-14 * np.abs(b_ref).max()

    @pytest.mark.parametrize("fields", REFERENCE_SETS)
    @pytest.mark.parametrize("lamb_shift", [True, False])
    def test_matches_hand_written_entries(self, fields, lamb_shift):
        params = ModelParams(**fields)
        coeffs = dissipator_coefficients(params, lamb_shift=lamb_shift)
        for s in (0.0, 0.3, 1.0):
            self.assert_same(cg_redfield_generator(coeffs, s),
                             hand_written_cg_redfield(params, coeffs, s))
        self.assert_same(local_generator(coeffs), hand_written_local(coeffs))


class TestGeneratorStructure:
    def test_global_block_decouples(self, p, coeffs):
        gen = cg_redfield_generator(coeffs, 0.0)
        kappa, _ = eigenmode_rates(p)
        # n± relax independently at kappa(omega±)/2 toward N(omega±)
        assert gen.a[0, 0] == pytest.approx(-0.5 * kappa[0])
        assert gen.a[1, 1] == pytest.approx(-0.5 * kappa[1])
        assert np.all(gen.a[:2, 2:] == 0) and np.all(gen.a[2:, :2] == 0)
        assert gen.b[2] == 0 and gen.b[3] == 0

    def test_global_fixed_point_annihilates(self, p, coeffs):
        gen = cg_redfield_generator(coeffs, 0.0)
        _, occ = eigenmode_rates(p)
        x = np.array([occ[0], occ[1], 0.0, 0.0])
        assert np.abs(gen.a @ x + gen.b).max() < 1e-14

    def test_redfield_couples_everything(self, coeffs):
        gen = cg_redfield_generator(coeffs, 1.0)
        assert np.abs(gen.a[:2, 2:]).max() > 0
        assert np.abs(gen.a[2:, :2]).max() > 0

    def test_relaxation_rates_stable_inside_bound(self, p, coeffs):
        bound = cp_threshold(p).bound
        for s in (0.0, 0.3, 0.7 * bound, bound):
            gen = cg_redfield_generator(coeffs, s)
            assert np.linalg.eigvals(gen.a).real.max() <= 1e-14
        gen_loc = local_generator(coeffs)
        assert np.linalg.eigvals(gen_loc.a).real.max() <= 1e-14


class TestPropagate:
    def test_steady_init_stays_constant(self, coeffs):
        gen = cg_redfield_generator(coeffs, 0.0)
        ss = steady_state(gen)
        traj = propagate(gen, ss, np.linspace(0, 100, 11))
        assert np.abs(traj.n_plus - ss.n_plus).max() < 1e-10
        assert np.abs(traj.cross).max() < 1e-12

    def test_global_matches_closed_form(self, p, coeffs):
        times = np.linspace(0.0, 300.0, 601)
        traj = propagate(cg_redfield_generator(coeffs, 0.0), VACUUM, times)
        ref = global_closed_form(p, times)
        assert np.abs(traj.n_plus - ref.n_plus).max() < 1e-10
        assert np.abs(traj.n_minus - ref.n_minus).max() < 1e-10
        assert np.abs(traj.cross).max() < 1e-12

    def test_against_runge_kutta_oracle(self, p, coeffs):
        gen = cg_redfield_generator(coeffs, cp_threshold(p).bound)
        times = np.linspace(0.0, 300.0, 241)
        traj = propagate(gen, VACUUM, times)
        sol = solve_ivp(lambda t, x: gen.a @ x + gen.b, (0.0, 300.0), np.zeros(4),
                        t_eval=times, method="DOP853", rtol=1e-10, atol=1e-12)
        stacked = np.column_stack([traj.n_plus, traj.n_minus,
                                   traj.cross.real, traj.cross.imag])
        assert np.abs(stacked - sol.y.T).max() <= 1e-8

    def test_grid_contract(self, coeffs):
        gen = cg_redfield_generator(coeffs, 0.0)
        with pytest.raises(DomainError):
            propagate(gen, VACUUM, np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            propagate(gen, VACUUM, np.array([0.0, 2.0, 2.0]))

    @pytest.mark.parametrize("fields", REFERENCE_SETS[:4])
    @pytest.mark.parametrize("name", ["redfield", "cp_redfield", "global", "local",
                                      "cg_redfield:0.3"])
    def test_eigen_branch_matches_augmented_exponential(self, monkeypatch, fields, name):
        gen = resolve_scheme(name, dissipator_coefficients(ModelParams(**fields))).generator()
        times = np.linspace(0.0, 300.0, 61)

        def no_fallback(_):
            raise AssertionError("propagate left the eigen branch")

        monkeypatch.setattr(moments, "expm", no_fallback)
        traj = propagate(gen, VACUUM, times)
        got = np.column_stack([traj.n_plus, traj.n_minus, traj.cross.real, traj.cross.imag])
        # x(t) from the exponential of the augmented generator [[A, b], [0, 0]]
        aug = np.zeros((5, 5))
        aug[:4, :4] = gen.a
        aug[:4, 4] = gen.b
        y0 = np.append(VACUUM.as_vector(), 1.0)
        ref = np.array([(expm(aug * t) @ y0)[:4] for t in times])
        assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())

    def test_expm_fallback_on_singular_generator(self):
        gen = AffineGenerator(np.zeros((4, 4)), np.array([1.0, 0.0, 0.0, 0.0]))
        traj = propagate(gen, VACUUM, np.array([0.0, 2.0, 5.0]))
        assert traj.n_plus == pytest.approx([0.0, 2.0, 5.0])  # x(t) = b t exactly


class TestSteadyStates:
    def test_global(self, p, coeffs):
        ss = steady_state(cg_redfield_generator(coeffs, 0.0))
        _, occ = eigenmode_rates(p)
        assert ss.n_plus == pytest.approx(occ[0], rel=1e-12)
        assert ss.n_minus == pytest.approx(occ[1], rel=1e-12)
        assert abs(ss.cross) < 1e-15

    def test_local_thermalizes_both_modes_at_omega0(self, coeffs):
        ss = steady_state(local_generator(coeffs))
        assert ss.n_plus == pytest.approx(coeffs.n_occ_omega0, rel=1e-12)
        assert ss.n_minus == pytest.approx(coeffs.n_occ_omega0, rel=1e-12)
        assert abs(ss.cross) < 1e-14

    def test_singular_raises(self):
        gen = AffineGenerator(np.zeros((4, 4)), np.ones(4))
        with pytest.raises(SteadyStateError):
            steady_state(gen)

    def test_cp_redfield_keeps_finite_gap(self, p, coeffs):
        bound = cp_threshold(p).bound
        ss = steady_state(cg_redfield_generator(coeffs, bound))
        gap = 2.0 * ss.cross.real
        assert gap == pytest.approx(asymptotic_gap_first_order(bound, p), rel=0.10)


class TestLocalClosedForm:
    def test_oscillation_rate_value(self, p):
        eps = math.sqrt((4 * p.g) ** 2 - p.kappa0**2)
        assert eps == pytest.approx(1.19933, abs=1e-5)

    def test_matches_generator_without_lamb_shift(self, p):
        coeffs_off = dissipator_coefficients(p, lamb_shift=False)
        times = np.linspace(0.0, 300.0, 1201)
        traj = propagate(local_generator(coeffs_off),
                         VACUUM, times)
        ref = local_closed_form(coeffs_off, times)
        assert np.abs(traj.n_plus - ref.n_plus).max() < 1e-8
        assert np.abs(traj.n_minus - ref.n_minus).max() < 1e-8
        assert np.abs(traj.cross - ref.cross).max() < 1e-8

    def test_no_lamb_shift_means_no_mode_splitting(self, p):
        coeffs_off = dissipator_coefficients(p, lamb_shift=False)
        times = np.linspace(0.0, 100.0, 401)
        traj = propagate(local_generator(coeffs_off),
                         VACUUM, times)
        # n+ = n- identically, i.e. Re<ab†> = 0 and <H_S,g> = 0
        assert np.abs(traj.n_plus - traj.n_minus).max() < 1e-12

    def test_lamb_shift_splits_modes_weakly(self, p, coeffs):
        times = np.linspace(0.0, 100.0, 401)
        traj = propagate(local_generator(coeffs),
                         VACUUM, times)
        split = np.abs(traj.n_plus - traj.n_minus).max()
        scale = abs(coeffs.delta_omega_a) / p.g * coeffs.n_occ_omega0
        assert 0.0 < split < 5.0 * scale

    def test_overdamped_regime_rejected(self):
        p_over = ModelParams(n_omega0=1.0, g=0.01, kappa0=0.1, omega_c=3.0,
                             alpha=1.0, M=10)
        with pytest.raises(DomainError):
            local_closed_form(dissipator_coefficients(p_over, lamb_shift=False),
                              np.linspace(0, 10, 11))


class TestGlobalSchemeProperties:
    def test_no_rabi_imaginary_part(self, coeffs):
        times = np.linspace(0.0, 50.0, 201)
        traj = propagate(cg_redfield_generator(coeffs, 0.0), VACUUM, times)
        assert np.abs(traj.cross.imag).max() == 0.0


class TestAsymptoticGap:
    def test_zero_for_global(self, p):
        assert asymptotic_gap_first_order(0.0, p) == 0.0

    def test_linear_in_filter(self, p):
        full = asymptotic_gap_first_order(1.0, p)
        assert asymptotic_gap_first_order(0.5, p) == pytest.approx(0.5 * full, rel=1e-12)

    def test_direct_quadrature_route_agrees(self, p):
        # the subtracted integrand is regular at both poles; integrate it directly
        wp, wm = p.omega_plus, p.omega_minus
        occ_p = 1.0 / math.expm1(p.beta * wp)
        occ_m = 1.0 / math.expm1(p.beta * wm)

        def d_occ(w):
            e = math.exp(p.beta * w)
            return -p.beta * e / (e - 1.0) ** 2

        def integrand(e):
            n = 1.0 / math.expm1(p.beta * e)
            t1 = (n - occ_p) / (e - wp) if abs(e - wp) > 1e-7 else d_occ(wp)
            t2 = (n - occ_m) / (e - wm) if abs(e - wm) > 1e-7 else d_occ(wm)
            return p.kappa0 * (e / p.omega0) / (2 * math.pi) * (t1 - t2)

        direct, _ = quad(integrand, 0.0, p.omega_c, points=[wp, wm],
                         limit=400, epsabs=1e-13)
        direct /= (wp - wm)
        assert asymptotic_gap_first_order(1.0, p) == pytest.approx(direct, abs=1e-9)


class TestMixture:
    def test_endpoints(self, p, coeffs):
        times = np.linspace(0.0, 400.0, 801)
        loc = propagate(local_generator(coeffs), VACUUM, times)
        glo = propagate(cg_redfield_generator(coeffs, 0.0), VACUUM, times)
        mix = mixture_moments(loc, glo, p.mixture_rate)
        assert mix.n_plus[0] == loc.n_plus[0]
        assert mix.cross[0] == loc.cross[0]
        # far beyond 1/G the mixture hugs the global branch
        tail = np.exp(-p.mixture_rate * times[-1])
        assert abs(mix.n_minus[-1] - glo.n_minus[-1]) <= tail * abs(
            loc.n_minus[-1] - glo.n_minus[-1]) + 1e-12

    def test_default_rate_configuration(self, p):
        assert p.mixture_rate == pytest.approx(0.4 * p.kappa0)

    def test_grid_mismatch(self, coeffs):
        t1 = np.linspace(0.0, 10.0, 11)
        t2 = np.linspace(0.0, 10.0, 21)
        loc = propagate(local_generator(coeffs), VACUUM, t1)
        glo = propagate(cg_redfield_generator(coeffs, 0.0), VACUUM, t2)
        with pytest.raises(DomainError):
            mixture_moments(loc, glo, 0.016)


class TestTrajectoryType:
    def test_validation(self):
        with pytest.raises(DomainError):
            Trajectory(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2),
                       np.zeros(2, dtype=complex))

    def test_state_round_trip(self):
        st = MomentState(1.0, 2.0, 0.5 + 0.25j)
        assert MomentState.from_vector(st.as_vector()) == st
