import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st_

from oscpair import (ConsistencyError, DomainError, MomentState, NonPhysicalStateError,
                     VACUUM, cp_threshold, dissipator_coefficients,
                     fidelity_truncated, from_ab_basis, gaussian_fidelity,
                     gaussian_fidelity_sq, lambda_c_trajectory,
                     mixture_fidelity_lower_bound, propagate,
                     thermal_product_state, to_ab_basis)
from oscpair.gaussian import eigenmode_covariance
from oscpair.moments import cg_redfield_generator

from conftest import FIG4
from oscpair import ModelParams
from phase_space import VCAL, XI, lambda_c_short_time_slope


def random_physical_state(rng, n_max=3.0):
    n1 = rng.uniform(0.0, n_max)
    n2 = rng.uniform(0.0, n_max)
    # |cross|^2 <= n1*n2 keeps the mode matrix positive semidefinite
    mag = math.sqrt(n1 * n2) * rng.uniform(0.0, 0.95)
    phase = rng.uniform(0, 2 * np.pi)
    return MomentState(n1, n2, mag * np.exp(1j * phase))


class Reference(NamedTuple):
    f2: complex      # unclamped principal-branch value
    physical: bool   # the flag, decided as gaussian_fidelity_sq decides it
    slack: float     # how far roundoff of the determinants may move Re f2
    decided: bool    # the flag's inputs clear 0, so it does not hinge on roundoff


def reference_fidelity_sq(state1, state2) -> Reference:
    """F² from the 4×4 determinants of Marian & Marian, PRA 86, 022340 (2012):
    a = 2⁻⁴ det(Γ₁+Γ₂), b = 2⁻⁴ det(ΞΓ₁ΞΓ₂ − 1), c = 2⁻⁴ det(Γ₁+iΞ) det(Γ₂+iΞ),
    F² = (√b + √c + sqrt((√b+√c)² − a))/a on the principal branch.

    Each input must also pass min eig(Γ + iΞ) ≥ −1e−8 max(1, |Γ|), the
    uncertainty relation, for the pair to count as physical.

    Independent of the 2×2 closed form in ``gaussian_fidelity_sq``. An error
    δ of the determinants moves sqrt(inner), inner = (√b+√c)² − a, by up to
    sqrt(|inner| + δ) − sqrt(|inner|): that is √δ where inner vanishes,
    between pure states, and the reference is then the less accurate route.
    """
    m1, m2 = eigenmode_covariance(state1), eigenmode_covariance(state2)
    # Γ + iΞ is singular for pure states, and Γ₁ + Γ₂ can be for non-physical ones
    with np.errstate(all="ignore"):
        a = np.linalg.det(m1 + m2) / 16.0
        b = np.linalg.det(XI @ m1 @ XI @ m2 - np.eye(4)) / 16.0
        c = np.linalg.det(m1 + 1j * XI) * np.linalg.det(m2 + 1j * XI) / 16.0
        scale = max(1.0, np.abs(a), np.abs(b), np.abs(c))
        tol = 1e-10 * scale
        physical = (abs(a.imag) < tol and abs(b.imag) < tol and abs(c.imag) < tol
                    and b.real > -tol and c.real > -tol)
        inner = (b - a) + c + 2.0 * np.sqrt(complex(b) * complex(c))
        physical = physical and inner.real > -tol
        f2 = (np.sqrt(complex(b)) + np.sqrt(complex(c)) + np.sqrt(inner)) / a
        physical = physical and abs(f2.imag) < 1e-8 * max(1.0, np.abs(f2))
        physical = physical and all(
            np.linalg.eigvalsh(m + 1j * XI).min() >= -1e-8 * max(1.0, np.abs(m).max())
            for m in (m1, m2))
        delta = 1e-14 * scale
        slack = (1e-12 * max(1.0, np.abs(f2))
                 + (np.sqrt(np.abs(inner) + delta) - np.sqrt(np.abs(inner))) / np.abs(a))
        decided = min(np.abs(c), np.abs(inner)) > 1e-6 * scale
    return Reference(f2, bool(physical), slack, decided)


def _state(n1, n2, ratio, phase):
    """Moments with |⟨γ₋γ₊†⟩| = ratio·sqrt(n₊n₋); physical iff ratio ≤ 1."""
    return MomentState(n1, n2, ratio * math.sqrt(n1 * n2) * complex(math.cos(phase),
                                                                     math.sin(phase)))


def _excess_state(n1, n2, excess, phase):
    """|⟨γ₋γ₊†⟩| = sqrt(1.2 n₊n₋) + excess: outside the uncertainty relation."""
    return MomentState(n1, n2, (math.sqrt(1.2 * n1 * n2) + excess)
                       * complex(math.cos(phase), math.sin(phase)))


_occupation = st_.floats(0.0, 20.0)
_phase = st_.floats(0.0, 2 * math.pi)
physical_states = st_.builds(_state, _occupation, _occupation, st_.floats(0.0, 0.999), _phase)
nonphysical_states = st_.builds(_excess_state, st_.floats(0.0, 5.0), st_.floats(0.0, 5.0),
                                st_.floats(0.1, 3.0), _phase)
any_states = st_.one_of(physical_states, nonphysical_states)


def _thermal_fidelity_sq(n, m):
    """F² of single-mode thermal states with occupations n and m."""
    return 1.0 / (math.sqrt((n + 1.0) * (m + 1.0)) - math.sqrt(n * m)) ** 2


class TestEigenmodeCovariance:
    def test_vacuum_identity(self):
        assert np.array_equal(eigenmode_covariance(VACUUM), np.eye(4))

    def test_symmetric_thermal(self):
        g = eigenmode_covariance(MomentState(2.0, 2.0, 0j))
        assert np.array_equal(g, 5.0 * np.eye(4))

    def test_hermitian_with_complex_cross(self):
        g = eigenmode_covariance(MomentState(1.0, 0.5, 0.3 + 0.1j))
        assert np.abs(g - g.conj().T).max() == 0.0

    def test_quadrature_rotation_is_unitary(self):
        assert np.abs(VCAL @ VCAL.conj().T - np.eye(4)).max() < 1e-15


class TestLambdaC:
    def test_vacuum_saturates(self):
        assert lambda_c_trajectory(VACUUM) == 0.0

    def test_balanced_thermal(self):
        assert lambda_c_trajectory(MomentState(2.0, 2.0, 0j)) == pytest.approx(2.0, rel=1e-14)

    def test_closed_form_equals_eigenvalue_route(self, rng):
        for _ in range(10_000):
            n1, n2 = rng.uniform(0, 20, 2)
            c = rng.uniform(-10, 10) + 1j * rng.uniform(-10, 10)
            st = MomentState(n1, n2, c)
            closed = 0.5 * (n1 + n2 - math.hypot(n1 - n2, 2 * abs(c)))
            gam = eigenmode_covariance(st)
            eig = 0.5 * np.linalg.eigvalsh(gam + 1j * XI).min()
            assert abs(closed - eig) <= 1e-10 * max(1.0, n1 + n2 + abs(c))
            assert abs(lambda_c_trajectory(st) - eig) <= 1e-10 * max(1.0, n1 + n2 + abs(c))

    def test_redfield_goes_negative(self, fig4_runner):
        traj = fig4_runner.trajectory("redfield", np.linspace(0.0, 5.0, 2001))
        assert lambda_c_trajectory(traj).min() < -1e-6


class TestCpBoundKeepsStatesPhysical:
    """λ_c ≥ 0 along CG-Redfield trajectories whenever |s| ≤ the CP bound."""

    #: vacuum start; dense early, where a non-positive generator first shows
    TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 400.0, 400)])

    def worst_lambda_c(self, coeffs, s):
        traj = propagate(cg_redfield_generator(coeffs, s), VACUUM, self.TIMES)
        scale = 1.0 + max(traj.n_plus.max(), traj.n_minus.max())
        return lambda_c_trajectory(traj).min() / scale

    def test_random_parameters_inside_bound(self):
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            p = ModelParams(g=rng.uniform(0.005, 0.6), kappa0=rng.uniform(0.005, 0.2),
                            alpha=rng.uniform(0.1, 2.0), omega_c=3.0, M=400,
                            n_omega0=float(np.exp(rng.uniform(np.log(1e-3), np.log(30.0)))))
            lamb_shift = bool(rng.integers(2))
            coeffs = dissipator_coefficients(p, lamb_shift=lamb_shift)
            bound = cp_threshold(p, lamb_shift=lamb_shift).bound
            for s in (rng.uniform(-bound, bound), bound, -bound):
                assert self.worst_lambda_c(coeffs, s) >= -1e-12

    def test_plain_redfield_fails_the_same_check(self, coeffs):
        # negative control: fig4's bound is 0.989, so s = 1 lies outside it
        assert self.worst_lambda_c(coeffs, 1.0) < -1e-6


@pytest.fixture(scope="module")
def coeffs():
    return dissipator_coefficients(ModelParams(**FIG4))


class TestShortTimeSlope:

    def test_zero_at_first_block_bound(self, coeffs):
        gpp = coeffs.gamma1[0, 0].real
        gmm = coeffs.gamma1[1, 1].real
        s_star = math.sqrt(gpp * gmm) / abs(coeffs.gamma1[0, 1])
        assert lambda_c_short_time_slope(s_star, coeffs) == pytest.approx(0.0, abs=1e-15)

    def test_matches_bracketed_expansion(self, coeffs):
        # same quantity written as the prefactor*(1 - sqrt(1 + 4(s^2-B)|g|^2/sum^2))
        gpp = coeffs.gamma1[0, 0].real
        gmm = coeffs.gamma1[1, 1].real
        gpm2 = abs(coeffs.gamma1[0, 1]) ** 2
        for s in (0.0, 0.3, 0.7, 1.0):
            bracket = 0.5 * (gpp + gmm) * (1.0 - math.sqrt(
                1.0 + 4.0 * (s**2 - gpp * gmm / gpm2) * gpm2 / (gpp + gmm) ** 2))
            assert lambda_c_short_time_slope(s, coeffs) == pytest.approx(bracket, rel=1e-12)

    def test_sign_follows_positivity_condition(self, coeffs):
        gpp = coeffs.gamma1[0, 0].real
        gmm = coeffs.gamma1[1, 1].real
        s_star = math.sqrt(gpp * gmm) / abs(coeffs.gamma1[0, 1])
        assert lambda_c_short_time_slope(0.999 * s_star, coeffs) > 0
        assert lambda_c_short_time_slope(1.001 * s_star, coeffs) < 0

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_finite_difference_agreement(self, coeffs, s):
        gen = cg_redfield_generator(coeffs, s)
        h = 1e-4
        traj = propagate(gen, VACUUM, np.array([0.0, h]))
        fd = lambda_c_trajectory(traj.state(1)) / h
        analytic = lambda_c_short_time_slope(s, coeffs)
        assert fd == pytest.approx(analytic, rel=0.01)


class TestGaussianFidelity:
    def test_identical_states(self, rng):
        for _ in range(20):
            st = random_physical_state(rng)
            assert gaussian_fidelity(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_thermal_closed_form(self):
        for n1, n2 in ((0.5, 0.2), (2.0, 1.0), (4.0, 3.0)):
            f2 = gaussian_fidelity(VACUUM, MomentState(n1, n2, 0j)) ** 2
            assert f2 == pytest.approx(1.0 / ((n1 + 1) * (n2 + 1)), abs=1e-6)

    def test_vacuum_vs_thermal_against_fock_oracle(self):
        d = 40
        n1, n2 = 0.8, 0.5
        f_gauss = gaussian_fidelity(VACUUM, MomentState(n1, n2, 0j))
        f_fock = fidelity_truncated(thermal_product_state(0.0, 0.0, d),
                                    thermal_product_state(n1, n2, d))
        assert f_gauss**2 == pytest.approx(f_fock**2, abs=1e-6)

    def test_symmetry(self, rng):
        for _ in range(30):
            s1 = random_physical_state(rng)
            s2 = random_physical_state(rng)
            assert gaussian_fidelity(s1, s2) == pytest.approx(
                gaussian_fidelity(s2, s1), abs=1e-12)

    def test_random_pairs_against_fock_oracle(self, rng):
        # n± <= 1.4 with |cross| <= 0.95 sqrt(n₊n₋) puts the eigenmode occupations
        # up to 2.73, which cutoff 62 certifies under the 1e-8 tail rule
        d = 62
        for _ in range(2):
            s1 = random_physical_state(rng, n_max=1.4)
            s2 = random_physical_state(rng, n_max=1.4)
            f_fock = fidelity_truncated(thermal_product_state(s1.n_plus, s1.n_minus, d, s1.cross),
                                        thermal_product_state(s2.n_plus, s2.n_minus, d, s2.cross))
            f_gauss = gaussian_fidelity(s1, s2)
            assert abs(f_fock**2 - f_gauss**2) <= 1e-4

    def test_quadratic_approach_to_unity(self):
        base = MomentState(1.0, 0.4, 0.2 + 0.1j)
        eps_values = np.array([2e-2, 1e-2, 5e-3])
        defects = []
        for eps in eps_values:
            pert = MomentState(base.n_plus + eps, base.n_minus - 0.5 * eps,
                               base.cross + 0.3 * eps)
            defects.append(1.0 - gaussian_fidelity(base, pert))
        defects = np.array(defects)
        assert np.all(defects > 0)
        ratios = defects[:-1] / defects[1:]
        assert np.all((ratios > 3.0) & (ratios < 5.0))  # 1-F = O(eps^2)

    def test_nonphysical_input_is_flagged(self):
        bad = MomentState(0.001, 0.001, 0.5)
        good = MomentState(1.0, 1.0, 0j)
        with pytest.raises(NonPhysicalStateError):
            gaussian_fidelity(bad, good)
        f2, physical = gaussian_fidelity_sq(bad, good)
        assert not physical
        assert np.isfinite(f2)

    def test_trajectory_against_reference(self, fig4_runner):
        # the route of the fidelity subcommand: whole trajectories in, one call
        times = np.linspace(0.0, 300.0, 61)
        ref = fig4_runner.trajectory("exact", times)
        for scheme in ("redfield", "cp_redfield", "local"):
            traj = fig4_runner.trajectory(scheme, times)
            vals, physical = gaussian_fidelity_sq(traj, ref)
            for i in range(times.size):
                want = reference_fidelity_sq(traj.state(i), ref.state(i))
                assert physical[i] == want.physical
                value = min(want.f2.real, 1.0) if want.physical else want.f2.real
                assert abs(vals[i] - value) <= want.slack
            if scheme != "redfield":
                assert physical.all()
                assert np.array_equal(gaussian_fidelity(traj, ref), np.sqrt(vals))


_PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


class TestFidelityProperties:
    """Closed form against the 4×4 determinant reference on generated states."""

    @_PROPERTY
    @given(physical_states, physical_states)
    def test_physical_pairs_match_reference(self, s1, s2):
        f2, physical = gaussian_fidelity_sq(s1, s2)
        ref = reference_fidelity_sq(s1, s2)
        assert physical
        assert ref.physical or not ref.decided
        assert abs(f2 - min(ref.f2.real, 1.0)) <= ref.slack
        assert 0.0 <= f2 <= 1.0
        assert gaussian_fidelity_sq(s2, s1) == (f2, True)

    @_PROPERTY
    @given(_occupation, _occupation, _occupation, _occupation)
    def test_product_states_match_single_mode_formula(self, n1, n2, m1, m2):
        # exact also between pure states, where the 4x4 reference loses digits
        f2, physical = gaussian_fidelity_sq(MomentState(n1, n2, 0j), MomentState(m1, m2, 0j))
        want = _thermal_fidelity_sq(n1, m1) * _thermal_fidelity_sq(n2, m2)
        assert physical
        assert f2 == pytest.approx(min(want, 1.0), rel=1e-14)

    @_PROPERTY
    @given(physical_states)
    def test_identical_states_give_one(self, st):
        f2, physical = gaussian_fidelity_sq(st, st)
        assert physical
        assert 1.0 - 8 * np.finfo(float).eps <= f2 <= 1.0

    @_PROPERTY
    @given(nonphysical_states, any_states)
    def test_nonphysical_pairs_match_reference(self, s1, s2):
        ref = reference_fidelity_sq(s1, s2)
        assume(ref.decided)
        if ref.physical and ref.f2.real > 1.0 + 1e-9:
            with pytest.raises(ConsistencyError):
                gaussian_fidelity_sq(s1, s2)
            return
        f2, physical = gaussian_fidelity_sq(s1, s2)
        assert physical == ref.physical
        assert abs(f2 - (min(ref.f2.real, 1.0) if ref.physical else ref.f2.real)) <= ref.slack

    @_PROPERTY
    @given(_occupation, _occupation, _phase, nonphysical_states)
    def test_pure_against_nonphysical_is_flagged(self, n1, n2, phase, bad):
        # |cross|² = n₊n₋ makes the state pure: D(−1) = 0 and so c = 0; the
        # reference is undecided there, so only the flags are compared
        pure = _state(n1, n2, 1.0, phase)
        for pair in ((pure, bad), (bad, pure)):
            f2, physical = gaussian_fidelity_sq(*pair)
            assert not physical and np.isfinite(f2)
            assert not reference_fidelity_sq(*pair).physical

    def test_vacuum_against_nonphysical_cross(self):
        f2, physical = gaussian_fidelity_sq(VACUUM, MomentState(0.0, 0.0, 1.12))
        assert not physical
        assert f2 == pytest.approx(3.93, abs=5e-3)  # unclamped, no ConsistencyError

    @settings(_PROPERTY, max_examples=100)
    @given(st_.lists(st_.tuples(any_states, any_states), min_size=1, max_size=8))
    def test_arrays_match_scalars_pointwise(self, pairs):
        def stack(states):
            return MomentState(np.array([s.n_plus for s in states]),
                               np.array([s.n_minus for s in states]),
                               np.array([s.cross for s in states]))

        # det(Γ₁+Γ₂) = 0 makes F² infinite; keep clear of it
        assume(all(np.abs(reference_fidelity_sq(s1, other).f2) < 1e6
                   for s1, s2 in pairs for other in (s2, pairs[0][1])))
        first = stack([p[0] for p in pairs])
        vals, physical = gaussian_fidelity_sq(first, stack([p[1] for p in pairs]))
        against_one, _ = gaussian_fidelity_sq(first, pairs[0][1])
        for i, (s1, s2) in enumerate(pairs):
            assert (vals[i], physical[i]) == gaussian_fidelity_sq(s1, s2)
            assert against_one[i] == gaussian_fidelity_sq(s1, pairs[0][1])[0]


class TestMixtureBound:
    def test_endpoints(self):
        assert mixture_fidelity_lower_bound(0.7, 0.9, 0.016, 0.0) == pytest.approx(0.7)
        assert mixture_fidelity_lower_bound(0.7, 0.9, 0.016, 1e6) == pytest.approx(0.9)

    def test_stays_in_unit_interval(self, rng):
        t = rng.uniform(0, 300, 100)
        vals = mixture_fidelity_lower_bound(0.6, 0.8, 0.016, t)
        assert np.all((vals >= 0.6 - 1e-15) & (vals <= 1.0))
        assert np.all(vals >= min(0.6, 0.8) - 1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            mixture_fidelity_lower_bound(1.5, 0.5, 0.016, 1.0)


class TestBasisChange:
    def test_symmetric_state(self):
        ab = to_ab_basis(MomentState(2.0, 2.0, 0j))
        assert ab.aa == 2.0 and ab.bb == 2.0 and ab.ab_dag == 0j

    def test_local_steady_state(self):
        ab = to_ab_basis(MomentState(10.0, 10.0, 0j))
        assert ab.aa == ab.bb == 10.0
        assert ab.ab_dag == 0j

    def test_round_trip_exact(self, rng):
        for _ in range(200):
            st = MomentState(rng.uniform(0, 5), rng.uniform(0, 5),
                             complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            ab = to_ab_basis(st)
            back = from_ab_basis(ab.aa, ab.bb, ab.ab_dag)
            assert back.n_plus == pytest.approx(st.n_plus, abs=1e-15)
            assert back.n_minus == pytest.approx(st.n_minus, abs=1e-15)
            assert back.cross == pytest.approx(st.cross, abs=1e-15)

    @_PROPERTY
    @given(_occupation, _occupation, st_.floats(-10.0, 10.0), st_.floats(-10.0, 10.0))
    def test_round_trip_property(self, n1, n2, re_c, im_c):
        st = MomentState(n1, n2, complex(re_c, im_c))
        ab = to_ab_basis(st)
        back = from_ab_basis(ab.aa, ab.bb, ab.ab_dag)
        tol = 4 * np.finfo(float).eps * max(1.0, n1 + n2 + abs(st.cross))
        assert abs(back.n_plus - n1) <= tol and abs(back.n_minus - n2) <= tol
        assert abs(back.cross - st.cross) <= tol

    def test_identities(self, rng):
        st = MomentState(1.3, 0.4, 0.2 - 0.7j)
        ab = to_ab_basis(st)
        assert 0.5 * (ab.aa - ab.bb) == pytest.approx(st.cross.real)
        assert ab.ab_dag.imag == pytest.approx(st.cross.imag)
        assert ab.ab_dag.real == pytest.approx(0.5 * (st.n_plus - st.n_minus))
        assert ab.aa + ab.bb == pytest.approx(st.n_plus + st.n_minus)
