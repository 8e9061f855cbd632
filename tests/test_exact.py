import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from oscpair import ConsistencyError, ModelParams, exact_trajectory
from oscpair.exact import build_full_model
from oscpair.gaussian import eigenmode_covariance
from oscpair.moments import MomentState

from conftest import FIG4
from phase_space import (VCAL, energy_components, initial_covariance,
                         physicality_min_eigenvalue, propagate_exact, propagator,
                         symplectic_spectrum, system_moments)


def params(**over):
    base = dict(FIG4)
    base.update(over)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def model():
    return build_full_model(params())


class TestBuild:
    def test_decoupled_limit_spectrum(self):
        # vanishing bath coupling: eigenvalues are ±omega0 (x2) and ±omega_k
        p = params(g=0.0, kappa0=1e-30, M=6)
        m = build_full_model(p)
        omega_k = np.arange(1, 7) / 6.0 * p.omega_c
        expected = np.sort(np.concatenate([[-1.0, -1.0, 1.0, 1.0],
                                           omega_k, -omega_k]))
        assert np.abs(np.sort(m.eigenvalues) - expected).max() < 1e-10

    def test_eigenmode_splitting(self):
        p = params(kappa0=1e-30, M=6)
        m = build_full_model(p)
        ev = np.sort(m.eigenvalues)
        for w in (p.omega_plus, p.omega_minus):
            assert np.abs(ev - w).min() < 1e-10
            assert np.abs(ev + w).min() < 1e-10

    def test_headline_spectrum_real_and_paired(self, model):
        ev = model.eigenvalues
        assert ev.shape == (804,)
        assert np.isrealobj(ev)
        assert np.abs(np.sort(ev) + np.sort(-ev)[::-1]).max() < 1e-10

    def test_eigenvectors_unitary_and_diagonalizing(self, model):
        v = model.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(model.size)).max() < 1e-12
        big_m = 1j * model.omega @ model.hmat
        diag = v.conj().T @ big_m @ v
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() < 1e-10
        assert np.abs(np.diag(diag).imag).max() < 1e-10

    def test_propagator_symplectic(self, model):
        for t in (0.7, 13.4):
            s = propagator(model, t).real
            defect = s @ model.omega @ s.T - model.omega
            assert np.abs(defect).max() < 1e-10

    def test_first_moments_stay_zero_and_propagator_exact(self):
        p = params(M=4)
        m = build_full_model(p)
        # e^{Omega H t} applied to zero stays zero; on a random vector it
        # agrees with a dense matrix exponential
        t = 2.3
        s = propagator(m, t).real
        assert np.abs(s @ np.zeros(m.size)).max() == 0.0
        ref = expm(m.omega @ m.hmat * t)
        assert np.abs(s - ref).max() < 1e-10


class TestInitialCovariance:
    def test_zero_temperature_is_identity(self):
        p = params(n_omega0=None, beta=1e4, M=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sig = initial_covariance(p)
        assert np.abs(sig.sigma - np.eye(2 * 8 + 4)).max() < 1e-12

    def test_bath_block_traces(self):
        p = params(M=8)
        sig = initial_covariance(p)
        from oscpair import bath_modes, bose_factor
        omega_k, _ = bath_modes(p)
        for k in range(8):
            block = sig.sigma[4 + 2 * k:6 + 2 * k, 4 + 2 * k:6 + 2 * k]
            assert np.trace(block) == pytest.approx(
                2 * (2 * bose_factor(omega_k[k], p.beta) + 1), rel=1e-12)

    def test_vacuum_blocks_saturate_uncertainty(self):
        p = params(M=8)
        m = build_full_model(p)
        sig = initial_covariance(p)
        assert physicality_min_eigenvalue(sig, m.omega) >= -1e-10
        assert physicality_min_eigenvalue(sig, m.omega) <= 1e-10


class TestPropagation:
    def test_time_zero_identity(self, model):
        sig0 = initial_covariance(model.params)
        sig = propagate_exact(model, sig0, 0.0)
        assert np.abs(sig.sigma - sig0.sigma).max() < 1e-12

    def test_symplectic_spectrum_conserved(self, model):
        sig0 = initial_covariance(model.params)
        nu0 = symplectic_spectrum(sig0, model.omega)
        sig_t = propagate_exact(model, sig0, 37.0)
        nu_t = symplectic_spectrum(sig_t, model.omega)
        assert np.abs(nu_t - nu0).max() < 1e-8

    def test_state_stays_physical(self, model):
        sig0 = initial_covariance(model.params)
        for t in (1.0, 50.0, 211.0):
            sig = propagate_exact(model, sig0, t)
            assert physicality_min_eigenvalue(sig, model.omega) >= -1e-10


class TestSystemMoments:
    def test_vacuum(self, model):
        st = system_moments(np.eye(4))
        assert st.n_plus == 0 and st.n_minus == 0 and st.cross == 0
        # the exact trajectory starts from that vacuum state, without roundoff
        traj = exact_trajectory(model.params, [0.0, 5.0]).trajectory
        st0 = system_moments(initial_covariance(model.params))
        assert (traj.n_plus[0], traj.n_minus[0], traj.cross[0]) == (
            st0.n_plus, st0.n_minus, st0.cross)
        assert traj.n_plus[0] == 0 and traj.n_minus[0] == 0 and traj.cross[0] == 0

    def test_thermal_eigenmode_blocks(self):
        gam = np.diag([2 * 1.5 + 1, 2 * 1.5 + 1, 2 * 0.5 + 1, 2 * 0.5 + 1]).astype(complex)
        minor = (VCAL @ gam @ VCAL.conj().T).real
        st = system_moments(minor)
        assert st.n_plus == pytest.approx(1.5, rel=1e-12)
        assert st.n_minus == pytest.approx(0.5, rel=1e-12)
        assert abs(st.cross) < 1e-14

    def test_round_trip_with_eigenmode_covariance(self, rng):
        for _ in range(50):
            st = MomentState(rng.uniform(0, 5), rng.uniform(0, 5),
                             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            gam = eigenmode_covariance(st)
            minor = (VCAL @ gam @ VCAL.conj().T).real
            back = system_moments(minor)
            assert back.n_plus == pytest.approx(st.n_plus, abs=1e-12)
            assert back.n_minus == pytest.approx(st.n_minus, abs=1e-12)
            assert back.cross == pytest.approx(st.cross, abs=1e-12)

    def test_rejects_non_gaussian_minor(self):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 0.5  # x-p correlation without its partners
        with pytest.raises(ConsistencyError):
            system_moments(bad)


class TestEnergies:
    def test_all_zero_at_start(self, model):
        sig0 = initial_covariance(model.params)
        e = energy_components(sig0, model.params)
        assert np.abs(np.array(e)).max() < 1e-10

    def test_total_energy_conserved(self, model):
        run = exact_trajectory(model.params, np.linspace(0.0, 300.0, 61))
        total = run.energies.sum(axis=1)
        scale = np.abs(run.energies).sum(axis=1).max()
        assert np.abs(total).max() <= 1e-8 * scale

    def test_trajectory_energies_match_direct_route(self, model):
        # mode-space route against the phase-space reference: Σ(t) = UΣ(0)U†
        times = np.array([0.0, 7.0, 40.0, 133.3, 300.0])
        run = exact_trajectory(model.params, times)
        sig0 = initial_covariance(model.params)
        assert np.array_equal(run.energies[0], np.array(energy_components(sig0, model.params)))
        for i, t in enumerate(times):
            sig_t = propagate_exact(model, sig0, t)
            direct = energy_components(sig_t, model.params)
            assert np.abs(run.energies[i] - np.array(direct)).max() < 1e-9
            st = system_moments(sig_t)
            assert abs(run.trajectory.n_plus[i] - st.n_plus) < 1e-9
            assert abs(run.trajectory.n_minus[i] - st.n_minus) < 1e-9
            assert abs(run.trajectory.cross[i] - st.cross) < 1e-9

    def test_small_bath_matches_dense_expm(self):
        # M = 4: moments and energies against Σ(t) = SΣ(0)Sᵀ, S = expm(ΩℋT)
        p = params(M=4)
        m = build_full_model(p)
        sig0 = initial_covariance(p).sigma
        times = np.array([0.0, 0.9, 2.3, 17.0, 64.5])
        run = exact_trajectory(p, times)
        for i, t in enumerate(times):
            s = expm(m.omega @ m.hmat * t)
            sig_t = s @ sig0 @ s.T
            st = system_moments(0.5 * (sig_t + sig_t.T))
            assert abs(run.trajectory.n_plus[i] - st.n_plus) < 1e-10
            assert abs(run.trajectory.n_minus[i] - st.n_minus) < 1e-10
            assert abs(run.trajectory.cross[i] - st.cross) < 1e-10
            direct = np.array(energy_components(sig_t, p))
            assert np.abs(run.energies[i] - direct).max() < 1e-10

    def test_coupling_weight_grows_at_low_temperature(self):
        times = np.linspace(0.0, 20.0, 41)
        ratios = {}
        for label, n0 in (("hot", 10.0), ("cold", 0.01)):
            p = params(n_omega0=n0, M=200)
            run = exact_trajectory(p, times)
            e_s = run.energies[1:, 0] + run.energies[1:, 1]
            e_1 = run.energies[1:, 2]
            ratios[label] = np.abs(e_1 / e_s).max()
        assert ratios["cold"] > ratios["hot"]


class TestRecurrence:
    def test_coarse_bath_recurs_near_t_rec(self):
        # M = 50 recurs near 2*pi*50/3 ~ 104.7; M = 400 and 800 agree there
        times = np.linspace(95.0, 112.0, 18)
        runs = {}
        for m_count in (50, 400, 800):
            run = exact_trajectory(params(M=m_count), times)
            runs[m_count] = np.column_stack([run.trajectory.n_plus,
                                             run.trajectory.n_minus])
        fine_gap = np.abs(runs[400] - runs[800]).max()
        coarse_gap = np.abs(runs[50] - runs[400]).max()
        assert coarse_gap > 10.0 * fine_gap
