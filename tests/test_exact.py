import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from oscpair import ConsistencyError, DomainError, ModelParams, exact, exact_trajectory
from oscpair.exact import build_full_model
from oscpair.gaussian import eigenmode_covariance
from oscpair.moments import MomentState
from oscpair.runner import time_grid

from conftest import FIG4
from mode_space import mode_hamiltonian, mode_space_trajectory
from phase_space import (VCAL, bath_energy_quadratic_form, energy_components,
                         initial_covariance, physicality_min_eigenvalue, propagate_exact,
                         propagator, symplectic_spectrum, system_moments)


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
        # E_E is inferred from conservation of H; the eigenbasis quadratic form
        # computes it without that assumption
        times = np.linspace(0.0, 300.0, 61)
        run = exact_trajectory(model.params, times)
        scale = np.abs(run.energies).sum(axis=1).max()
        e_bath = bath_energy_quadratic_form(model.params, times)
        assert np.abs(run.energies[:, 3] - e_bath).max() <= 1e-8 * scale

    @pytest.mark.parametrize("over", [{}, {"M": 1}, {"M": 3}, {"n_omega0": 1e-12},
                                      {"g": 1e-6}],
                             ids=["fig4", "M1", "M3", "cold", "weak_g"])
    def test_trajectory_energies_match_direct_route(self, model, over):
        # mode-space route against the phase-space reference: Σ(t) = UΣ(0)U†
        if over:
            model = build_full_model(params(**over))
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


def switch_grid(side: int, **over) -> np.ndarray:
    """A 0:300 grid with ⌈N/2⌉ + ``side`` points, N the expansion's terms at t = 300."""
    p = params(**over)
    _, omega_k, gamma_k = mode_hamiltonian(p)
    _, radius = exact._spectral_interval(p, omega_k, gamma_k)
    terms = int(exact._bessel_order(np.array([radius * 300.0]))[0]) + 1
    return time_grid(0.0, 300.0, -(-terms // 2) + side)


def odd_chunk_grid(points: int, **over) -> np.ndarray:
    """A 0:t_max grid of ``points`` times whose expansion has 2·points + 1 terms."""
    p = params(**over)
    _, omega_k, gamma_k = mode_hamiltonian(p)
    _, radius = exact._spectral_interval(p, omega_k, gamma_k)
    x = np.linspace(0.0, 2.0 * points, 2001)     # the order is at least x
    return np.linspace(0.0, x[exact._bessel_order(x) == 2 * points].max() / radius, points)


class TestChebyshevRoute:
    """The Chebyshev expansion against the dense mode-space reference.

    An expansion over fewer times than half its terms runs them in chunks
    shorter than the term count; one over more keeps them all in one chunk.
    The LIN cases (151 points, 439–547 terms), ``log``, ``recurrence_window``,
    ``two_restarts``, ``M400_restarts`` and ``switch_below`` run in chunks;
    the preset grids, ``t0_only`` (one term), ``M50_fine`` (4-vector
    restarts of 1228 times each), ``switch_above`` and ``odd_chunk`` keep one
    chunk. ``switch_below`` and ``switch_above`` hold ⌈N/2⌉ − 1 and
    ⌈N/2⌉ + 1 times; ``odd_chunk`` holds 7 times against 15 terms, fewer
    than half, which still fit in one chunk of odd length.
    """

    LIN = time_grid(0.0, 300.0, 151)
    CASES = {
        "fig5": ({}, time_grid(0.0, 300.0, 1501)),
        "fig7": ({"M": 50}, time_grid(0.0, 150.0, 751)),
        "fig8b": ({"n_omega0": 0.01}, time_grid(0.0, 300.0, 601)),
        "fig9a": ({"g": 0.04}, time_grid(0.0, 300.0, 751)),
        "M1": ({"M": 1}, LIN),
        "M3": ({"M": 3}, LIN),
        "M50": ({"M": 50}, LIN),
        "M300": ({"M": 300}, LIN),     # ω_100 = ω0
        "g0": ({"g": 0.0}, LIN),
        "g1e-6": ({"g": 1e-6}, LIN),
        "g0.98": ({"g": 0.98}, LIN),
        "alpha0.1": ({"alpha": 0.1}, LIN),
        "alpha2": ({"alpha": 2.0}, LIN),
        "cold": ({"n_omega0": 1e-12}, LIN),
        "hot": ({"n_omega0": 1e4}, LIN),
        "recurrence_window": ({"M": 50}, time_grid(95.0, 112.0, 18)),
        "log": ({}, time_grid(0.01, 300.0, 60, "log")),
        "two_restarts": ({"M": 50}, time_grid(0.0, 1500.0, 301)),
        "t0_only": ({"M": 20}, np.array([0.0])),     # one term, no odd one
        "M50_fine": ({"M": 50}, time_grid(0.0, 1500.0, 3001)),
        "M400_restarts": ({"M": 400}, time_grid(0.0, 3000.0, 101)),   # about 5 expansions
        "switch_below": ({"M": 50}, switch_grid(-1, M=50)),
        "switch_above": ({"M": 50}, switch_grid(1, M=50)),
        "odd_chunk": ({"M": 50}, odd_chunk_grid(7, M=50)),
    }
    CHUNKED = {"M1", "M3", "M50", "M300", "g0", "g1e-6", "g0.98", "alpha0.1", "alpha2",
               "cold", "hot", "recurrence_window", "log", "two_restarts", "M400_restarts",
               "switch_below"}

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        """(term count, chunk size) of every expansion run while the test runs."""
        calls = []
        chunks = exact._chebyshev_chunks

        def spy(start, diag2, arm2, count, size):
            calls.append((count, size))
            return chunks(start, diag2, arm2, count, size)

        monkeypatch.setattr(exact, "_chebyshev_chunks", spy)
        return calls

    @staticmethod
    def columns(run) -> np.ndarray:
        traj = run.trajectory
        return np.column_stack([traj.n_plus, traj.n_minus, traj.cross.real,
                                traj.cross.imag, run.energies])

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_mode_space_reference(self, case, chunk_sizes):
        over, times = self.CASES[case]
        p = params(**over)
        got = self.columns(exact_trajectory(p, times))
        assert any(size < count for count, size in chunk_sizes) == (case in self.CHUNKED)
        ref = self.columns(mode_space_trajectory(p, times))
        scale = np.maximum(1.0, np.abs(ref).max(axis=0))
        deviation = (np.abs(got - ref) / scale).max(axis=0)
        assert np.all(deviation <= 1e-12), deviation
        start = np.flatnonzero(times == 0.0)
        assert start.size == 1 and np.all(got[start] == 0.0)

    def test_odd_chunk_streams_in_one_chunk(self, chunk_sizes):
        over, times = self.CASES["odd_chunk"]
        exact_trajectory(params(**over), times)
        assert chunk_sizes == [(2 * times.size + 1,) * 2]

    def test_horizon_spans_two_restarts(self):
        p = params(M=50)
        _, omega_k, gamma_k = mode_hamiltonian(p)
        _, radius = exact._spectral_interval(p, omega_k, gamma_k)
        assert self.CASES["two_restarts"][1].max() > 2.0 * exact._REACH / radius

    @pytest.mark.parametrize("case", ["fig5", "M1", "g0", "g0.98", "alpha0.1", "cold"])
    def test_interval_holds_spectrum_tightly(self, case):
        p = params(**self.CASES[case][0])
        h, omega_k, gamma_k = mode_hamiltonian(p)
        lam = np.linalg.eigvalsh(h)
        centre, radius = exact._spectral_interval(p, omega_k, gamma_k)
        assert centre - radius < lam[0] and lam[-1] < centre + radius
        assert radius <= 0.5 * (lam[-1] - lam[0]) * (1.0 + 1e-8)

    @pytest.mark.parametrize("grid", [[-1.0, 0.0, 5.0], [0.0, math.nan], [0.0, math.inf],
                                      [0.0, 5.0, 1.0], []])
    def test_rejects_a_bad_grid(self, grid):
        with pytest.raises(DomainError):
            exact_trajectory(params(M=20), grid)

    def test_norm_check_catches_a_wrong_interval(self, monkeypatch):
        # a half-width that misses part of the spectrum makes T_n(ĥ) grow:
        # ψ_A and ψ_B lose their norm and the self-check must say so
        interval = exact._spectral_interval
        monkeypatch.setattr(exact, "_spectral_interval",
                            lambda *args: (interval(*args)[0], 0.8 * interval(*args)[1]))
        with pytest.raises(ConsistencyError):
            exact_trajectory(params(M=20), np.linspace(0.0, 50.0, 11))


class TestBessel:
    XS = np.array([0.0, 1e-12, 0.3, 10.0, 100.0, 465.0])

    def test_miller_table_matches_mpmath(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = exact._bessel_table(self.XS, exact._bessel_order(self.XS))
        assert table.shape[1] == self.XS.size
        with mpmath.workdps(30):
            ref = np.array([[float(mpmath.besselj(n, mpmath.mpf(x))) for x in self.XS]
                            for n in range(table.shape[0])])
        assert np.abs(table - ref).max() <= 1e-15

    def test_sum_rule_and_vanishing_argument(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            order = exact._bessel_order(self.XS)
            table = exact._bessel_table(self.XS, order)
        assert np.abs(table[0] ** 2 + 2.0 * (table[1:] ** 2).sum(axis=0) - 1.0).max() < 1e-14
        assert order[0] == 0 and table[0, 0] == 1.0 and np.all(table[1:, 0] == 0.0)


class TestMemory:
    def test_peak_memory_table_path(self):
        # fig5's grid keeps all 548 terms of 2 × 402 values (3.5 MB) and takes
        # the times in blocks of 243, each with its Bessel table (1.1 MB) and
        # even and odd amplitudes (3.1 MB); a block kept alive while the next
        # is built would add up to 4 MB
        times = time_grid(0.0, 300.0, 1501)
        tracemalloc.start()
        try:
            exact_trajectory(params(M=400), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_peak_memory_at_m800(self):
        # 101 times against 547 terms streams the terms: two sums and one
        # product of 101 × 2 × 802 values (3.9 MB), a chunk of 38 terms
        # (0.5 MB) and the 547 × 101 Bessel table (0.4 MB); the whole table
        # of 547 terms would be 7.0 MB
        times = np.linspace(0.0, 300.0, 101)
        tracemalloc.start()
        try:
            exact_trajectory(params(M=800), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2**20

    def test_peak_memory_over_restarts(self):
        # t_max = 30000 takes about 50 expansions of 7 times each (6 grid
        # points and the restart), all streamed, one at a time: three arrays
        # of 7 × 4 × 402 values (0.27 MB), a chunk of 16 terms of 4 start
        # vectors (0.2 MB) and a 1024 × 7 Bessel table; the whole table of
        # 1024 terms would be 13 MB
        times = time_grid(0.0, 30000.0, 301)
        tracemalloc.start()
        try:
            exact_trajectory(params(M=400), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
