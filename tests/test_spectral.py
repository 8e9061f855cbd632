import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import oscpair
from oscpair import (DomainError, EstimationError, ModelParams, SchemeRunner, ValidationError,
                     bath_modes, bose_factor, correlation_function, cp_threshold,
                     dissipator_coefficients, memory_time, pv_integral, spectral_density)
from oscpair.spectral import _bath_table, _jacobi_rule

SRC = Path(oscpair.__file__).resolve().parent.parent


def params(**over):
    base = dict(n_omega0=10.0, g=0.3, kappa0=0.04, omega_c=3.0, alpha=1.0, M=400)
    base.update(over)
    return ModelParams(**base)


class TestParams:
    def test_cold_bath_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = params(n_omega0=None, beta=1e4)
            assert p.n_occupation_omega0 == 0.0
            coeffs = dissipator_coefficients(p)
        # γ^(1)_{σσ} = ½κ(ω_σ)N(ω_σ) with κ(ω_σ) > 0
        assert coeffs.gamma1[0, 0] == 0.0 and coeffs.gamma1[1, 1] == 0.0

    def test_temperature_round_trip(self):
        p = params(n_omega0=10.0)
        assert p.n_occupation_omega0 == pytest.approx(10.0, rel=1e-14)
        q = params(n_omega0=None, beta=p.beta)
        assert q.n_occupation_omega0 == pytest.approx(10.0, rel=1e-14)

    def test_rejects_nonpositive_eigenfrequency(self):
        with pytest.raises(ValidationError):
            params(g=1.0)

    def test_rejects_cutoff_inside_band(self):
        with pytest.raises(ValidationError):
            params(omega_c=1.2)

    def test_rejects_double_temperature_spec(self):
        with pytest.raises(ValidationError):
            ModelParams(beta=1.0, n_omega0=1.0)


class TestBoseFactor:
    def test_value_ten(self):
        # N(omega0) = 10 corresponds to beta*omega0 = ln(1.1)
        assert bose_factor(1.0, math.log(1.1)) == pytest.approx(10.0, rel=1e-12)

    def test_zero_temperature_limit(self):
        assert bose_factor(1.0, 40.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_occupation(self):
        assert bose_factor(1.0, math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_in_omega_and_beta(self):
        grid = np.linspace(0.2, 3.0, 50)
        vals = bose_factor(grid, 0.7)
        assert np.all(np.diff(vals) < 0)
        betas = np.linspace(0.1, 5.0, 50)
        vals_b = np.array([bose_factor(1.0, b) for b in betas])
        assert np.all(np.diff(vals_b) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bose_factor(-1.0, 1.0)
        with pytest.raises(DomainError):
            bose_factor(1.0, 0.0)


class TestSpectralDensity:
    def test_identity_point(self):
        p = params()
        assert spectral_density(1.0, p) == pytest.approx(p.kappa0)

    def test_ohmic_scaling(self):
        p = params()
        assert spectral_density(2.0, p) == pytest.approx(2 * p.kappa0)

    def test_hard_cutoff(self):
        assert spectral_density(3.5, params()) == 0.0

    def test_monotone_inside_band(self):
        p = params()
        grid = np.linspace(0.1, 2.9, 60)
        assert np.all(np.diff(spectral_density(grid, p)) > 0)


class TestBathModes:
    def test_last_mode_at_cutoff(self):
        p = params(M=50)
        omega_k, gamma_k = bath_modes(p)
        assert omega_k[-1] == pytest.approx(p.omega_c)
        assert np.all(gamma_k >= 0) and np.isrealobj(gamma_k)

    def test_first_coupling_closed_form(self):
        p = params(M=50)
        _, gamma_k = bath_modes(p)
        expected = math.sqrt(0.04 * (3.0 / 50.0) * 3.0 / (2 * math.pi * 50))
        assert gamma_k[0] == pytest.approx(expected, rel=1e-14)

    def test_density_recovered_in_bin(self):
        # 2*pi*sum gamma_k^2 over a bin around omega0 approximates kappa(omega0)
        p = params(M=10_000)
        omega_k, gamma_k = bath_modes(p)
        half = 0.05
        mask = np.abs(omega_k - 1.0) <= half
        approx = 2 * math.pi * np.sum(gamma_k[mask] ** 2) / (2 * half)
        assert approx == pytest.approx(p.kappa0, rel=0.01)


def correlation_reference(kind, tau, p):
    """c^(kind)(τ) as complex exponentials of the bath modes times their weights,
    and Σ_k w_k, the scale of its roundoff."""
    omega_k, gamma_k = bath_modes(p)
    weight = gamma_k**2 * bose_factor(omega_k, p.beta)
    if kind == 2:
        weight = gamma_k**2 + weight
    sign = 1.0 if kind == 1 else -1.0
    phases = np.exp(1j * sign * np.multiply.outer(np.asarray(tau, dtype=float),
                                                  omega_k - p.omega0))
    return phases @ weight, weight.sum()


class TestCorrelationFunction:
    @pytest.mark.parametrize("kind", [1, 2])
    @pytest.mark.parametrize("over", [{}, {"n_omega0": 0.01}, {"M": 1}, {"alpha": 0.5}],
                             ids=["hot", "cold", "M1", "alpha0.5"])
    def test_matches_complex_exponential_sum(self, kind, over):
        p = params(**over)
        t_rec = p.recurrence_time
        line = np.linspace(-1.5 * t_rec, 2.5 * t_rec, 101)  # negative τ and τ past T_rec
        square = np.linspace(-t_rec, 3.0 * t_rec, 60).reshape(5, 12)
        for tau in (3.7, line, square):
            got = correlation_function(kind, tau, p)
            ref, total = correlation_reference(kind, tau, p)
            assert np.shape(got) == np.shape(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * total
        assert isinstance(correlation_function(kind, 3.7, p), complex)

    def test_one_table_per_parameter_set(self):
        base = params(M=200)
        taus = np.linspace(0.0, 20.0, 9)
        # differ from base only in beta, and only in M
        for other in (params(M=200, n_omega0=0.5), params(M=201)):
            for p in (base, other, base):
                for kind in (1, 2):
                    ref, total = correlation_reference(kind, taus, p)
                    got = correlation_function(kind, taus, p)
                    assert np.max(np.abs(got - ref)) <= 1e-13 * total
            assert not np.allclose(correlation_function(1, taus, other),
                                   correlation_function(1, taus, base))
        assert _bath_table(1, params(M=200)) is _bath_table(1, base)
        for arr in _bath_table(1, base) + _bath_table(2, base):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_periodicity(self):
        p = params(M=50)
        taus = np.array([0.0, 1.3, 7.7, 40.0])
        before = np.abs(correlation_function(1, taus, p))
        after = np.abs(correlation_function(1, taus + p.recurrence_time, p))
        assert np.max(np.abs(before - after)) < 1e-12 * before.max()
        b2 = np.abs(correlation_function(2, taus, p))
        a2 = np.abs(correlation_function(2, taus + p.recurrence_time, p))
        assert np.max(np.abs(b2 - a2)) < 1e-12 * b2.max()

    def test_zero_lag_real_positive(self):
        p = params(M=100)
        omega_k, gamma_k = bath_modes(p)
        c0 = correlation_function(1, 0.0, p)
        assert c0.imag == 0.0
        assert c0.real == pytest.approx(
            np.sum(gamma_k**2 * bose_factor(omega_k, p.beta)), rel=1e-14)

    def test_conjugation(self):
        p = params(M=64)
        tau = 3.7
        assert np.conj(correlation_function(2, tau, p)) == pytest.approx(
            correlation_function(2, -tau, p), rel=1e-14)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            correlation_function(3, 0.0, params())


class TestMemoryTime:
    def test_hot_bath_width(self):
        p = params()
        assert memory_time(p) == pytest.approx(3.8 / p.omega_c, rel=0.10)

    def test_recurrence_formula(self):
        p = params(M=50)
        assert p.recurrence_time == pytest.approx(2 * math.pi * 50 / 3.0, rel=1e-14)
        assert p.recurrence_time == pytest.approx(104.72, rel=1e-3)

    def test_doubling_modes(self):
        p1, p2 = params(M=200), params(M=400)
        assert p2.recurrence_time == pytest.approx(2 * p1.recurrence_time, rel=1e-14)
        assert memory_time(p2) == pytest.approx(memory_time(p1), rel=0.02)

    def test_no_decay_raises(self):
        # a single bath mode gives a constant-magnitude correlation
        with pytest.raises(EstimationError):
            memory_time(params(M=1, omega_c=3.0))

    def test_underflowing_occupations_raise(self):
        # beta = 1e6 underflows every N(omega_k) to 0, so c^(1) vanishes
        p = params(M=50, n_omega0=None, beta=1e6)
        assert abs(correlation_function(1, 0.0, p)) == 0.0
        with pytest.raises(EstimationError, match="vanishes"):
            memory_time(p)

    def test_doubling_scan_equals_full_grid_scan(self, monkeypatch):
        # fig8b (cold bath) crosses at index 319: past the first two scan blocks
        # (64 and 128 points), inside the third (256 points)
        p = params(n_omega0=0.01)
        step = 1.0 / (20.0 * p.omega_c)
        grid = np.arange(0.0, p.recurrence_time / 2.0 + step, step)
        half = abs(correlation_function(1, 0.0, p)) / 2.0
        hi = np.nonzero(np.abs(correlation_function(1, grid, p)) <= half)[0][0]
        assert hi == 319
        a, b = grid[hi - 1], grid[hi]
        while b - a > 1e-10:
            mid = 0.5 * (a + b)
            if abs(correlation_function(1, mid, p)) > half:
                a = mid
            else:
                b = mid
        scanned = []

        def counting(kind, tau, params):
            scanned.append(np.size(tau))
            return correlation_function(kind, tau, params)

        monkeypatch.setattr("oscpair.spectral.correlation_function", counting)
        assert memory_time(p) == 0.5 * (a + b)
        assert [n for n in scanned if n > 1] == [64, 128, 256]

    @pytest.mark.parametrize("over", [{}, {"n_omega0": 0.01}, {"M": 1}],
                             ids=["hot", "cold", "M1"])
    def test_scan_blocks_equal_the_full_grid(self, over, monkeypatch):
        # hot crosses in the first block, cold in the third; M = 1 never
        # crosses, so its blocks must cover the whole grid up to T_rec/2
        p = params(**over)
        step = 1.0 / (20.0 * p.omega_c)
        grid = np.arange(0.0, p.recurrence_time / 2.0 + step, step)
        blocks = []

        def recording(kind, tau, params):
            if isinstance(tau, np.ndarray):
                blocks.append(tau)
            return correlation_function(kind, tau, params)

        monkeypatch.setattr("oscpair.spectral.correlation_function", recording)
        if over.get("M") == 1:
            with pytest.raises(EstimationError, match="before T_rec/2"):
                memory_time(p)
        else:
            memory_time(p)
        scanned = np.concatenate(blocks)
        assert np.array_equal(scanned, grid[:scanned.size])
        if over.get("M") == 1:
            assert scanned.size == grid.size

    def test_first_crossing_matches_dense_grid(self):
        # the cold sub-Ohmic bath crosses past the first three scan blocks (index > 448)
        for p in (params(), params(n_omega0=0.01, alpha=0.5), params(M=50, alpha=2.0)):
            step = 1.0 / (20.0 * p.omega_c)
            grid = np.arange(0.0, p.recurrence_time / 2.0 + step, step)
            envelope = np.abs(correlation_function(1, grid, p))
            half = abs(correlation_function(1, 0.0, p)) / 2.0
            hi = np.nonzero(envelope <= half)[0][0]
            assert grid[hi - 1] < memory_time(p) < grid[hi]


def pv_oracle(kind, w_t, p, delta=1e-3):
    """Independent PV check: symmetric exclusion + Richardson extrapolation."""
    def f(e):
        k = p.kappa0 * (e / p.omega0) ** p.alpha
        if kind == "bare":
            w = 1.0
        else:
            n = 1.0 / math.expm1(p.beta * e)
            w = n if kind == "N" else 1.0 + n
        return k * w / (2 * math.pi)

    def excluded(d):
        left, _ = quad(lambda e: f(e) / (e - w_t), 0.0, w_t - d,
                       epsabs=1e-13, epsrel=1e-13, limit=400)
        right, _ = quad(lambda e: f(e) / (e - w_t), w_t + d, p.omega_c,
                        epsabs=1e-13, epsrel=1e-13, limit=400)
        return left + right

    i1, i2 = excluded(delta), excluded(delta / 2)
    return 2 * i2 - i1  # removes the O(delta) term


def pv_mpmath(kind, w_t, p):
    """25-digit PV reference: u = ε^α on [0, ω_t/2], subtraction above it.

    The head ∫₀^{ω_t/2} f/(ε−ω_t) dε becomes (pref/α)∫ εw(ε)/(ε−ω_t) du with
    ε = u^{1/α}, regular at u = 0; the rest subtracts f(ω_t) and integrates
    the removable singularity with a breakpoint at the pole.
    """
    with mp.workdps(25):
        k0, w0, wc, a, beta = (mp.mpf(x) for x in (p.kappa0, p.omega0, p.omega_c,
                                                   p.alpha, p.beta))
        wt = mp.mpf(w_t)
        pref = k0 / (2 * mp.pi * w0**a)

        def e_weight(e):  # ε·w(ε), finite at ε = 0
            if kind == "bare":
                return e
            en = 1 / beta if e == 0 else e / mp.expm1(beta * e)
            return en if kind == "N" else en + e

        def f(e):
            return pref * e ** (a - 1) * e_weight(e)

        lower = wt / 2
        head = mp.quad(lambda u: pref / a * e_weight(u ** (1 / a)) / (u ** (1 / a) - wt),
                       [0, lower**a])
        f_t = f(wt)
        body = mp.quad(lambda e: 0 if e == wt else (f(e) - f_t) / (e - wt), [lower, wt, wc])
        return float(head + body + f_t * mp.log((wc - wt) / (wt - lower)))


#: relative agreement of pv_integral with pv_quadpack on the wide grid of
#: test_against_quadpack; the worst measured case, 8.3e-13, is the 1+N sum at
#: ω_t = 0.4 (α = 0.5, N(ω0) = 1), where the integral (3.3e-5) cancels to
#: 1/300 of its parts and the two routes differ by 2.7e-17 absolute
PV_QUADPACK_REL = 2e-12


def pv_quadpack(kind, w_t, p):
    """pv_integral's former QUADPACK route, kept as a second reference.

    Same splits as the production rule: QUADPACK's algebraic-weight rule
    (QAWS) with weight ε^{α−1} (ε^α for "bare") on the head [0, ε_h], and
    its Cauchy-weight rule (QAWC) on the tail [ε_h, ωc], which holds the
    pole; absolute target 1e-11, relative 1e-12.
    """
    wc, alpha, beta = p.omega_c, p.alpha, p.beta
    pref = p.kappa0 / (2.0 * np.pi * p.omega0**alpha)
    split = min(w_t / 2.0, p.omega0)
    if kind == "bare":
        power = alpha
    else:
        power = alpha - 1.0
        split = min(split, 40.0 / beta)

    def smooth(e):
        if kind == "bare":
            return 1.0
        en = e * bose_factor(e, beta) if e > 0.0 else 1.0 / beta
        return en + e if kind == "1+N" else en

    tol = dict(epsabs=1e-11, epsrel=1e-12, limit=200)
    head, _ = quad(lambda e: smooth(e) / (e - w_t), 0.0, split,
                   weight="alg", wvar=(power, 0.0), **tol)
    tail, _ = quad(lambda e: e**power * smooth(e), split, wc,
                   weight="cauchy", wvar=w_t, **tol)
    return pref * (head + tail)


def package_pv(kind, w_t, p):
    """pv_integral for a reference kind; the 1+N weight is the sum of "N" and "bare"."""
    if kind == "1+N":
        return pv_integral("N", w_t, p) + pv_integral("bare", w_t, p)
    return pv_integral(kind, w_t, p)


class TestPvIntegral:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_against_mpmath(self, alpha):
        # β = 1e4 puts the whole N-weighted integral, ≈ −κ0π/(12β²ω_t) at α = 1,
        # inside ε ≲ 1e-3; it must not be lost to the absolute tolerance
        hot = params(alpha=alpha)
        # the bare integral does not depend on the temperature
        bare = {w_t: pv_mpmath("bare", w_t, hot) for w_t in (hot.omega_plus, hot.omega_minus)}
        for p in (hot, params(alpha=alpha, n_omega0=0.01),
                  params(alpha=alpha, n_omega0=None, beta=1e4)):
            for w_t in (p.omega_plus, p.omega_minus):
                for kind in ("N", "1+N"):
                    assert package_pv(kind, w_t, p) == pytest.approx(
                        pv_mpmath(kind, w_t, p), rel=0, abs=1e-13)
                assert pv_integral("bare", w_t, p) == pytest.approx(bare[w_t], rel=0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    def test_against_quadpack(self, alpha):
        # N(ω0) over seven decades and ω₋ from 1 − 1e-6 down to 0.02, where the
        # pole is closest to the branch point of ε^{α−1} at ε = 0
        for n0 in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4):
            for g in (1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.6, 0.9, 0.98):
                p = params(alpha=alpha, n_omega0=n0, g=g)
                for w_t in (p.omega_plus, p.omega_minus):
                    for kind in ("N", "1+N", "bare"):
                        assert package_pv(kind, w_t, p) == pytest.approx(
                            pv_quadpack(kind, w_t, p), rel=PV_QUADPACK_REL, abs=0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_small_thermal_values_keep_relative_accuracy(self, alpha):
        # between hot and cold (β = 400) the N-weighted integral at ω₋ = 0.1
        # falls to 2.6e-9 (α = 2); the rule stays within 3.6e-15 of mpmath
        # where pv_quadpack's absolute target leaves it 2.8e-6 off
        p = params(alpha=alpha, n_omega0=None, beta=400.0, g=0.9)
        for w_t in (p.omega_plus, p.omega_minus):
            for kind in ("N", "1+N"):
                assert package_pv(kind, w_t, p) == pytest.approx(
                    pv_mpmath(kind, w_t, p), rel=1e-13, abs=0)

    def test_zero_temperature(self, monkeypatch):
        # β = ∞ empties N: the N-weighted integral is 0.0 without a quadrature,
        # also at α = 0, where it would diverge at any finite temperature
        calls = []

        def spy(power):
            calls.append(power)
            return _jacobi_rule(power)

        monkeypatch.setattr("oscpair.spectral._jacobi_rule", spy)
        for alpha in (0.0, 1.0):
            p = params(n_omega0=None, beta=math.inf, alpha=alpha)
            for w_t in (p.omega_plus, p.omega_minus, p.omega0):
                assert pv_integral("N", w_t, p) == 0.0
        assert calls == []
        assert pv_integral("bare", p.omega0, p) != 0.0 and calls == [1.0]

    def test_ohmic_bare_closed_form(self):
        # antiderivative of omega/(omega0-omega): -omega - omega0*ln|omega0-omega|
        p = params()
        value = pv_integral("bare", 1.0, p)
        closed = p.kappa0 / (2 * math.pi) * (3.0 + math.log(2.0))
        assert value == pytest.approx(closed, abs=1e-8)
        # and the local Lamb shift has the opposite sign
        assert -value == pytest.approx(0.04 / (2 * math.pi) * (-3 - math.log(2)), abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind", ["N", "1+N", "bare"])
    def test_against_exclusion_oracle(self, alpha, kind):
        p = params(alpha=alpha)
        for w_t in (0.7, 1.0, 1.3):
            assert package_pv(kind, w_t, p) == pytest.approx(
                pv_oracle(kind, w_t, p), abs=1e-6)

    def test_odd_integrand_vanishes(self):
        # flat integrand, pole at band center: the principal value is zero
        p = params(alpha=0.0)
        assert pv_integral("bare", 1.5, p) == pytest.approx(0.0, abs=1e-10)

    def test_domain_errors(self):
        p = params()
        with pytest.raises(DomainError):
            pv_integral("N", 3.0, p)
        with pytest.raises(DomainError):
            pv_integral("N", 0.0, p)
        with pytest.raises(DomainError):
            pv_integral("nope", 1.0, p)
        with pytest.raises(DomainError):  # the 1+N weight is "N" plus "bare"
            pv_integral("1+N", 1.0, p)
        with pytest.raises(DomainError):
            pv_integral("N", 1.0, params(alpha=0.0))


def delta_t_filter(name="cg_redfield", **over):
    """The filter s a scheme name runs at under ``params(**over)``."""
    return SchemeRunner(params(**over), [0.0]).equation(name).filter_s


class TestSecularFilter:
    """The coarse-grain filter s = sinc(gΔt) of a bare cg_redfield, which
    SchemeRunner.equation resolves from delta_t."""

    def test_redfield_point(self):
        assert delta_t_filter(delta_t=0.0) == 1.0

    def test_zero_crossing(self):
        assert delta_t_filter(delta_t=math.pi / 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_full_secular_limit(self):
        assert delta_t_filter(delta_t=math.inf) == 0.0

    @pytest.mark.parametrize("delta_t", [0.0, 3.7, math.inf])
    def test_explicit_filter_ignores_delta_t(self, delta_t):
        assert delta_t_filter("cg_redfield:0.25", delta_t=delta_t) == 0.25


def eigenmode_shifts(c):
    """Lamb shifts δω± = Re(η^(1) + η^(2))_{σσ} of the eigenmodes."""
    return (c.eta1 + c.eta2).diagonal().real


class TestCoefficients:
    def test_degenerate_coupling_collapses_offdiagonals(self):
        c = dissipator_coefficients(params(g=0.0))
        for arr in (c.gamma1, c.gamma2, c.eta1, c.eta2):
            assert arr[0, 1] == pytest.approx(arr[0, 0], rel=1e-12)
            assert arr[1, 0] == pytest.approx(arr[1, 1], rel=1e-12)

    def test_stimulated_vs_spontaneous_difference(self):
        p = params()
        c = dissipator_coefficients(p)
        assert (c.gamma2[0, 0] - c.gamma1[0, 0]).real == pytest.approx(
            0.5 * spectral_density(p.omega_plus, p), rel=1e-12)
        assert (c.gamma2[1, 1] - c.gamma1[1, 1]).real == pytest.approx(
            0.5 * spectral_density(p.omega_minus, p), rel=1e-12)

    def test_lamb_shift_splitting(self):
        delta_plus, delta_minus = eigenmode_shifts(dissipator_coefficients(params()))
        assert delta_plus != pytest.approx(delta_minus, abs=1e-6)

    def test_diagonals_real_nonnegative(self):
        c = dissipator_coefficients(params())
        for arr in (c.gamma1, c.gamma2):
            assert arr[0, 0].imag == 0 and arr[1, 1].imag == 0
            assert arr[0, 0].real >= 0 and arr[1, 1].real >= 0

    def test_reconstruction_identities_round_trip(self):
        c = dissipator_coefficients(params())
        for g_, e_ in ((c.gamma1, c.eta1), (c.gamma2, c.eta2)):
            for s, t in ((0, 1), (1, 0)):
                assert g_[s, t] == pytest.approx(
                    0.5 * (g_[s, s] + g_[t, t]) + 1j * (e_[s, s] - e_[t, t]), rel=1e-14)
                assert e_[s, t] == pytest.approx(
                    -0.25j * (g_[s, s] - g_[t, t]) + 0.5 * (e_[s, s] + e_[t, t]), rel=1e-14)
            assert g_[1, 0] == pytest.approx(np.conj(g_[0, 1]), rel=1e-14)

    def test_secular_shift_equals_bare_pv(self):
        p = params()
        delta_plus, delta_minus = eigenmode_shifts(dissipator_coefficients(p))
        # eta1+eta2 diagonal sums collapse to -1/2 the bare principal value
        assert delta_plus == pytest.approx(
            -0.5 * pv_integral("bare", p.omega_plus, p), abs=1e-9)
        assert delta_minus == pytest.approx(
            -0.5 * pv_integral("bare", p.omega_minus, p), abs=1e-9)

    def test_lamb_shift_off_zeroes_pv_content(self):
        c = dissipator_coefficients(params(), lamb_shift=False)
        # the principal-value diagonals and every frequency shift vanish ...
        assert c.eta1[0, 0] == 0 and c.eta1[1, 1] == 0
        assert c.eta2[0, 0] == 0 and c.eta2[1, 1] == 0
        assert np.all(eigenmode_shifts(c) == 0)
        assert c.delta_omega_a == 0
        # ... while the dissipative part of the off-diagonals survives
        assert c.gamma1[0, 1].imag == 0
        assert c.eta1[0, 1] == pytest.approx(
            -0.25j * (c.gamma1[0, 0] - c.gamma1[1, 1]), rel=1e-14)


class TestCpThreshold:
    def test_headline_value(self):
        assert cp_threshold(params()) == pytest.approx(0.989, abs=1e-3)

    def test_weak_coupling_limit(self):
        assert cp_threshold(params(g=1e-8)) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_point_is_unconstrained(self):
        assert cp_threshold(params(g=0.0)) == 1.0

    def test_matrix_saturates_at_bound(self):
        # complete positivity is u, w >= 0; at the bound one eigenvalue touches 0
        runner = SchemeRunner(params(), [0.0])
        bound = cp_threshold(params())

        def eigs(s):
            scheme = runner.equation(f"cg_redfield:{s!r}")
            return np.concatenate([np.linalg.eigvalsh(scheme.u), np.linalg.eigvalsh(scheme.w)])

        assert abs(eigs(bound)).min() <= 1e-10
        assert eigs(bound).min() >= -1e-12
        assert eigs(bound * 1.001).min() < 0


def test_memory_time_warns_above_a_quarter_of_the_recurrence_time():
    # M = 2 at the headline parameters: tau_E = 1.40 against T_rec/4 = 1.05
    p = params(M=2)
    with pytest.warns(UserWarning, match="above T_rec/4"):
        tau = memory_time(p)
    assert tau > p.recurrence_time / 4.0
    assert tau == pytest.approx(1.40, abs=0.01)


WAKE_SCRIPT = """
import time
from oscpair import ModelParams, memory_time

p = ModelParams(n_omega0=0.01)
memory_time(p)
time.sleep(0.5)
memory_time(p)
wall0, cpu0 = time.perf_counter(), time.process_time()
while time.perf_counter() - wall0 < 0.05:
    pass
print((time.process_time() - cpu0) / (time.perf_counter() - wall0))
"""


def test_memory_time_leaves_no_blas_thread_spinning():
    # process_time counts every thread of the process, so a BLAS worker left
    # spinning by memory_time reads as CPU above wall over a single-threaded
    # busy loop. A fresh interpreter, because this process may have woken the
    # workers already; the sleep lets them park before the second call.
    proc = subprocess.run([sys.executable, "-c", WAKE_SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ratio = float(proc.stdout.strip().splitlines()[-1])
    assert ratio < 1.5
