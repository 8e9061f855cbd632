"""Phase-space and closed-form references for the moment routes in ``oscpair``.

The exact model is solved in the package in (M+2)-dimensional mode space
(:func:`oscpair.exact.exact_trajectory`). This module keeps the independent
route on the 2M+4 canonical coordinates r = (x_A, p_A, x_B, p_B, x_1, p_1, …):
:func:`oscpair.exact.build_full_model` diagonalizes the Hermitian matrix
𝓜 = iΩℋ, covariances evolve by Σ(t) = U(t) Σ(0) U(t)† with
U = I + V diag(expm1(−iλt)) V† (:func:`propagator`, :func:`propagate_exact`),
and :func:`system_moments` and :func:`energy_components` read them out. It
also holds the closed forms that other routes are compared against: the
analytic global and local moment trajectories, the initial slope of λ_c, the
first-order steady excitation gap, and the 4×4 ladder-ordering constants of
the Gaussian covariance. The phase-space route is meant for small M and
short grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from oscpair import (CoefficientSet, ConsistencyError, DomainError, ModelParams, MomentState,
                     PropagationError, Trajectory, bath_modes, bose_factor, pv_integral,
                     spectral_density)
from oscpair.exact import FullModel

#: symplectic form in the ladder ordering (γ₊, γ₊†, γ₋, γ₋†); iΞ = diag(1,−1,1,−1)
XI = np.diag([-1j, 1j, -1j, 1j])
XI.setflags(write=False)

#: unitary mapping ladder to quadrature ordering, r = 𝒱 (γ₊, γ₊†, γ₋, γ₋†)ᵀ
VCAL = 0.5 * np.array([
    [1, 1, 1, 1],
    [-1j, 1j, -1j, 1j],
    [1, 1, -1, -1],
    [-1j, 1j, 1j, -1j],
])
VCAL.setflags(write=False)


@dataclass(frozen=True)
class FullCovariance:
    """Real symmetric (2M+4)×(2M+4) covariance matrix of anticommutators."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        scale = max(1.0, np.abs(s).max())
        if np.abs(s - s.T).max() > 1e-12 * scale:
            raise ConsistencyError("covariance matrix is not symmetric")
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)


def initial_covariance(params: ModelParams) -> FullCovariance:
    """Σ(0): identity blocks for the two vacuum system modes, [2N(ω_k)+1]·1₂ per bath mode."""
    omega_k, _ = bath_modes(params)
    diag = np.ones(2 * params.M + 4)
    occ = 2.0 * bose_factor(omega_k, params.beta) + 1.0
    diag[4::2] = occ
    diag[5::2] = occ
    return FullCovariance(np.diag(diag))


def _phase_increments(model: FullModel, t: float) -> np.ndarray:
    """expm1(−iλt) per eigenmode: e^{−iλt} − 1, exactly zero at t = 0."""
    return np.expm1(-1j * model.eigenvalues * t)


def propagator(model: FullModel, t: float) -> np.ndarray:
    """U(t) = e^{Ωℋt} = I + V diag(expm1(−iλt)) V†, complex (2M+4)² array.

    The correction term vanishes identically at t = 0, so U(0) = I exactly;
    at other times U is real up to roundoff.
    """
    v = model.eigenvectors
    u = (v * _phase_increments(model, t)) @ v.conj().T
    u[np.diag_indices_from(u)] += 1.0
    return u


def propagate_exact(model: FullModel, sigma0: FullCovariance, t: float) -> FullCovariance:
    """Σ(t) = U Σ(0) U† with U = I + V diag(expm1(−iλt)) V† (:func:`propagator`).

    At t = 0 the result is Σ(0) exactly.
    """
    u = propagator(model, t)
    sig = u @ sigma0.sigma @ u.conj().T
    residue = np.abs(sig.imag).max()
    if residue > 1e-8 * max(1.0, np.abs(sig.real).max()):
        raise PropagationError(f"imaginary residue {residue:.2e} in exact propagation")
    out = sig.real
    return FullCovariance(0.5 * (out + out.T))


def system_moments(sigma) -> MomentState:
    """Eigenmode moments read off the upper-left 4×4 minor of Σ.

    The minor is rotated to the ladder ordering by Γ_S = 𝒱†Σ_S𝒱; then
    n± = (Γ₁₁/Γ₃₃ − 1)/2 and ⟨γ₋γ₊†⟩ = Γ₃₁/2. Entries that must vanish for
    an excitation-conserving zero-mean state are checked against roundoff.
    """
    s = sigma.sigma if isinstance(sigma, FullCovariance) else np.asarray(sigma, dtype=float)
    if s.shape[0] < 4:
        raise ConsistencyError("covariance must contain the 4x4 system minor")
    minor = s[:4, :4]
    scale = max(1.0, np.abs(minor).max())
    if np.abs(minor - minor.T).max() > 1e-9 * scale:
        raise ConsistencyError("system minor is not symmetric")
    gam = VCAL.conj().T @ minor @ VCAL
    n_plus = 0.5 * (gam[0, 0].real - 1.0)
    n_minus = 0.5 * (gam[2, 2].real - 1.0)
    cross = 0.5 * gam[2, 0]
    tol = 1e-7 * scale
    if (abs(gam[1, 1] - gam[0, 0]) > tol or abs(gam[3, 3] - gam[2, 2]) > tol
            or abs(gam[1, 3] - 2.0 * cross) > tol or abs(gam[1, 0]) > tol
            or abs(gam[3, 0]) > tol):
        raise ConsistencyError("system minor is not an excitation-conserving Gaussian state")
    return MomentState(n_plus, n_minus, complex(cross))


class EnergyComponents(NamedTuple):
    e_s0: float  # ⟨H_S,0⟩, vacuum-zeroed
    e_sg: float  # ⟨H_S,g⟩
    e_1: float   # ⟨H_1⟩
    e_e: float   # ⟨H_E⟩ as change from t = 0


def _hamiltonian_parts(params: ModelParams) -> tuple[np.ndarray, ...]:
    m = params.M
    n = 2 * m + 4
    omega_k, gamma_k = bath_modes(params)
    h_s0 = np.zeros((n, n))
    h_s0[:4, :4] = np.eye(4) * params.omega0
    h_sg = np.zeros((n, n))
    h_sg[0, 2] = h_sg[2, 0] = h_sg[1, 3] = h_sg[3, 1] = params.g
    h_1 = np.zeros((n, n))
    idx = 4 + 2 * np.arange(m)
    h_1[0, idx] = h_1[idx, 0] = gamma_k
    h_1[1, idx + 1] = h_1[idx + 1, 1] = gamma_k
    h_e = np.zeros((n, n))
    h_e[idx, idx] = omega_k
    h_e[idx + 1, idx + 1] = omega_k
    return h_s0, h_sg, h_1, h_e


def _energy_offsets(params: ModelParams, parts: tuple[np.ndarray, ...]) -> np.ndarray:
    # normal ordering for the number terms; bath energy referenced to t = 0,
    # summed exactly as energy_components sums it so the thermal state reads 0
    bath0 = 0.25 * np.sum(parts[3] * initial_covariance(params).sigma)
    return np.array([params.omega0, 0.0, 0.0, bath0])


def energy_components(sigma, params: ModelParams) -> EnergyComponents:
    """Expectation values of the four Hamiltonian pieces from second moments.

    Each quadratic form ½rᵀℋ_p r has ⟨·⟩ = ¼ tr(ℋ_p Σ); system terms are
    reported normal-ordered (zero on the vacuum) and the bath term relative
    to its initial thermal value, so all four components start at zero.
    """
    s = sigma.sigma if isinstance(sigma, FullCovariance) else np.asarray(sigma, dtype=float)
    parts = _hamiltonian_parts(params)
    offsets = _energy_offsets(params, parts)
    vals = [0.25 * np.sum(h * s) - off for h, off in zip(parts, offsets)]
    return EnergyComponents(*vals)


def physicality_min_eigenvalue(sigma, omega: np.ndarray) -> float:
    """min eig(Σ + iΩ); ≥ 0 up to roundoff for a physical state."""
    s = sigma.sigma if isinstance(sigma, FullCovariance) else np.asarray(sigma, dtype=float)
    return float(np.linalg.eigvalsh(s + 1j * omega).min())


def symplectic_spectrum(sigma, omega: np.ndarray) -> np.ndarray:
    """Williamson spectrum of Σ, ascending.

    Computed from the Hermitian matrix Lᵀ(iΩ)L with Σ = LLᵀ, whose
    eigenvalues are ±ν_j; conserved under the exact (symplectic) evolution.
    """
    s = sigma.sigma if isinstance(sigma, FullCovariance) else np.asarray(sigma, dtype=float)
    chol = np.linalg.cholesky(s)
    ev = np.linalg.eigvalsh(chol.T @ (1j * omega) @ chol)
    return np.sort(ev[ev > 0.0])


def global_closed_form(params: ModelParams, times) -> Trajectory:
    """Analytic global-scheme moments from the ground state:
    n±(t) = N(ω±)(1 − e^{−κ(ω±)t/2}), cross ≡ 0."""
    times = np.asarray(times, dtype=float)
    n_pm = []
    for w in (params.omega_plus, params.omega_minus):
        kappa, occ = spectral_density(w, params), bose_factor(w, params.beta)
        n_pm.append(occ * (1.0 - np.exp(-0.5 * kappa * times)))
    return Trajectory(times, *n_pm, np.zeros_like(times, dtype=complex))


def local_closed_form(coeffs: CoefficientSet, times) -> Trajectory:
    """Analytic local-scheme moments from the ground state, Lamb shift neglected.

    With g = (ω₊ − ω₋)/2 and ε = sqrt((4g)² − κ(ω0)²):
      n±(t)       = N0 {1 − e^{−κ0 t/2} [16g² − κ0² cos(εt/2)]/ε²}
      Re cross(t) = N0 κ0 e^{−κ0 t/2} sin(εt/2)/ε
      Im cross(t) = 4 N0 κ0 g e^{−κ0 t/2} [1 − cos(εt/2)]/ε²
    """
    times = np.asarray(times, dtype=float)
    k0 = coeffs.kappa_omega0
    n0 = coeffs.n_occ_omega0
    g = 0.5 * (coeffs.omega_plus - coeffs.omega_minus)
    disc = (4.0 * g) ** 2 - k0**2
    if disc <= 0.0:
        raise DomainError(
            "local closed form needs 4g > kappa(omega0) (underdamped regime)")
    eps = np.sqrt(disc)
    damp = np.exp(-0.5 * k0 * times)
    cos = np.cos(0.5 * eps * times)
    sin = np.sin(0.5 * eps * times)
    n_pm = n0 * (1.0 - damp * (16.0 * g**2 - k0**2 * cos) / eps**2)
    re_c = n0 * k0 * damp * sin / eps
    im_c = 4.0 * n0 * k0 * g * damp * (1.0 - cos) / eps**2
    return Trajectory(times, n_pm, n_pm.copy(), re_c + 1j * im_c)


def lambda_c_short_time_slope(s: float, coeffs: CoefficientSet) -> float:
    """Initial slope of λ_c(t) from the ground state under the smoothed Redfield family.

    Equals ½[(γ⁽¹⁾₊₊+γ⁽¹⁾₋₋) − sqrt((γ⁽¹⁾₊₊−γ⁽¹⁾₋₋)² + 4s²|γ⁽¹⁾₊₋|²)] and is
    non-negative exactly when s² ≤ γ⁽¹⁾₊₊γ⁽¹⁾₋₋/|γ⁽¹⁾₊₋|², i.e. inside the
    i = 1 block of the positivity bound.
    """
    gpp = coeffs.gamma1[0, 0].real
    gmm = coeffs.gamma1[1, 1].real
    gpm = abs(coeffs.gamma1[0, 1])
    return 0.5 * ((gpp + gmm) - math.hypot(gpp - gmm, 2.0 * abs(s) * gpm))


def asymptotic_gap_first_order(s: float, params: ModelParams) -> float:
    """O(κ) prediction for the steady excitation gap 2Re⟨γ₋γ₊†⟩(∞) = ⟨a†a⟩−⟨b†b⟩.

    Equals s/(ω₊−ω₋) times the band integral of
    (κ(ε)/2π)[(N(ε)−N(ω₊))/(ε−ω₊) − (N(ε)−N(ω₋))/(ε−ω₋)]; the subtracted
    integrand is regular at both poles, and expanding it by linearity reduces
    each half to principal values that are already available:
    P∫ κ(N(ε)−N_σ)/2π/(ε−ω_σ) = pv("N", ω_σ) − N_σ·pv("bare", ω_σ).
    """
    if not params.g > 0.0:
        raise DomainError("asymptotic gap needs g > 0")
    terms = []
    for w in (params.omega_plus, params.omega_minus):
        occ = bose_factor(w, params.beta)
        terms.append(pv_integral("N", w, params) - occ * pv_integral("bare", w, params))
    return s / (params.omega_plus - params.omega_minus) * (terms[0] - terms[1])
