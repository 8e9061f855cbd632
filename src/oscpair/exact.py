"""Exact dynamics of the full system + discretized-bath model.

ℋ has equal x–x and p–p couplings, so the Hamiltonian is passive:
H = Σ h_ij a_i†a_j (+ const) over the M+2 modes (A, B, c_1…c_M), with h a
real symmetric arrowhead. :func:`exact_trajectory` works in that mode space:
one real (M+2)² ``eigh``, then for each block of times one matrix product
gives the rows of the propagator that the system moments and the four energy
components need. Every time point is independent (no stepping error), and
the propagator is written as U(t) = I + V diag(expm1(−iλt)) Vᵀ, so the
t = 0 output is the initial state exactly.

The phase-space route on the 2M+4 canonical coordinates r = (x_A, p_A,
x_B, p_B, x_1, p_1, …) is kept as an independent reference for the tests:
:func:`build_full_model` diagonalizes the Hermitian matrix 𝓜 = iΩℋ, and
covariances evolve by Σ(t) = U(t) Σ(0) U(t)† with the same expm1 form of U
(:func:`propagator`, :func:`propagate_exact`), read out by
:func:`system_moments` and :func:`energy_components`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, PropagationError
from .gaussian import VCAL, from_ab_basis
from .moments import MomentState, Trajectory
from .params import ModelParams
from .spectral import bath_modes, bose_factor


@dataclass(frozen=True)
class FullModel:
    """Arrow-structured Hamiltonian matrix plus its symplectic diagonalization."""

    params: ModelParams
    hmat: np.ndarray          # (2M+4)² real symmetric
    omega: np.ndarray         # symplectic form, 2×2 antisymmetric blocks
    eigenvalues: np.ndarray   # spectrum of 𝓜 = iΩℋ, real, ± paired
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors of 𝓜

    def __post_init__(self):
        for name in ("hmat", "omega", "eigenvalues", "eigenvectors"):
            getattr(self, name).setflags(write=False)

    @property
    def size(self) -> int:
        return self.hmat.shape[0]


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


def build_full_model(params: ModelParams) -> FullModel:
    """Assemble ℋ and Ω and diagonalize 𝓜 = iΩℋ.

    ℋ couples only through the first two coordinate pairs (mode A): ω0 on
    the four system diagonals, g between the A and B pairs, γ_k between A
    and bath mode k, ω_k on the bath diagonals. For this exchange-coupled
    structure 𝓜 is exactly Hermitian, so the diagonalization is an eigh and
    V is unitary by construction.
    """
    m = params.M
    n = 2 * m + 4
    omega_k, gamma_k = bath_modes(params)

    hmat = np.zeros((n, n))
    hmat[0, 0] = hmat[1, 1] = hmat[2, 2] = hmat[3, 3] = params.omega0
    hmat[0, 2] = hmat[2, 0] = hmat[1, 3] = hmat[3, 1] = params.g
    idx = 4 + 2 * np.arange(m)
    hmat[idx, idx] = omega_k
    hmat[idx + 1, idx + 1] = omega_k
    hmat[0, idx] = hmat[idx, 0] = gamma_k
    hmat[1, idx + 1] = hmat[idx + 1, 1] = gamma_k

    omega = np.zeros((n, n))
    pair = 2 * np.arange(m + 2)
    omega[pair, pair + 1] = 1.0
    omega[pair + 1, pair] = -1.0

    big_m = 1j * omega @ hmat
    herm_defect = np.abs(big_m - big_m.conj().T).max()
    if herm_defect > 1e-12 * max(1.0, np.abs(big_m).max()):
        raise ConsistencyError(f"i*Omega*H deviates from Hermitian by {herm_defect:.2e}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(big_m)
    except np.linalg.LinAlgError as exc:
        raise PropagationError(
            f"eigendecomposition failed (size {n}, cond(H) ~ "
            f"{np.linalg.cond(hmat):.2e})") from exc
    return FullModel(params, hmat, omega, eigenvalues, eigenvectors)


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


class ExactRun(NamedTuple):
    trajectory: Trajectory
    energies: np.ndarray  # shape (len(times), 4), EnergyComponents order


#: time points per block of matrix products; temporaries stay O(_BLOCK·(M+2))
_BLOCK = 256


def _mode_hamiltonian(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-particle matrix h over the modes (A, B, c_1…c_M), plus (ω_k, γ_k).

    H = Σ h_ij a_i†a_j (+ const): a real symmetric arrowhead with head A,
    h_AA = h_BB = ω0, h_AB = g, h_Ak = γ_k and h_kk = ω_k.
    """
    omega_k, gamma_k = bath_modes(params)
    h = np.zeros((params.M + 2, params.M + 2))
    h[0, 0] = h[1, 1] = params.omega0
    h[0, 1] = h[1, 0] = params.g
    h[0, 2:] = h[2:, 0] = gamma_k
    h[np.arange(2, params.M + 2), np.arange(2, params.M + 2)] = omega_k
    return h, omega_k, gamma_k


def exact_trajectory(params: ModelParams, times) -> ExactRun:
    """System moments (and energy split) of the exact model on a time grid.

    The model is diagonalized in mode space, h = VΛVᵀ, and the mode
    operators evolve as a(t) = U(t)a with U = I + V diag(expm1(−iλt)) Vᵀ,
    so U(0) = I exactly. A and B start in the vacuum and bath mode l with
    occupation n_l = N(ω_l), hence ⟨a_i†a_j⟩(t) = Σ_l conj(U_il) U_jl n_l
    over bath modes l only, where the rows of A and B equal those of U − I.
    The rows of U − I for A and B and the γ-weighted bath row Σ_k γ_k U_k·
    are one GEMM per block of times; from them

        ⟨a†a⟩, ⟨b†b⟩, ⟨ab†⟩ → n±, ⟨γ₋γ₊†⟩ (:func:`from_ab_basis`),
        E_s0 = ω0(⟨a†a⟩+⟨b†b⟩), E_sg = 2g Re⟨a†b⟩, E_1 = 2 Re⟨a†Σγ_k c_k⟩.

    E_E = Σ_k ω_k(⟨c_k†c_k⟩(t) − n_k) is the eigenbasis quadratic form
    2Re(a·d) + d†Cd in d = expm1(−iλt), with C = (VᵀΩ_EV)∘(VᵀNV) and
    a = 1ᵀC; it is not inferred from energy conservation. At t = 0, d
    vanishes and every output is exactly zero.
    """
    times = np.asarray(times, dtype=float)
    h, omega_k, gamma_k = _mode_hamiltonian(params)
    try:
        lam, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise PropagationError(
            f"eigendecomposition failed (size {h.shape[0]}, cond(h) ~ "
            f"{np.linalg.cond(h):.2e})") from exc
    residual = np.abs(h @ v - v * lam).max()
    if residual > 1e-12 * np.abs(h).max():
        raise ConsistencyError(f"eigendecomposition residual {residual:.2e} of h")

    occ = bose_factor(omega_k, params.beta)
    v_bath = v[2:, :]
    rows = np.array([v[0], v[1], gamma_k @ v_bath])
    c_form = ((v_bath.T * omega_k) @ v_bath) * ((v_bath.T * occ) @ v_bath)
    a_form = c_form.sum(axis=0)

    n_t = times.size
    aa = np.empty(n_t)
    bb = np.empty(n_t)
    ab_dag = np.empty(n_t, dtype=complex)
    energies = np.empty((n_t, 4))
    for lo in range(0, n_t, _BLOCK):
        sl = slice(lo, lo + _BLOCK)
        theta = np.multiply.outer(times[sl], lam)
        # real and imaginary parts of expm1(−iθ) = −2sin²(θ/2) − i sin θ
        d = np.stack([-2.0 * np.sin(0.5 * theta) ** 2, -np.sin(theta)])
        # rows of U − I on the bath columns, (row ∘ d) V_bathᵀ: [row, re/im, t, l]
        u = ((rows[:, None, None, :] * d).reshape(-1, lam.size) @ v_bath.T
             ).reshape(3, 2, theta.shape[0], -1)
        (a_re, a_im), (b_re, b_im), (g_re, g_im) = u
        aa[sl] = (a_re**2 + a_im**2) @ occ
        bb[sl] = (b_re**2 + b_im**2) @ occ
        # ⟨ab†⟩ = conj⟨a†b⟩ with ⟨a†b⟩ = Σ_l conj(U_Al) U_Bl n_l
        re_ab = (a_re * b_re + a_im * b_im) @ occ
        ab_dag[sl] = re_ab - 1j * ((a_re * b_im - a_im * b_re) @ occ)
        quad = np.einsum("sij,sij->i", (d.reshape(-1, lam.size) @ c_form).reshape(d.shape), d)
        energies[sl, 0] = params.omega0 * (aa[sl] + bb[sl])
        energies[sl, 1] = 2.0 * params.g * re_ab
        energies[sl, 2] = 2.0 * ((a_re * (gamma_k + g_re) + a_im * g_im) @ occ)
        energies[sl, 3] = 2.0 * (d[0] @ a_form) + quad
    state = from_ab_basis(aa, bb, ab_dag)
    traj = Trajectory(times, state.n_plus, state.n_minus, state.cross, "exact")
    return ExactRun(traj, energies)


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
