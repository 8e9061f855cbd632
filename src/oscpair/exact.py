"""Exact dynamics of the full system + discretized-bath model.

ℋ has equal x–x and p–p couplings, so the Hamiltonian is passive:
H = Σ h_ij a_i†a_j (+ const) over the M+2 modes (A, B, c_1…c_M), with h a
real symmetric arrowhead. :func:`exact_trajectory` works in that mode space:
one real (M+2)² ``eigh``, then for each block of times one matrix product
gives the rows of the propagator that the system moments and the four energy
components need. Every time point is independent (no stepping error), and
the propagator is written as U(t) = I + V diag(expm1(−iλt)) Vᵀ, so the
t = 0 output is the initial state exactly.

:func:`build_full_model` assembles the same model on the 2M+4 canonical
coordinates and diagonalizes 𝓜 = iΩℋ. No output of the program goes through
it; it stays here because the benchmark's tracer (``perfbench/tracing.py``)
wraps it by name. The phase-space covariance route built on it, the
independent reference that the tests compare :func:`exact_trajectory`
against, lives in ``tests/phase_space.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, PropagationError
from .gaussian import from_ab_basis
from .moments import Trajectory
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


class ExactRun(NamedTuple):
    """System moments and energy split of the exact model on one time grid.

    ``energies`` has shape (len(times), 4) with the columns in the order
    (e_s0, e_sg, e_1, e_e): ⟨H_S,0⟩ vacuum-zeroed, ⟨H_S,g⟩, ⟨H_1⟩, and ⟨H_E⟩
    as the change from t = 0.
    """

    trajectory: Trajectory
    energies: np.ndarray


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
    traj = Trajectory(times, state.n_plus, state.n_minus, state.cross)
    return ExactRun(traj, energies)
