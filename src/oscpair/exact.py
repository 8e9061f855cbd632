"""Exact dynamics of the full system + discretized-bath model.

ℋ has equal x–x and p–p couplings, so the Hamiltonian is passive:
H = Σ h_ij a_i†a_j (+ const) over the M+2 modes (A, B, c_1…c_M), with h a
real symmetric arrowhead. :func:`exact_trajectory` works in that mode space:
one real (M+2)² ``eigh`` and one occupation-weighted Gram matrix of the
eigenvectors' bath rows, then for each block of times one matrix product
with that Gram matrix gives the system moments and the coupling energy. The
bath energy follows from energy conservation. Every time point is
independent (no stepping error), and the propagator is written as
U(t) = I + V diag(expm1(−iλt)) Vᵀ, so the t = 0 output is the initial state
exactly.

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
    operators evolve as a(t) = U(t)a with U = I + V diag(d) Vᵀ,
    d = expm1(−iλt), so U(0) = I exactly. A and B start in the vacuum and
    bath mode k with occupation N_k = N(ω_k), hence
    ⟨a_i†a_j⟩(t) = Σ_k conj(U_ik) U_jk N_k, where the bath columns of the A
    and B rows of U are (r_i∘d) V_bathᵀ with r_i the row of V. With the
    occupation-weighted Gram matrix G = V_bathᵀ diag(N) V_bath and
    x_i = r_i∘d this is ⟨a_i†a_j⟩ = x_i†G x_j: one real product
    [x_A; x_B] G per block of times (real and imaginary parts stacked) gives

        ⟨a†a⟩, ⟨b†b⟩, ⟨ab†⟩ → n±, ⟨γ₋γ₊†⟩ (:func:`from_ab_basis`),
        E_s0 = ω0(⟨a†a⟩+⟨b†b⟩), E_sg = 2g Re⟨a†b⟩,
        E_1 = 2 Re⟨a†Σγ_k c_k⟩ = 2 Re(x_A†z + x_A†G x_γ),

    with z = V_bathᵀ(N∘γ) and x_γ = (γᵀV_bath)∘d. The total Hamiltonian is
    conserved and all four components vanish at t = 0, so the bath energy is
    E_E = −(E_s0 + E_sg + E_1). At t = 0, d vanishes and every output is
    exactly zero.
    """
    times = np.asarray(times, dtype=float)
    h, omega_k, gamma_k = _mode_hamiltonian(params)
    try:
        lam, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise PropagationError(
            f"eigendecomposition failed (size {h.shape[0]}, cond(h) ~ "
            f"{np.linalg.cond(h):.2e})") from exc
    del h
    # h V − VΛ from the arrowhead rows, in one n × n buffer
    res = np.subtract.outer(np.concatenate([[params.omega0] * 2, omega_k]), lam)
    res *= v
    res[0] += params.g * v[1] + gamma_k @ v[2:]
    res[1] += params.g * v[0]
    res[2:] += np.multiply.outer(gamma_k, v[0])
    residual = np.abs(res, out=res).max()
    del res
    h_max = max(abs(params.omega0), abs(params.g), gamma_k.max(), omega_k.max())
    if residual > 1e-12 * h_max:
        raise ConsistencyError(f"eigendecomposition residual {residual:.2e} of h")

    occ = bose_factor(omega_k, params.beta)
    rows = v[:2].copy()                                        # r_A, r_B
    weights = np.column_stack([rows[0], rows[1], gamma_k @ v[2:]])  # r_A, r_B, r_γ
    rz_a = rows[0] * ((occ * gamma_k) @ v[2:])                 # r_A∘z
    v_bath = v[2:]
    v_bath *= np.sqrt(occ)[:, None]  # in place: v is not read again
    gram = v_bath.T @ v_bath
    del v, v_bath

    n_t, n = times.size, lam.size
    aa = np.empty(n_t)
    bb = np.empty(n_t)
    ab_dag = np.empty(n_t, dtype=complex)
    energies = np.empty((n_t, 4))
    # block buffers, allocated once per call: a fresh set per block would pay
    # its page faults again in every block
    size = min(_BLOCK, n_t) * n
    buf_theta, buf_d, buf_x, buf_xg = (np.empty(m * size) for m in (1, 2, 4, 4))
    for lo in range(0, n_t, _BLOCK):
        k = min(_BLOCK, n_t - lo)
        sl = slice(lo, lo + k)
        theta = buf_theta[:k * n].reshape(k, n)
        d = buf_d[:2 * k * n].reshape(2, k, n)
        x = buf_x[:4 * k * n].reshape(4, k, n)
        xg = buf_xg[:4 * k * n].reshape(4, k, n)
        np.multiply.outer(times[sl], lam, out=theta)
        # real and imaginary parts of expm1(−iθ) = −2sin²(θ/2) − i sin θ
        np.sin(theta, out=d[1])
        np.negative(d[1], out=d[1])
        theta *= 0.5
        np.sin(theta, out=d[0])
        np.square(d[0], out=d[0])
        d[0] *= -2.0
        # x = [x_A,re; x_A,im; x_B,re; x_B,im] with x_i = r_i∘d, and xG
        np.multiply(rows[:, None, None, :], d, out=x.reshape(2, 2, k, n))
        np.matmul(x.reshape(-1, n), gram, out=xg.reshape(-1, n))
        # Re conj(x_A G)∘d, summed against r_A, r_B and r_γ
        sums = np.einsum("stl,stl->tl", xg[:2], d, out=theta) @ weights
        aa[sl] = sums[:, 0]
        re_ab = sums[:, 1]
        bb[sl] = np.einsum("stl,stl->t", xg[2:], x[2:])
        # Im⟨a†b⟩ = x_A,reᵀG x_B,im − x_A,imᵀG x_B,re; ⟨ab†⟩ = conj⟨a†b⟩
        im_ab = np.einsum("tl,tl->t", xg[0], x[3]) - np.einsum("tl,tl->t", xg[1], x[2])
        ab_dag[sl] = re_ab - 1j * im_ab
        energies[sl, 0] = params.omega0 * (aa[sl] + bb[sl])
        energies[sl, 1] = 2.0 * params.g * re_ab
        energies[sl, 2] = 2.0 * (d[0] @ rz_a + sums[:, 2])
    energies[:, 3] = 0.0 - energies[:, :3].sum(axis=1)  # +0.0, not −0.0, at t = 0
    state = from_ab_basis(aa, bb, ab_dag)
    traj = Trajectory(times, state.n_plus, state.n_minus, state.cross)
    return ExactRun(traj, energies)
