"""Mode-space eigendecomposition route for the exact model, the reference for
:func:`oscpair.exact.exact_trajectory`.

The package expands e^{−iht}e_A and e^{−iht}e_B in Chebyshev polynomials of
the arrowhead h. This module keeps the dense route it replaced: one real
(M+2)² ``eigh`` of h, one occupation-weighted Gram matrix of the
eigenvectors' bath rows, and per block of times one product with that Gram
matrix. It costs O(M³) and is meant for M up to a few hundred.
"""

from __future__ import annotations

import numpy as np

from oscpair import ConsistencyError, ModelParams, Trajectory, bath_modes, bose_factor
from oscpair.exact import ExactRun
from oscpair.gaussian import from_ab_basis

#: time points per block of matrix products
_BLOCK = 256


def mode_hamiltonian(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def mode_space_trajectory(params: ModelParams, times) -> ExactRun:
    """System moments and energy split of the exact model, by diagonalizing h.

    With h = VΛVᵀ the mode operators evolve as a(t) = U(t)a,
    U = I + V diag(d) Vᵀ, d = expm1(−iλt), so U(0) = I exactly. A and B start
    in the vacuum and bath mode k with occupation N_k = N(ω_k), hence
    ⟨a_i†a_j⟩(t) = Σ_k conj(U_ik) U_jk N_k, where the bath columns of the A
    and B rows of U are (r_i∘d) V_bathᵀ with r_i the row of V. With the
    occupation-weighted Gram matrix G = V_bathᵀ diag(N) V_bath and
    x_i = r_i∘d this is ⟨a_i†a_j⟩ = x_i†G x_j, and

        E_s0 = ω0(⟨a†a⟩+⟨b†b⟩), E_sg = 2g Re⟨a†b⟩,
        E_1 = 2 Re⟨a†Σγ_k c_k⟩ = 2 Re(x_A†z + x_A†G x_γ),

    with z = V_bathᵀ(N∘γ) and x_γ = (γᵀV_bath)∘d; E_E = −(E_s0 + E_sg + E_1)
    by energy conservation. At t = 0, d vanishes and every output is exactly
    zero.
    """
    times = np.asarray(times, dtype=float)
    h, omega_k, gamma_k = mode_hamiltonian(params)
    lam, v = np.linalg.eigh(h)
    residual = np.abs(h @ v - v * lam).max()
    h_max = max(abs(params.omega0), abs(params.g), gamma_k.max(), omega_k.max())
    if residual > 1e-12 * h_max:
        raise ConsistencyError(f"eigendecomposition residual {residual:.2e} of h")

    occ = bose_factor(omega_k, params.beta)
    rows = v[:2].copy()                                        # r_A, r_B
    weights = np.column_stack([rows[0], rows[1], gamma_k @ v[2:]])  # r_A, r_B, r_γ
    rz_a = rows[0] * ((occ * gamma_k) @ v[2:])                 # r_A∘z
    v_bath = v[2:] * np.sqrt(occ)[:, None]
    gram = v_bath.T @ v_bath

    n_t = times.size
    aa = np.empty(n_t)
    bb = np.empty(n_t)
    ab_dag = np.empty(n_t, dtype=complex)
    energies = np.empty((n_t, 4))
    for lo in range(0, n_t, _BLOCK):
        sl = slice(lo, min(lo + _BLOCK, n_t))
        theta = np.multiply.outer(times[sl], lam)
        # real and imaginary parts of expm1(−iθ) = −2sin²(θ/2) − i sin θ
        d = np.stack([-2.0 * np.sin(0.5 * theta) ** 2, -np.sin(theta)])
        # x = [x_A,re; x_A,im; x_B,re; x_B,im] with x_i = r_i∘d, and xG
        x = (rows[:, None, None, :] * d).reshape(4, -1, lam.size)
        xg = x @ gram
        # Re conj(x_A G)∘d, summed against r_A, r_B and r_γ
        sums = np.einsum("stl,stl->tl", xg[:2], d) @ weights
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
    return ExactRun(Trajectory(times, state.n_plus, state.n_minus, state.cross), energies)
