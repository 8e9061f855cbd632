"""Dense d² × d² Fock-space reference for the blocked oracle in ``oscpair.fock``.

Density matrices are plain d² × d² arrays over |n_a, n_b⟩ ordered as
n_a·d + n_b, with per-mode truncated ladder operators. This is the
implementation the package used before it stored states as total-excitation
blocks; it is kept for small cutoffs as the reference the blocked routines
are compared against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from oscpair import MomentState, Scheme


@lru_cache(maxsize=8)
def dense_ops(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated eigenmode lowering operators (γ₊, γ₋) on the d² product space."""
    ladder = np.diag(np.sqrt(np.arange(1, d)), k=1)
    eye = np.eye(d)
    a = np.kron(ladder, eye)
    b = np.kron(eye, ladder)
    gp = (a + b) / math.sqrt(2.0)
    gm = (a - b) / math.sqrt(2.0)
    for arr in (gp, gm):
        arr.setflags(write=False)
    return gp, gm


def block_slots(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Block N = n_a + n_b and slot n_a − max(0, N−d+1) of each dense basis state."""
    n_a, n_b = np.divmod(np.arange(d * d), d)
    block = n_a + n_b
    return block, n_a - np.maximum(0, block - d + 1)


def to_dense(blocks: np.ndarray) -> np.ndarray:
    """The d² × d² matrix of a (2d−1, d, d) block stack, e.g. ``TruncatedState.blocks``."""
    d = blocks.shape[-1]
    block, slot = block_slots(d)
    rho = np.zeros((d * d,) * 2, dtype=complex)
    rows, cols = np.nonzero(block[:, None] == block[None, :])
    rho[rows, cols] = blocks[block[rows], slot[rows], slot[cols]]
    return rho


def to_blocks(rho: np.ndarray, d: int) -> np.ndarray:
    """The (2d−1, d, d) block stack of a d² × d² matrix; raises if it couples
    different excitation numbers."""
    block, slot = block_slots(d)
    same = block[:, None] == block[None, :]
    if np.any(rho[~same]):
        raise ValueError("matrix does not conserve the total excitation")
    blocks = np.zeros((2 * d - 1, d, d), dtype=complex)
    rows, cols = np.nonzero(same)
    blocks[block[rows], slot[rows], slot[cols]] = rho[rows, cols]
    return blocks


def dense_gaussian_state(state: MomentState, d: int) -> np.ndarray:
    """exp(−Σ B_ij γ_i†γ_j)/Z with B reproducing the mode matrix [[n₊, c], [c*, n₋]]."""
    mode = np.array([[state.n_plus, state.cross],
                     [np.conj(state.cross), state.n_minus]])
    nu, u = np.linalg.eigh(mode)
    if nu.min() < 0:
        raise ValueError("not a physical moment triple")
    beta_nu = np.array([math.log1p(1.0 / v) if v > 1e-14 else 1e4 for v in nu])
    b_form = u @ np.diag(beta_nu) @ u.conj().T
    gams = dense_ops(d)
    exponent = np.zeros((d * d, d * d), dtype=complex)
    for i in range(2):
        for j in range(2):
            exponent -= b_form[i, j] * gams[i].conj().T @ gams[j]
    evals, evecs = np.linalg.eigh(exponent)
    weights = np.exp(evals - evals.max())
    rho = (evecs * weights) @ evecs.conj().T
    return rho / np.trace(rho).real


def dense_moments(rho: np.ndarray, d: int) -> MomentState:
    gp, gm = dense_ops(d)
    n_p = np.einsum("ij,ji->", gp.conj().T @ gp, rho)
    n_m = np.einsum("ij,ji->", gm.conj().T @ gm, rho)
    cross = np.einsum("ij,ji->", gm @ gp.conj().T, rho)
    return MomentState(float(n_p.real), float(n_m.real), complex(cross))


def dense_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    roots = []
    for rho in (rho1, rho2):
        evals, evecs = np.linalg.eigh(rho)
        evals = np.clip(evals, 0.0, None)
        roots.append((evecs * np.sqrt(evals)) @ evecs.conj().T)
    return float(np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum())


def dense_rhs(scheme: Scheme, d: int):
    """Right-hand side of the interaction-picture master equation on the flattened
    d² × d² density matrix, with the terms grouped by their phase frequency."""
    dim = d * d
    gams = dense_ops(d)
    u, w, h = scheme.u, scheme.w, scheme.h

    groups: dict[float, dict] = {}
    for i in range(2):
        for j in range(2):
            up, down = gams[i].conj().T, gams[j]
            anti = 0.5 * (u[i, j] * down @ up + w[i, j] * up @ down)
            ham = h[i, j] * up @ down
            grp = groups.setdefault(scheme.omegas[i] - scheme.omegas[j],
                                    {"left": 0.0, "right": 0.0, "jump": []})
            grp["left"] = grp["left"] + (-1j * ham - anti)
            grp["right"] = grp["right"] + (1j * ham - anti)
            grp["jump"] += [(u[i, j], up, down), (w[i, j], down, up)]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        out = np.zeros_like(rho)
        for freq, grp in groups.items():
            acc = grp["left"] @ rho + rho @ grp["right"]
            for coef, left, right in grp["jump"]:
                acc += coef * (left @ (rho @ right))
            out += np.exp(1j * freq * t) * acc if freq != 0.0 else acc
        return out.ravel()

    return rhs


def dense_propagate(scheme: Scheme, rho0: np.ndarray, d: int, times, *,
                    rtol: float = 1e-10, atol: float = 1e-12) -> list[np.ndarray]:
    """Integrate the operator-form master equation on the dense space; returns the
    Schrödinger-picture states."""
    times = np.asarray(times, dtype=float)
    dim = d * d
    gams = dense_ops(d)
    rhs = dense_rhs(scheme, d)

    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.ravel().astype(complex),
                    t_eval=times, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message

    h_s = sum(omega * gam.conj().T @ gam for omega, gam in zip(scheme.omegas, gams))
    evals, evecs = np.linalg.eigh(h_s)
    out = []
    for i, t in enumerate(times):
        rho = sol.y[:, i].reshape(dim, dim)
        if t != 0.0:
            rot = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
            rho = rot @ rho @ rot.conj().T
        out.append(0.5 * (rho + rho.conj().T))
    return out
