"""Brute-force verification backend on a truncated two-mode Fock space.

Every state the oracle builds and every scheme's generator conserves the
total excitation N = n_a + n_b, and so does the per-mode cutoff n_a, n_b < d.
A density matrix is therefore stored as its total-excitation blocks: block N
holds the states |n_a, N − n_a⟩ in increasing n_a, min(N+1, 2d−1−N) ≤ d of
them, and the 2d−1 blocks are stacked, zero-padded at the end, into an array
of shape (2d−1, d, d). The ladder operators are the per-mode truncated ones,
so block storage reproduces the d² × d² truncation exactly, and every
operation is a batched product over the stack.

A :class:`~oscpair.moments.Scheme` is integrated in operator form from its
(u, w, h) matrices. The moment route derives its 4×4 generator from the same
matrices, so the two routes share the definition of each scheme and nothing
else: agreement certifies the generator derivation and the Gaussian
machinery against the full master equation.

The integrator works in the interaction picture of the bare
H_S = ω₊γ₊†γ₊ + ω₋γ₋†γ₋, where each (σ, σ') group carries the phase
e^{i(ω_σ−ω_σ')t}, without any approximation. ω0·N commutes with a blocked ρ,
so the frame removes no ω0 rotation but the a↔b hopping g(n₊ − n₋), which
would cost the integrator up to four times as many right-hand-side calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CutoffError, DomainError, NonPhysicalStateError
from .moments import MomentState, Scheme, grid_from_zero

BOUNDARY_TOL = 1e-6
THERMAL_TAIL_TOL = 1e-8
#: relative and absolute tolerances of the master-equation integrator
_RTOL = 1e-10
_ATOL = 1e-12


@dataclass(frozen=True)
class _Layout:
    """The block stack of cutoff d: state |n_a, n_b⟩ sits in block N = n_a + n_b
    at slot n_a − max(0, N−d+1)."""

    mask: np.ndarray    # (2d−1, d, d) True on stored entries, False on padding
    edge: np.ndarray    # (2d−1, d) True on the slots with n_a or n_b at d−1
    lower: np.ndarray   # (2, 2d−1, d, d): lower[σ, N] is γ_σ from block N into block N−1


@lru_cache(maxsize=8)
def _layout(d: int) -> _Layout:
    n_a, n_b = np.divmod(np.arange(d * d), d)
    block = n_a + n_b
    first = np.maximum(0, np.arange(2 * d - 1) - d + 1)
    slot = n_a - first[block]
    stored = np.zeros((2 * d - 1, d), dtype=bool)
    stored[block, slot] = True
    edge = np.zeros_like(stored)
    edge[block, slot] = (n_a == d - 1) | (n_b == d - 1)
    # a: |n_a, n_b⟩ → √n_a |n_a−1, n_b⟩, b: → √n_b |n_a, n_b−1⟩, both into block N−1
    ladder = np.zeros((2, 2 * d - 1, d, d))
    for mode, (n, shift) in enumerate(((n_a, 1), (n_b, 0))):
        ok = n > 0
        src = block[ok]
        ladder[mode, src, n_a[ok] - shift - first[src - 1], slot[ok]] = np.sqrt(n[ok])
    lower = np.stack([ladder[0] + ladder[1], ladder[0] - ladder[1]]) / math.sqrt(2.0)
    layout = _Layout(stored[:, :, None] & stored[:, None, :], edge, lower)
    for arr in (layout.mask, layout.edge, layout.lower):
        arr.setflags(write=False)
    return layout


def _dag(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class TruncatedState:
    """Two-mode density matrix with per-mode Fock cutoff ``cutoff``, stored as
    its total-excitation blocks: ``blocks[N]`` is the N-excitation block,
    zero-padded to d × d (see the module docstring for the layout)."""

    blocks: np.ndarray
    cutoff: int

    def __post_init__(self):
        d = self.cutoff
        blocks = np.asarray(self.blocks, dtype=complex)
        if blocks.shape != (2 * d - 1, d, d):
            raise DomainError(f"blocks must be {2 * d - 1}x{d}x{d} for cutoff {d}")
        if np.any(blocks[~_layout(d).mask]):
            raise DomainError("padding entries of the block stack must be zero")
        trace = np.trace(blocks, axis1=1, axis2=2).sum()
        if abs(trace.real - 1.0) > 1e-9 or abs(trace.imag) > 1e-9:
            raise NonPhysicalStateError(f"trace {trace:.12g} != 1")
        if np.abs(blocks - _dag(blocks)).max() > 1e-9:
            raise NonPhysicalStateError("density matrix not Hermitian")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)


def number_expectations(state: TruncatedState) -> MomentState:
    """Moments (n₊, n₋, ⟨γ₋γ₊†⟩) of a truncated state."""
    gp, gm = _layout(state.cutoff).lower
    rho = state.blocks
    # ⟨γ†γ⟩ = Σ_N Tr(γ[N] ρ_N γ[N]†), ⟨γ₋γ₊†⟩ = Σ_N Tr(γ₊[N+1]† ρ_N γ₋[N+1]),
    # each trace written as Σ_ij A_ij B_ij over real γ blocks
    n_p = np.sum((gp @ rho) * gp)
    n_m = np.sum((gm @ rho) * gm)
    cross = np.sum(gp[1:] * (rho[:-1] @ gm[1:]))
    return MomentState(float(n_p.real), float(n_m.real), complex(cross))


def boundary_population(state: TruncatedState) -> float:
    """Total population with either mode at the edge Fock level."""
    pops = np.diagonal(state.blocks, axis1=1, axis2=2).real
    return float(pops[_layout(state.cutoff).edge].sum())


def thermal_product_state(n_plus: float, n_minus: float, d: int,
                          cross: complex = 0j) -> TruncatedState:
    """Zero-mean excitation-conserving Gaussian state with moments n± = ⟨γ±†γ±⟩
    and ⟨γ₋γ₊†⟩ = ``cross``; with ``cross = 0`` the product of thermal states
    in the eigenmodes γ±.

    Constructed as exp(−Σ B_ij γ_i†γ_j)/Z, where B has the eigenvectors of the
    mode matrix [[n₊, cross], [cross*, n₋]] and eigenvalues θ = ln(1+1/ν) of
    its eigenvalues ν, through a batched eigen decomposition of the blocks;
    this degrades gracefully to the vacuum as ν → 0. Requires the geometric
    tail (ν/(ν+1))^d of each eigenmode below 1e−8.
    """
    if d < 2:
        raise DomainError("cutoff must be at least 2")
    if n_plus < 0.0 or n_minus < 0.0:
        raise DomainError("occupations must be >= 0")
    mode = np.array([[n_plus, cross], [np.conj(cross), n_minus]])
    nus, vecs = np.linalg.eigh(mode if complex(cross).imag else mode.real)
    if nus[0] < -1e-12 * max(1.0, nus[1]):
        raise DomainError(f"|cross|^2 exceeds n_plus*n_minus (mode eigenvalue {nus[0]:.3g})")
    for n in nus:
        if n > 0.0 and (n / (n + 1.0)) ** d > THERMAL_TAIL_TOL:
            raise CutoffError(
                f"thermal tail (n/(n+1))^d = {(n / (n + 1.0)) ** d:.2e} too heavy "
                f"for occupation {n} at cutoff {d}")
    thetas = [math.log1p(1.0 / n) if n > 0.0 else 1e4 for n in nus]
    b_form = (vecs * thetas) @ vecs.conj().T
    lay = _layout(d)
    exponent = -(_dag(lay.lower) @ np.tensordot(b_form, lay.lower, axes=1)).sum(axis=0)
    # the padding is an invariant zero block: its weights are masked out below
    evals, evecs = np.linalg.eigh(exponent)
    weights = np.exp(evals - evals.max())
    rho = np.where(lay.mask, (evecs * weights[:, None, :]) @ _dag(evecs), 0.0)
    return TruncatedState(rho / np.trace(rho, axis1=1, axis2=2).sum().real, d)


def lindblad_propagate(scheme: Scheme, rho0: TruncatedState, times) -> list[TruncatedState]:
    """Integrate the operator-form master equation, returning Schrödinger-picture states.

    Uses an adaptive explicit integrator at tolerance 1e−10, stepping onto
    every output time, and monitors the population of the edge Fock level at
    every output time, raising ``CutoffError`` above 1e−6.

    Each right-hand side is a few batched products on the block stack: the
    drift acts within block N, the gain terms u·γ†ργ read block N−1 and the
    loss terms w·γργ† read block N+1.
    """
    times = grid_from_zero(times)
    d = rho0.cutoff
    lay = _layout(d)
    shape = (2 * d - 1, d, d)
    low = lay.lower
    up = _dag(low)                       # up[σ, N]: γ_σ† from block N−1 into block N
    omegas = np.asarray(scheme.omegas, dtype=float)
    gaps = omegas[:, None] - omegas[None, :]
    u, w, h = scheme.u, scheme.w, scheme.h

    # drift of each (σ, σ') term within block N:
    # −i h γ_σ†γ_σ' − ½(u γ_σ'γ_σ† + w γ_σ†γ_σ'), with γ_σ'γ_σ† passing through N+1
    up_down = up[:, None] @ low[None, :]
    down_up = np.zeros_like(up_down)
    down_up[:, :, :-1] = low[None, :, 1:] @ up[:, None, 1:]
    drift = ((-1j * h - 0.5 * w)[:, :, None, None, None] * up_down
             - 0.5 * u[:, :, None, None, None] * down_up)
    # the jump operators between neighbouring blocks, N ≥ 1
    low_c = low[:, 1:].astype(complex)
    up_c = _dag(low_c)

    def rhs(t, y):
        rho = y.reshape(shape)
        phase = np.exp(1j * gaps * t)    # e^{i(ω_σ−ω_σ')t} of each (σ, σ') group
        k = (phase[:, :, None, None, None] * drift).sum(axis=(0, 1))
        out = k @ rho + rho @ _dag(k)
        # gain Σ u_σσ' γ_σ† ρ_{N−1} γ_σ', loss Σ w_σσ' γ_σ' ρ_{N+1} γ_σ†, phased
        gain = (u * phase) @ (rho[:-1] @ low_c).reshape(2, -1)
        out[1:] += (up_c @ gain.reshape(low_c.shape)).sum(axis=0)
        loss = (w * phase).T @ (rho[1:] @ up_c).reshape(2, -1)
        out[:-1] += (low_c @ loss.reshape(low_c.shape)).sum(axis=0)
        return out.ravel()

    # each output time is a step end: DOP853's dense-output interpolant between
    # steps is not error-controlled. The next interval starts from the last
    # untruncated step size instead of a fresh initial-step estimate.
    ys = [rho0.blocks.ravel().astype(complex)]
    step = None
    for t0, t1 in zip(times[:-1], times[1:]):
        sol = solve_ivp(rhs, (t0, t1), ys[-1], method="DOP853", rtol=_RTOL, atol=_ATOL,
                        first_step=None if step is None else min(step, t1 - t0))
        if not sol.success:
            raise CutoffError(f"master-equation integration failed: {sol.message}")
        ys.append(sol.y[:, -1])
        steps = np.diff(sol.t)
        step = steps[-2] if steps.size > 1 else steps[-1]

    h_s = (omegas[:, None, None, None] * (up @ low)).sum(axis=0)
    evals, evecs = np.linalg.eigh(h_s)
    out = []
    for t, y in zip(times, ys):
        rho = y.reshape(shape)
        if t != 0.0:
            rot = (evecs * np.exp(-1j * evals * t)[:, None, :]) @ _dag(evecs)
            rho = rot @ rho @ _dag(rot)
        rho = np.where(lay.mask, 0.5 * (rho + _dag(rho)), 0.0)
        state = TruncatedState(rho, d)  # validates trace and Hermiticity drift
        pop = boundary_population(state)
        if pop > BOUNDARY_TOL:
            raise CutoffError(
                f"edge-level population {pop:.2e} at t = {t}; increase the cutoff")
        out.append(state)
    return out


def fidelity_truncated(state1: TruncatedState, state2: TruncatedState) -> float:
    """Uhlmann fidelity ‖√ρ₁√ρ₂‖₁ as a sum over blocks, via batched Hermitian
    eigendecompositions and singular values."""
    if state1.cutoff != state2.cutoff:
        raise DomainError("states must share a cutoff")
    roots = []
    for st in (state1, state2):
        evals, evecs = np.linalg.eigh(st.blocks)
        if evals.min() < -1e-8:
            raise NonPhysicalStateError(
                f"negative eigenvalue {evals.min():.2e} beyond tolerance")
        evals = np.clip(evals, 0.0, None)
        roots.append((evecs * np.sqrt(evals)[:, None, :]) @ _dag(evecs))
    return float(np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum())
