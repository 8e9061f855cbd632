"""Brute-force verification backend on a truncated two-mode Fock space.

Density matrices are kept dense (d² × d² for per-mode cutoff d), and a
:class:`~oscpair.moments.Scheme` is integrated in operator form from its
(u, w, h) matrices. The moment route derives its 4×4 generator from the same
matrices, so the two routes share the definition of each scheme and nothing
else: agreement certifies the generator derivation and the Gaussian
machinery against the full master equation.

The integrator works in the interaction picture of the bare
H_S = ω₊γ₊†γ₊ + ω₋γ₋†γ₋, where each (σ, σ') group carries the phase
e^{i(ω_σ−ω_σ')t}; this removes the fast ω0 rotation without any
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CutoffError, DomainError, NonPhysicalStateError
from .moments import MomentState, Scheme

BOUNDARY_TOL = 1e-6
THERMAL_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class TruncatedState:
    """Two-mode density matrix with per-mode Fock cutoff ``cutoff``."""

    rho: np.ndarray
    cutoff: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        d2 = self.cutoff * self.cutoff
        if rho.shape != (d2, d2):
            raise DomainError(f"rho must be {d2}x{d2} for cutoff {self.cutoff}")
        if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
            raise NonPhysicalStateError(f"trace {np.trace(rho):.12g} != 1")
        if np.abs(rho - rho.conj().T).max() > 1e-9:
            raise NonPhysicalStateError("density matrix not Hermitian")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


@lru_cache(maxsize=8)
def _ops(d: int) -> dict:
    ladder = np.diag(np.sqrt(np.arange(1, d)), k=1)
    eye = np.eye(d)
    a = np.kron(ladder, eye)
    b = np.kron(eye, ladder)
    gp = (a + b) / math.sqrt(2.0)
    gm = (a - b) / math.sqrt(2.0)
    for arr in (gp, gm):
        arr.setflags(write=False)
    return {"g": (gp, gm)}


def number_expectations(state: TruncatedState) -> MomentState:
    """Moments (n₊, n₋, ⟨γ₋γ₊†⟩) of a truncated state."""
    gp, gm = _ops(state.cutoff)["g"]
    rho = state.rho
    n_p = np.einsum("ij,ji->", gp.conj().T @ gp, rho)
    n_m = np.einsum("ij,ji->", gm.conj().T @ gm, rho)
    cross = np.einsum("ij,ji->", gm @ gp.conj().T, rho)
    return MomentState(float(n_p.real), float(n_m.real), complex(cross))


def boundary_population(state: TruncatedState) -> float:
    """Total population with either mode at the edge Fock level."""
    d = state.cutoff
    pops = np.real(np.diag(state.rho)).reshape(d, d)
    return float(pops[d - 1, :].sum() + pops[:, d - 1].sum() - pops[d - 1, d - 1])


def thermal_product_state(n_plus: float, n_minus: float, d: int) -> TruncatedState:
    """Product of thermal states in the two eigenmodes γ± with occupations n±.

    Constructed as e^{−θ₊N₊−θ₋N₋}/Z with θ = ln(1+1/n) through an eigen
    decomposition, which degrades gracefully to the vacuum as n → 0.
    Requires the geometric tail (n/(n+1))^d of each mode below 1e−8.
    """
    if d < 2:
        raise DomainError("cutoff must be at least 2")
    for n in (n_plus, n_minus):
        if n < 0.0:
            raise DomainError("occupations must be >= 0")
        if n > 0.0 and (n / (n + 1.0)) ** d > THERMAL_TAIL_TOL:
            raise CutoffError(
                f"thermal tail (n/(n+1))^d = {(n / (n + 1.0)) ** d:.2e} too heavy "
                f"for occupation {n} at cutoff {d}")
    gp, gm = _ops(d)["g"]
    exponent = np.zeros((d * d, d * d))
    for n, gam in ((n_plus, gp), (n_minus, gm)):
        theta = math.log1p(1.0 / n) if n > 0.0 else 1e4
        exponent -= theta * np.real(gam.conj().T @ gam)
    evals, evecs = np.linalg.eigh(exponent)
    weights = np.exp(evals - evals.max())
    rho = (evecs * weights) @ evecs.conj().T
    return TruncatedState(rho / np.trace(rho).real, d)


def lindblad_propagate(scheme: Scheme, rho0: TruncatedState, times, *,
                       rtol: float = 1e-10, atol: float = 1e-12) -> list[TruncatedState]:
    """Integrate the operator-form master equation, returning Schrödinger-picture states.

    Uses an adaptive explicit integrator at tolerance 1e−10 and monitors the
    population of the edge Fock level at every output time, raising
    ``CutoffError`` above 1e−6.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
        raise DomainError("times must be strictly increasing and start at 0")
    d = rho0.cutoff
    dim = d * d
    gams = _ops(d)["g"]
    u, w, h = scheme.u, scheme.w, scheme.h

    # drift matrices and explicit jump terms, pooled by the phase
    # e^{i(ω_σ−ω_σ')t} their (σ, σ') group carries
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

    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.rho.ravel().astype(complex),
                    t_eval=times, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise CutoffError(f"master-equation integration failed: {sol.message}")

    h_s = sum(omega * gam.conj().T @ gam for omega, gam in zip(scheme.omegas, gams))
    evals, evecs = np.linalg.eigh(h_s)
    out = []
    for i, t in enumerate(times):
        rho = sol.y[:, i].reshape(dim, dim)
        if t != 0.0:
            rot = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
            rho = rot @ rho @ rot.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        state = TruncatedState(rho, d)  # validates trace and Hermiticity drift
        pop = boundary_population(state)
        if pop > BOUNDARY_TOL:
            raise CutoffError(
                f"edge-level population {pop:.2e} at t = {t}; increase the cutoff")
        out.append(state)
    return out


def fidelity_truncated(state1: TruncatedState, state2: TruncatedState) -> float:
    """Uhlmann fidelity ‖√ρ₁√ρ₂‖₁ via Hermitian eigendecompositions."""
    if state1.cutoff != state2.cutoff:
        raise DomainError("states must share a cutoff")
    roots = []
    for st in (state1, state2):
        evals, evecs = np.linalg.eigh(st.rho)
        if evals.min() < -1e-8:
            raise NonPhysicalStateError(
                f"negative eigenvalue {evals.min():.2e} beyond tolerance")
        evals = np.clip(evals, 0.0, None)
        roots.append((evecs * np.sqrt(evals)) @ evecs.conj().T)
    return float(np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum())
