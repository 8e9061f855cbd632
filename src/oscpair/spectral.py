"""Bath spectral functions, Lamb-shift principal-value integrals and dissipator tensors.

Everything here is a pure function of its inputs; :class:`CoefficientSet`
instances are immutable once built, so concurrent use needs no locking.
The complete-positivity bound on the Redfield filter has one owner,
``CoefficientSet.cp_bound``. The Bose factor N(ω) is
:func:`oscpair.params.bose_factor`, which this module imports and re-exports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EstimationError
from .params import SATURATING, ModelParams, bose_factor

PV_KINDS = ("N", "1+N", "bare")


def spectral_density(omega, params: ModelParams):
    """κ(ω) = κ(ω0)·(ω/ω0)^α·Θ(ωc − ω), with a hard cutoff above ωc."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise DomainError("spectral_density requires omega >= 0")
    out = np.where(
        omega <= params.omega_c,
        params.kappa0 * (omega / params.omega0) ** params.alpha,
        0.0,
    )
    return float(out) if out.ndim == 0 else out


def bath_modes(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Discretized bath: ω_k = (k/M)ωc and γ_k = sqrt(κ(ω0)(ω_k/ω0)^α ωc/(2πM)).

    The γ_k reproduce κ(ω) as the density 2π Σ_k γ_k² δ(ω−ω_k) in the M → ∞
    limit. Returns (omega_k, gamma_k), k = 1..M.
    """
    k = np.arange(1, params.M + 1)
    omega_k = k / params.M * params.omega_c
    gamma_k = np.sqrt(spectral_density(omega_k, params) * params.omega_c
                      / (2.0 * np.pi * params.M))
    return omega_k, gamma_k


def correlation_function(kind: int, tau, params: ModelParams):
    """Bath correlation functions of the discretized model.

    c^(1)(τ) = Σ_k γ_k² N(ω_k) e^{+i(ω_k−ω0)τ}
    c^(2)(τ) = Σ_k γ_k² [1+N(ω_k)] e^{−i(ω_k−ω0)τ}

    Both are periodic with period T_rec = 2πM/ωc since every ω_k is a
    multiple of ωc/M. ``tau`` may be a scalar or an array.
    """
    if kind not in (1, 2):
        raise DomainError(f"correlation kind must be 1 or 2, got {kind!r}")
    omega_k, gamma_k = bath_modes(params)
    weight = gamma_k**2 * bose_factor(omega_k, params.beta)
    if kind == 2:
        weight = gamma_k**2 + weight
    sign = 1.0 if kind == 1 else -1.0
    tau = np.asarray(tau, dtype=float)
    phases = np.exp(1j * sign * np.multiply.outer(tau, omega_k - params.omega0))
    out = phases @ weight
    return complex(out) if out.ndim == 0 else out


#: grid points in memory_time's first envelope block; each further block is
#: twice as long as the one before, so a crossing at index i costs O(i) points
_SCAN_FIRST = 64
#: bisection stops once the bracket on τ_E is this narrow
_BISECT_TOL = 1e-10


def memory_time(params: ModelParams) -> float:
    """Bath memory time τ_E: half width at half maximum of |c^(1)(τ)|.

    The first crossing of |c^(1)(0)|/2 is bracketed on a dense grid starting
    at τ = 0 and refined by bisection. The grid is scanned in blocks of
    ``_SCAN_FIRST``, 2·``_SCAN_FIRST``, 4·``_SCAN_FIRST``, … points, stopping
    at the first block that holds a crossing. Raises ``EstimationError`` when
    c^(1) vanishes (every bath occupation underflows to 0) or when no
    crossing occurs before T_rec/2; warns when the width is so large
    relative to the recurrence time that the estimate is unreliable.
    """
    t_rec = params.recurrence_time
    peak = abs(correlation_function(1, 0.0, params))
    if peak == 0.0:
        raise EstimationError(
            "c^(1) vanishes: every bath occupation underflows to 0, so the "
            "memory time is undefined")
    half = peak / 2.0

    def envelope(tau):
        return np.abs(correlation_function(1, tau, params))

    step = 1.0 / (20.0 * params.omega_c)
    grid = np.arange(0.0, t_rec / 2.0 + step, step)
    start, size = 0, _SCAN_FIRST
    while start < grid.size:
        below = np.nonzero(envelope(grid[start:start + size]) <= half)[0]
        if below.size:
            break
        start, size = start + size, 2 * size
    else:
        raise EstimationError(
            "no half-maximum crossing of |c^(1)| before T_rec/2; "
            "increase M or check the spectral density")
    hi = start + below[0]
    lo = hi - 1
    a, b = grid[lo], grid[hi]
    while b - a > _BISECT_TOL:
        mid = 0.5 * (a + b)
        if envelope(mid) > half:
            a = mid
        else:
            b = mid
    tau_e = 0.5 * (a + b)
    if tau_e > t_rec / 4.0:
        warnings.warn(
            f"memory time {tau_e:.3g} is above T_rec/4 = {t_rec / 4:.3g}; "
            "the correlation function barely decays before recurring",
            stacklevel=2)
    return tau_e


#: Gauss–Jacobi nodes on pv_integral's head [0, ε_h]
_HEAD_NODES = 60
#: Gauss–Legendre nodes on each piece of pv_integral's tail [ε_h, ωc]
_TAIL_NODES = 120


@lru_cache(maxsize=32)
def _jacobi_rule(power: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule for ∫₀¹ x^power φ(x) dx, power > −1.

    Golub–Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Jacobi polynomials P^(0, power) shifted to [0, 1], the weights the
    squared first components of the eigenvectors times ∫₀¹ x^power dx.
    """
    k = np.arange(1, _HEAD_NODES)
    s = 2.0 * k + power
    diag = 0.5 + 0.5 * np.concatenate(([power / (power + 2.0)], power**2 / (s * (s + 2.0))))
    off = k * (k + power) / (s * np.sqrt(s**2 - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2 / (power + 1.0)


@lru_cache(maxsize=1)
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss–Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(_TAIL_NODES)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def pv_integral(kind: str, omega_target: float, params: ModelParams) -> float:
    """Cauchy principal value  P∫₀^{ωc} f(ε)/(ε − ω_t) dε.

    f(ε) = κ(ε)w(ε)/2π with w = N(ε), 1+N(ε) or 1 for ``kind`` in
    {"N", "1+N", "bare"}. Write f(ε) = c·ε^p·φ(ε) with p = α − 1 and the
    smooth φ = εw(ε), where εN(ε) → 1/β at ε = 0 (p = α and φ = 1 for "bare").
    The band is split at ε_h = min(ω_t/2, ω0), and for the thermal weights
    also at 40/β, below which a cold bath's occupation sits.

    - Head [0, ε_h]: a Gauss–Jacobi rule with weight ε^p, whose nodes come
      from Golub–Welsch and are cached per p, applied to φ(ε)/(ε − ω_t).
    - Tail [ε_h, ωc], which holds the pole: f(ω_t) is subtracted, the
      regular quotient (f(ε) − f(ω_t))/(ε − ω_t) is integrated by
      Gauss–Legendre on [ε_h, ω_t] and on the pieces of [ω_t, ωc] cut at
      2ω_t, 4ω_t, … (so a pole near ε = 0 keeps its distance from the branch
      point of ε^p on every piece), and f(ω_t)·ln((ωc − ω_t)/(ω_t − ε_h)) is
      added back.

    α = 0 with a thermal weight is rejected (the integral does not converge
    at finite temperature).
    """
    if kind not in PV_KINDS:
        raise DomainError(f"pv kind must be one of {PV_KINDS}, got {kind!r}")
    w_t = float(omega_target)
    wc, alpha, beta = params.omega_c, params.alpha, params.beta
    margin = 64.0 * np.finfo(float).eps * wc
    if not (margin < w_t < wc - margin):
        raise DomainError(
            f"pv_integral pole {w_t} must lie strictly inside (0, omega_c={wc})")
    if kind != "bare" and alpha == 0.0:
        raise DomainError(
            "thermally weighted Lamb-shift integrals diverge for alpha = 0 "
            "at finite temperature")

    pref = params.kappa0 / (2.0 * np.pi * params.omega0**alpha)
    split = min(w_t / 2.0, params.omega0)
    if kind == "bare":
        power = alpha
    else:  # above 40/β the occupation is below e^{-40}
        power = alpha - 1.0
        split = min(split, 40.0 / beta)

    def smooth(e):  # f(ε)/(pref·ε^power) at nodes e > 0
        if kind == "bare":
            return np.ones_like(e)
        en = e * bose_factor(e, beta)
        return en + e if kind == "1+N" else en

    def f(e):
        return e**power * smooth(e)

    x, wx = _jacobi_rule(power)
    e = split * x
    head = split ** (power + 1.0) * np.dot(wx, smooth(e) / (e - w_t))

    cuts = [split, w_t]
    while 4.0 * cuts[-1] < wc:
        cuts.append(2.0 * cuts[-1])
    width = np.diff(cuts + [wc])[:, None]
    u, wu = _legendre_rule()
    e = np.array(cuts)[:, None] + width * u
    f_t = float(f(np.array(w_t)))
    # a node that rounds onto the pole (ω_t within ulps of ωc) carries no weight
    quotient = np.divide(f(e) - f_t, e - w_t, out=np.zeros_like(e), where=e != w_t)
    tail = np.sum(width * wu * quotient) + f_t * math.log((wc - w_t) / (w_t - split))
    return float(pref * (head + tail))


def secular_filter(delta_t, g: float) -> np.ndarray:
    """Coarse-grain filter S^(Δt): ones on the diagonal, sinc(gΔt) off it.

    Accepts Δt = ∞ (full secular limit, off-diagonal 0) and the
    ``"saturating"`` sentinel is *not* resolved here — it needs the
    positivity bound, which :func:`dissipator_coefficients` substitutes.
    """
    if isinstance(delta_t, str):
        raise DomainError(
            "secular_filter needs a numeric delta_t; resolve the saturating "
            "sentinel through cp_threshold first")
    if delta_t < 0.0:
        raise DomainError(f"delta_t must be >= 0, got {delta_t}")
    if math.isinf(delta_t):
        off = 0.0
    else:
        off = float(np.sinc(g * delta_t / np.pi))  # np.sinc(x) = sin(πx)/(πx)
    return np.array([[1.0, off], [off, 1.0]])


_P, _M = 0, 1  # tensor indices for the eigenmode labels +, −


@dataclass(frozen=True)
class CoefficientSet:
    """Dissipator and Lamb-shift tensors of the smoothed Redfield family.

    The 2×2 complex arrays are indexed [σ, σ'] with 0 ≡ +, 1 ≡ −. Diagonals
    are real; the off-diagonals follow from them through

        γ_{σσ'} = (γ_{σσ}+γ_{σ'σ'})/2 + i(η_{σσ}−η_{σ'σ'}),
        η_{σσ'} = −i(γ_{σσ}−γ_{σ'σ'})/4 + (η_{σσ}+η_{σ'σ'})/2.

    The eigenfrequencies ω± and the A-mode constants κ(ω0), N(ω0) and δω_A
    feed the local scheme; ``s_offdiag`` is the off-diagonal filter value
    implied by the delta_t of the parameters, which generators may override.
    ``cp_bound`` is the complete-positivity bound on |s|, the smaller of the
    :func:`cp_block_bounds` and 1. Rates and occupations at ω± live in the γ
    diagonals, and the eigenmode Lamb shifts in the η diagonals.
    """

    omega_plus: float
    omega_minus: float
    kappa_omega0: float
    n_occ_omega0: float
    gamma1: np.ndarray
    gamma2: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    delta_omega_a: float
    s_offdiag: float
    cp_bound: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "eta1", "eta2"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def dissipator_coefficients(params: ModelParams, *, lamb_shift: bool = True) -> CoefficientSet:
    """Build the full γ/η tensors and the local Lamb shift for ``params``.

    Diagonals: γ^(1)_{σσ} = ½κ(ω_σ)N(ω_σ), γ^(2)_{σσ} = ½κ(ω_σ)[1+N(ω_σ)],
    η^(1)_{σσ} = +½ P∫ κN/2π/(ε−ω_σ), η^(2)_{σσ} = −½ P∫ κ(1+N)/2π/(ε−ω_σ).
    Off-diagonals via the reconstruction identities; the eigenmode shifts
    are δω_σ = Re(η^(1)+η^(2))_{σσ}. δω_A is the bare principal value at ω0
    with the local sign convention δω_A = (1/2π)P∫ κ(ω)/(ω0−ω) dω.

    With ``lamb_shift=False`` every η and δω_A is set to zero, which also
    makes the off-diagonal γ real.
    """
    w_sigma = (params.omega_plus, params.omega_minus)
    kap = tuple(float(spectral_density(w, params)) for w in w_sigma)
    occ = tuple(float(bose_factor(w, params.beta)) for w in w_sigma)

    gamma1 = np.zeros((2, 2), dtype=complex)
    gamma2 = np.zeros((2, 2), dtype=complex)
    eta1 = np.zeros((2, 2), dtype=complex)
    eta2 = np.zeros((2, 2), dtype=complex)
    for s in (_P, _M):
        gamma1[s, s] = 0.5 * kap[s] * occ[s]
        gamma2[s, s] = 0.5 * kap[s] * (1.0 + occ[s])
        if lamb_shift:
            eta1[s, s] = 0.5 * pv_integral("N", w_sigma[s], params)
            eta2[s, s] = -0.5 * pv_integral("1+N", w_sigma[s], params)
    for g_, e_ in ((gamma1, eta1), (gamma2, eta2)):
        for s, t in ((_P, _M), (_M, _P)):
            g_[s, t] = 0.5 * (g_[s, s] + g_[t, t]) + 1j * (e_[s, s] - e_[t, t])
            e_[s, t] = -0.25j * (g_[s, s] - g_[t, t]) + 0.5 * (e_[s, s] + e_[t, t])

    delta_omega_a = -pv_integral("bare", params.omega0, params) if lamb_shift else 0.0

    cp_bound = float(min(*cp_block_bounds(gamma1, gamma2), 1.0))
    if params.delta_t == SATURATING:
        s_off = cp_bound
    else:
        s_off = secular_filter(params.delta_t, params.g)[0, 1]

    return CoefficientSet(
        omega_plus=params.omega_plus,
        omega_minus=params.omega_minus,
        kappa_omega0=params.kappa0,
        n_occ_omega0=params.n_occupation_omega0,
        gamma1=gamma1,
        gamma2=gamma2,
        eta1=eta1,
        eta2=eta2,
        delta_omega_a=delta_omega_a,
        s_offdiag=float(s_off),
        cp_bound=cp_bound,
    )


def dissipation_matrix(coeffs: CoefficientSet, s: float) -> np.ndarray:
    """4×4 Hermitian dissipation matrix whose spectrum decides complete positivity.

    Block diagonal: one 2×2 block per i ∈ {1, 2} holding the diagonal rates
    and the filter-smoothed off-diagonals s·γ^(i)_{+−}.
    """
    out = np.zeros((4, 4), dtype=complex)
    for i, gam in enumerate((coeffs.gamma1, coeffs.gamma2)):
        block = np.array([
            [gam[_P, _P], s * gam[_P, _M]],
            [s * gam[_M, _P], gam[_M, _M]],
        ])
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    return out


def cp_block_bounds(gamma1: np.ndarray, gamma2: np.ndarray) -> list[float]:
    """sqrt(γ^(i)_{++}γ^(i)_{−−})/|γ^(i)_{+−}| for the blocks i = 1, 2; ∞ for a
    block whose off-diagonal vanishes, as it imposes no constraint."""
    return [math.sqrt(gam[_P, _P].real * gam[_M, _M].real) / abs(gam[_P, _M])
            if abs(gam[_P, _M]) > 0.0 else math.inf for gam in (gamma1, gamma2)]


class CpThreshold(NamedTuple):
    bound: float
    matrix: np.ndarray  # dissipation matrix evaluated at the bound


def cp_threshold(params: ModelParams, *, lamb_shift: bool = True) -> CpThreshold:
    """Positivity threshold on |S₊₋| plus the dissipation matrix at the bound.

    |S₊₋| at or below the bound is equivalent to positive semidefiniteness
    of the returned matrix; at the bound one eigenvalue touches zero unless
    the clamp at 1 was active.
    """
    coeffs = dissipator_coefficients(params, lamb_shift=lamb_shift)
    return CpThreshold(coeffs.cp_bound, dissipation_matrix(coeffs, coeffs.cp_bound))
