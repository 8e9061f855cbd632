"""Bath spectral functions, Lamb-shift principal-value integrals and dissipator tensors.

Everything here is a pure function of its inputs; :class:`CoefficientSet`
instances are immutable once built, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, EstimationError
from .params import SATURATING, ModelParams, bose_occupation

PV_KINDS = ("N", "1+N", "bare")


def bose_factor(omega, beta):
    """Bose-Einstein occupation N(ω) = 1/(e^{βω} − 1).

    Evaluated as e^{−βω}/(−expm1(−βω)), which cannot overflow: a very cold
    bath gives N = 0 (up to underflow) without a warning, and small βω keep
    full relative accuracy. Strictly decreasing in both ω and β; accepts
    scalars or arrays.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("bose_factor requires omega > 0")
    if not beta > 0.0:
        raise DomainError(f"bose_factor requires beta > 0, got {beta}")
    x = beta * omega
    out = np.exp(-x) / -np.expm1(-x)
    return float(out) if out.ndim == 0 else out


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


#: grid points per envelope evaluation in memory_time; the half-maximum
#: crossing of the presets lies within the first block
_SCAN_BLOCK = 512
#: bisection stops once the bracket on τ_E is this narrow
_BISECT_TOL = 1e-10


def memory_time(params: ModelParams) -> float:
    """Bath memory time τ_E: half width at half maximum of |c^(1)(τ)|.

    The first crossing of |c^(1)(0)|/2 is bracketed on a dense grid starting
    at τ = 0 and refined by bisection. The grid is scanned in blocks of
    ``_SCAN_BLOCK`` points, stopping at the first block that holds a
    crossing. Raises ``EstimationError`` when no crossing occurs before
    T_rec/2; warns when the width is so large relative to the recurrence
    time that the estimate is unreliable.
    """
    t_rec = params.recurrence_time
    half = abs(correlation_function(1, 0.0, params)) / 2.0

    def envelope(tau):
        return np.abs(correlation_function(1, tau, params))

    step = 1.0 / (20.0 * params.omega_c)
    grid = np.arange(0.0, t_rec / 2.0 + step, step)
    for start in range(0, grid.size, _SCAN_BLOCK):
        below = np.nonzero(envelope(grid[start:start + _SCAN_BLOCK]) <= half)[0]
        if below.size:
            break
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


#: absolute error target of each quadrature in pv_integral
_PV_EPSABS = 1e-11


def pv_integral(kind: str, omega_target: float, params: ModelParams) -> float:
    """Cauchy principal value  P∫₀^{ωc} f(ε)/(ε − ω_t) dε.

    f(ε) = κ(ε)w(ε)/2π with w = N(ε), 1+N(ε) or 1 for ``kind`` in
    {"N", "1+N", "bare"}. The band is split at ε_h = min(ω_t/2, ω0), and for
    the thermal weights also at 40/β, below which a cold bath's occupation
    sits. The head [0, ε_h] is integrated by QUADPACK's algebraic-weight rule
    (QAWS) with weight ε^{α−1} and the smooth factor εw(ε)/(ε−ω_t), where
    εN(ε) → 1/β at ε = 0 (weight ε^α and factor 1/(ε−ω_t) for "bare"); the
    rest [ε_h, ωc], which holds the pole, by the Cauchy-weight rule (QAWC).
    Both are from QUADPACK (Piessens et al., Springer 1983) via ``quad``.
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

    def smooth(e):  # f(ε)/(pref·ε^power), finite at ε = 0
        if kind == "bare":
            return 1.0
        en = e * bose_occupation(beta * e) if e > 0.0 else 1.0 / beta
        return en + e if kind == "1+N" else en

    tol = dict(epsabs=_PV_EPSABS, epsrel=1e-12, limit=200)
    head, _ = quad(lambda e: smooth(e) / (e - w_t), 0.0, split,
                   weight="alg", wvar=(power, 0.0), **tol)
    tail, _ = quad(lambda e: e**power * smooth(e), split, wc,
                   weight="cauchy", wvar=w_t, **tol)
    return pref * (head + tail)


def secular_filter(delta_t, g: float) -> np.ndarray:
    """Coarse-grain filter S^(Δt): ones on the diagonal, sinc(gΔt) off it.

    Accepts Δt = ∞ (full secular limit, off-diagonal 0) and the
    ``"saturating"`` sentinel is *not* resolved here — it needs the
    positivity threshold, see :func:`cp_threshold`.
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
    Rates and occupations at ω± live in the γ diagonals, and the eigenmode
    Lamb shifts in the η diagonals.
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

    if params.delta_t == SATURATING:
        s_off = cp_bound_from_tensors(gamma1, gamma2)
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


def cp_bound_from_tensors(gamma1: np.ndarray, gamma2: np.ndarray) -> float:
    """min_i sqrt(γ^(i)_{++}γ^(i)_{−−})/|γ^(i)_{+−}|, clamped to 1.

    Blocks with vanishing off-diagonal impose no constraint; if neither block
    constrains, the Redfield filter is unconstrained and the bound is 1.
    """
    bounds = []
    for gam in (gamma1, gamma2):
        off = abs(gam[_P, _M])
        if off > 0.0:
            bounds.append(math.sqrt(gam[_P, _P].real * gam[_M, _M].real) / off)
    if not bounds:
        return 1.0
    return float(min(min(bounds), 1.0))


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
    bound = cp_bound_from_tensors(coeffs.gamma1, coeffs.gamma2)
    return CpThreshold(bound, dissipation_matrix(coeffs, bound))
