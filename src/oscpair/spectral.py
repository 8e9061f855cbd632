"""Bath spectral functions, Lamb-shift principal-value integrals and dissipator tensors.

Everything here is a pure function of its inputs; :class:`CoefficientSet`
instances are immutable once built, so concurrent use needs no locking.
The module computes only what the bath gives and never reads the
coarse-grain interval Δt: the filter a scheme runs at is chosen by
:meth:`oscpair.runner.SchemeRunner.equation`. The complete-positivity bound
on that filter has one owner, ``CoefficientSet.cp_bound``. The Bose factor
N(ω) is :func:`oscpair.params.bose_factor`, which this module imports and
re-exports. The Lamb shifts take principal values of two kinds, weighted by
N(ω) and by 1 ("bare"); the 1 + N weight of the loss block is their sum.

The bath correlation functions, and the memory time found from them, are
summed in real arithmetic by ``np.einsum`` over one cached table of bath
detunings and weights per parameter set. They make no BLAS call: a complex
matrix–vector product there woke OpenBLAS's worker thread, whose spin then
doubled the CPU time of the next few operations of a run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EstimationError
from .params import ModelParams, bose_factor

PV_KINDS = ("N", "bare")


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


@lru_cache(maxsize=8)
def _bath_table(kind: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Detunings δ_k = ω_k − ω0 and weights w_k of c^(kind), read-only.

    w_k = γ_k²N(ω_k) for kind 1 and γ_k²[1+N(ω_k)] for kind 2. Cached per
    (kind, parameters), so the ~31 evaluations of one memory_time share one
    table instead of rebuilding the bath and its occupations each time.
    """
    omega_k, gamma_k = bath_modes(params)
    weight = gamma_k**2 * bose_factor(omega_k, params.beta)
    if kind == 2:
        weight = gamma_k**2 + weight
    delta = omega_k - params.omega0
    delta.setflags(write=False)
    weight.setflags(write=False)
    return delta, weight


def correlation_function(kind: int, tau, params: ModelParams):
    """Bath correlation functions of the discretized model.

    c^(1)(τ) = Σ_k w_k e^{+iδ_kτ},  w_k = γ_k² N(ω_k)
    c^(2)(τ) = Σ_k w_k e^{−iδ_kτ},  w_k = γ_k² [1+N(ω_k)]

    with δ_k = ω_k − ω0. Both are periodic with period T_rec = 2πM/ωc since
    every ω_k is a multiple of ωc/M. ``tau`` may be a scalar or an array.

    The weights are real, so each function is taken as Σ_k w_k cos(δ_kτ) ±
    i Σ_k w_k sin(δ_kτ), two real sums formed by ``np.einsum``, which calls
    no BLAS routine. A complex-by-real matrix–vector product here would wake
    OpenBLAS's worker thread, which then spins for about 100 ms of CPU after
    every call. One table of (δ_k, w_k) serves each parameter set.
    """
    if kind not in (1, 2):
        raise DomainError(f"correlation kind must be 1 or 2, got {kind!r}")
    delta, weight = _bath_table(kind, params)
    phase = np.multiply.outer(np.asarray(tau, dtype=float), delta)
    re = np.einsum("...k,k->...", np.cos(phase), weight)
    im = np.einsum("...k,k->...", np.sin(phase), weight)
    out = re + 1j * im if kind == 1 else re - 1j * im
    return complex(out) if out.ndim == 0 else out


#: grid points in memory_time's first envelope block; each further block is
#: twice as long as the one before, so a crossing at index i costs O(i) points
_SCAN_FIRST = 64
#: bisection stops once the bracket on τ_E is this narrow
_BISECT_TOL = 1e-10


def memory_time(params: ModelParams) -> float:
    """Bath memory time τ_E: half width at half maximum of |c^(1)(τ)|.

    The first crossing of |c^(1)(0)|/2 is bracketed on the grid τ_i = i·step,
    step = 1/(20ωc), from τ = 0 up to T_rec/2, and refined by bisection. The
    grid is scanned in blocks of ``_SCAN_FIRST``, 2·``_SCAN_FIRST``,
    4·``_SCAN_FIRST``, … points, each built from its indices when it is
    scanned, stopping at the first block that holds a crossing. All ~31
    evaluations of c^(1) read one cached bath table, and none calls BLAS
    (see :func:`correlation_function`). Raises ``EstimationError`` when
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
    # the length of np.arange(0, T_rec/2 + step, step), whose points are i·step
    n_grid = math.ceil((t_rec / 2.0 + step) / step)
    start, size = 0, _SCAN_FIRST
    while start < n_grid:
        block = np.arange(start, min(start + size, n_grid)) * step
        below = np.nonzero(envelope(block) <= half)[0]
        if below.size:
            break
        start, size = start + size, 2 * size
    else:
        raise EstimationError(
            "no half-maximum crossing of |c^(1)| before T_rec/2; "
            "increase M or check the spectral density")
    hi = start + int(below[0])
    a, b = (hi - 1) * step, hi * step
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

    f(ε) = κ(ε)w(ε)/2π with w = N(ε) or 1 for ``kind`` "N" or "bare"; the
    1+N weight of the loss rates is their sum. Write f(ε) = c·ε^p·φ(ε) with
    p = α − 1 and the smooth φ = εN(ε), where εN(ε) → 1/β at ε = 0 (p = α and
    φ = 1 for "bare"). The band is split at ε_h = min(ω_t/2, ω0), and for "N"
    also at 40/β, below which a cold bath's occupation sits.

    - Head [0, ε_h]: a Gauss–Jacobi rule with weight ε^p, whose nodes come
      from Golub–Welsch and are cached per p, applied to φ(ε)/(ε − ω_t).
    - Tail [ε_h, ωc], which holds the pole: f(ω_t) is subtracted, the
      regular quotient (f(ε) − f(ω_t))/(ε − ω_t) is integrated by
      Gauss–Legendre on [ε_h, ω_t] and on the pieces of [ω_t, ωc] cut at
      2ω_t, 4ω_t, … (so a pole near ε = 0 keeps its distance from the branch
      point of ε^p on every piece), and f(ω_t)·ln((ωc − ω_t)/(ω_t − ε_h)) is
      added back.

    At β = ∞, "N" is exactly 0.0 without a quadrature; at finite temperature
    it diverges for α = 0, which is rejected.
    """
    if kind not in PV_KINDS:
        raise DomainError(f"pv kind must be one of {PV_KINDS}, got {kind!r}")
    w_t = float(omega_target)
    wc, alpha, beta = params.omega_c, params.alpha, params.beta
    margin = 64.0 * np.finfo(float).eps * wc
    if not (margin < w_t < wc - margin):
        raise DomainError(
            f"pv_integral pole {w_t} must lie strictly inside (0, omega_c={wc})")
    if kind == "N":
        if beta == math.inf:
            return 0.0
        if alpha == 0.0:
            raise DomainError("the N-weighted Lamb-shift integral diverges for alpha = 0 "
                              "at finite temperature")

    pref = params.kappa0 / (2.0 * np.pi * params.omega0**alpha)
    split = min(w_t / 2.0, params.omega0)
    if kind == "bare":
        power = alpha
    else:  # above 40/β the occupation is below e^{-40}
        power = alpha - 1.0
        split = min(split, 40.0 / beta)

    def smooth(e):  # f(ε)/(pref·ε^power) at nodes e > 0
        return np.ones_like(e) if kind == "bare" else e * bose_factor(e, beta)

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


_P, _M = 0, 1  # tensor indices for the eigenmode labels +, −


@dataclass(frozen=True)
class CoefficientSet:
    """Dissipator and Lamb-shift tensors of the smoothed Redfield family.

    The 2×2 complex arrays are indexed [σ, σ'] with 0 ≡ +, 1 ≡ −. Diagonals
    are real; the off-diagonals follow from them through

        γ_{σσ'} = (γ_{σσ}+γ_{σ'σ'})/2 + i(η_{σσ}−η_{σ'σ'}),
        η_{σσ'} = −i(γ_{σσ}−γ_{σ'σ'})/4 + (η_{σσ}+η_{σ'σ'})/2.

    ``params`` is the parameter set the tensors were built from: every
    scheme reads ω± there, and the local scheme also κ(ω0) and N(ω0).
    ``delta_omega_a`` is the A-mode Lamb shift δω_A. ``cp_bound`` is the
    complete-positivity bound on the filter |s|, the smaller of the
    :func:`cp_block_bounds` and 1. Rates and occupations at ω± live in the γ
    diagonals, and the eigenmode Lamb shifts in the η diagonals.
    """

    params: ModelParams
    gamma1: np.ndarray
    gamma2: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    delta_omega_a: float
    cp_bound: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "eta1", "eta2"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def dissipator_coefficients(params: ModelParams, *, lamb_shift: bool = True) -> CoefficientSet:
    """Build the full γ/η tensors and the local Lamb shift for ``params``.

    Diagonals: γ^(1)_{σσ} = ½κ(ω_σ)N(ω_σ), γ^(2)_{σσ} = ½κ(ω_σ)[1+N(ω_σ)],
    η^(1)_{σσ} = ½P_N(ω_σ), η^(2)_{σσ} = −½[P_N + P_bare](ω_σ), with P_N and
    P_bare the :func:`pv_integral` kinds. Each whole block follows from its
    diagonals by the :class:`CoefficientSet` identities, which hold on the
    diagonal too. The eigenmode shifts are δω_σ = Re(η^(1)+η^(2))_{σσ}. δω_A
    is the bare principal value at ω0 with the local sign convention
    δω_A = (1/2π)P∫ κ(ω)/(ω0−ω) dω.

    With ``lamb_shift=False`` every η and δω_A is set to zero, which also
    makes the off-diagonal γ real.
    """
    w_sigma = (params.omega_plus, params.omega_minus)
    kap = np.array([spectral_density(w, params) for w in w_sigma])
    occ = np.array([bose_factor(w, params.beta) for w in w_sigma])
    if lamb_shift:
        thermal = np.array([pv_integral("N", w, params) for w in w_sigma])
        bare = np.array([pv_integral("bare", w, params) for w in w_sigma])
    else:
        thermal = bare = np.zeros(2)

    def tensors(g, e):  # γ = ½(g⊕g) + i(e⊖e), η = −¼i(g⊖g) + ½(e⊕e)
        return (0.5 * np.add.outer(g, g) + 1j * np.subtract.outer(e, e),
                -0.25j * np.subtract.outer(g, g) + 0.5 * np.add.outer(e, e))

    gamma1, eta1 = tensors(0.5 * kap * occ, 0.5 * thermal)
    gamma2, eta2 = tensors(0.5 * kap * (1.0 + occ), -0.5 * (thermal + bare))
    delta_omega_a = -pv_integral("bare", params.omega0, params) if lamb_shift else 0.0

    return CoefficientSet(
        params=params,
        gamma1=gamma1,
        gamma2=gamma2,
        eta1=eta1,
        eta2=eta2,
        delta_omega_a=delta_omega_a,
        cp_bound=float(min(*cp_block_bounds(gamma1, gamma2), 1.0)),
    )


def cp_block_bounds(gamma1: np.ndarray, gamma2: np.ndarray) -> list[float]:
    """sqrt(γ^(i)_{++}γ^(i)_{−−})/|γ^(i)_{+−}| for the blocks i = 1, 2; ∞ for a
    block whose off-diagonal vanishes, as it imposes no constraint."""
    return [math.sqrt(gam[_P, _P].real * gam[_M, _M].real) / abs(gam[_P, _M])
            if abs(gam[_P, _M]) > 0.0 else math.inf for gam in (gamma1, gamma2)]


def cp_threshold(params: ModelParams, *, lamb_shift: bool = True) -> float:
    """The complete-positivity bound on the filter |s| at ``params``:
    ``cp_bound`` of a fresh :func:`dissipator_coefficients`.

    A coarse-grained Redfield scheme is completely positive exactly when its
    gain and loss matrices u and w are positive semidefinite, which holds for
    |s| up to this bound; at the bound one of their eigenvalues touches zero
    unless the clamp at 1 was active.
    """
    return dissipator_coefficients(params, lamb_shift=lamb_shift).cp_bound
