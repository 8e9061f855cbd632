"""Second-moment dynamics of the master-equation schemes.

For the ground-state initial condition only three moments evolve:
n₊ = ⟨γ₊†γ₊⟩, n₋ = ⟨γ₋†γ₋⟩ and the cross correlation ⟨γ₋γ₊†⟩. Every scheme
is a real affine system ẋ = Ax + b on x = (n₊, n₋, Re cross, Im cross), and
propagation goes through the spectral decomposition of A — there is no
time-stepping truncation error anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, PropagationError, SteadyStateError
from .params import ModelParams
from .spectral import CoefficientSet, bose_factor, pv_integral

_P, _M = 0, 1


@dataclass(frozen=True)
class MomentState:
    """The excitation-conserving second moments (n₊, n₋, ⟨γ₋γ₊†⟩)."""

    n_plus: float
    n_minus: float
    cross: complex = 0j

    def as_vector(self) -> np.ndarray:
        return np.array([self.n_plus, self.n_minus, self.cross.real, self.cross.imag])

    @classmethod
    def from_vector(cls, x) -> "MomentState":
        return cls(float(x[0]), float(x[1]), complex(x[2], x[3]))


#: both oscillators in their ground state
VACUUM = MomentState(0.0, 0.0, 0j)


@dataclass(frozen=True)
class Trajectory:
    """Moment history on a strictly increasing time grid."""

    times: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray
    cross: np.ndarray
    scheme: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise DomainError("times must be a 1-d grid")
        if np.any(np.diff(times) <= 0.0):
            raise DomainError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        for name, dt in (("n_plus", float), ("n_minus", float), ("cross", complex)):
            arr = np.asarray(getattr(self, name), dtype=dt)
            if arr.shape != times.shape:
                raise DomainError(f"{name} must match the time grid shape")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        times.setflags(write=False)

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int) -> MomentState:
        return MomentState(float(self.n_plus[i]), float(self.n_minus[i]),
                           complex(self.cross[i]))

    @property
    def states(self) -> list[MomentState]:
        return [self.state(i) for i in range(len(self))]


class AffineGenerator:
    """ẋ = Ax + b with eigen-decomposition cached at construction."""

    def __init__(self, a_matrix, b_vector, scheme: str = ""):
        a = np.array(a_matrix, dtype=float)
        b = np.array(b_vector, dtype=float)
        if a.shape != (4, 4) or b.shape != (4,):
            raise DomainError("AffineGenerator needs a 4x4 matrix and a 4-vector")
        a.setflags(write=False)
        b.setflags(write=False)
        self.a = a
        self.b = b
        self.scheme = scheme
        self._eigvals, self._eigvecs = np.linalg.eig(a)
        self._cond = np.linalg.cond(self._eigvecs)

    def __repr__(self):
        return f"AffineGenerator(scheme={self.scheme!r})"


def cg_redfield_generator(coeffs: CoefficientSet, s: float,
                          scheme: str | None = None) -> AffineGenerator:
    """Moment generator of the coarse-grained Redfield family at filter value s.

    s = 1 is the plain Redfield equation, s = 0 the full-secular (global)
    limit; |s| is not restricted to the positivity bound. The cross moment
    rotates at the Lamb-shifted splitting ω₊+δω₊−ω₋−δω₋ and the filter
    multiplies every non-secular coupling term.
    """
    g1, g2, e1, e2 = coeffs.gamma1, coeffs.gamma2, coeffs.eta1, coeffs.eta2
    p = e1[_P, _M] + e2[_M, _P]          # multiplies cross in the n± equations
    q = g1[_P, _M] - g2[_M, _P]
    r = e1[_M, _P] + e2[_P, _M]          # multiplies n₋−n₊ in the cross equation
    t = g1[_M, _P] - g2[_P, _M]
    drive = g1[_M, _P]
    delta = (coeffs.omega_plus + coeffs.delta_omega_plus
             - coeffs.omega_minus - coeffs.delta_omega_minus)
    decay = 0.25 * (coeffs.kappa_plus + coeffs.kappa_minus)

    a = np.zeros((4, 4))
    b = np.zeros(4)
    a[0, 0] = -0.5 * coeffs.kappa_plus
    a[0, 2] = s * (2.0 * p.imag + q.real)
    a[0, 3] = s * (2.0 * p.real - q.imag)
    a[1, 1] = -0.5 * coeffs.kappa_minus
    a[1, 2] = s * (-2.0 * p.imag + q.real)
    a[1, 3] = s * (-2.0 * p.real - q.imag)
    a[2, 0] = s * (r.imag + 0.5 * t.real)
    a[2, 1] = s * (-r.imag + 0.5 * t.real)
    a[2, 2] = -decay
    a[2, 3] = -delta
    a[3, 0] = s * (-r.real + 0.5 * t.imag)
    a[3, 1] = s * (r.real + 0.5 * t.imag)
    a[3, 2] = delta
    a[3, 3] = -decay
    b[0] = 0.5 * coeffs.kappa_plus * coeffs.n_occ_plus
    b[1] = 0.5 * coeffs.kappa_minus * coeffs.n_occ_minus
    b[2] = s * drive.real
    b[3] = s * drive.imag
    if scheme is None:
        scheme = f"cg_redfield:{s:g}"
    return AffineGenerator(a, b, scheme)


def global_generator(coeffs: CoefficientSet) -> AffineGenerator:
    """Full-secular limit: n± relax independently, cross rotates and decays."""
    gen = cg_redfield_generator(coeffs, 0.0, scheme="global")
    return gen


def local_generator(coeffs: CoefficientSet, include_lamb_shift: bool = True) -> AffineGenerator:
    """Moment generator of the local master equation (dissipation on mode A only).

    The cross moment oscillates at 2g; all damping happens at κ(ω0) and the
    local shift δω_A splits n₊ from n₋ when included.
    """
    k0 = coeffs.kappa_omega0
    n0 = coeffs.n_occ_omega0
    dwa = coeffs.delta_omega_a if include_lamb_shift else 0.0
    two_g = coeffs.omega_plus - coeffs.omega_minus

    a = np.zeros((4, 4))
    b = np.zeros(4)
    a[0, 0] = -0.5 * k0
    a[0, 2] = -0.5 * k0
    a[0, 3] = dwa
    a[1, 1] = -0.5 * k0
    a[1, 2] = -0.5 * k0
    a[1, 3] = -dwa
    a[2, 0] = -0.25 * k0
    a[2, 1] = -0.25 * k0
    a[2, 2] = -0.5 * k0
    a[2, 3] = -two_g
    a[3, 0] = -0.5 * dwa
    a[3, 1] = 0.5 * dwa
    a[3, 2] = two_g
    a[3, 3] = -0.5 * k0
    b[0] = 0.5 * k0 * n0
    b[1] = 0.5 * k0 * n0
    b[2] = 0.5 * k0 * n0
    b[3] = 0.0
    return AffineGenerator(a, b, "local")


_COND_LIMIT = 1e8


def propagate(gen: AffineGenerator, init: MomentState, times) -> Trajectory:
    """Solve ẋ = Ax + b exactly on the given grid from x(0) = init.

    x(t) = x_ss + V e^{Λt} V⁻¹ (x0 − x_ss) through the cached
    eigen-decomposition; when A is singular or too far from diagonalizable
    the affine flow is evaluated per time point as the exponential of the
    augmented matrix [[A, b], [0, 0]] instead. Either way the result is
    exact up to linear-algebra roundoff.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise DomainError("times must be a 1-d grid")
    if times[0] != 0.0:
        raise DomainError("time grid must start at t = 0")
    if np.any(np.diff(times) <= 0.0):
        raise DomainError("times must be strictly increasing")
    x0 = init.as_vector()

    x = None
    if gen._cond < _COND_LIMIT:
        try:
            x_ss = np.linalg.solve(gen.a, -gen.b)
        except np.linalg.LinAlgError:
            x_ss = None
        if x_ss is not None and np.allclose(gen.a @ x_ss, -gen.b, atol=1e-12, rtol=1e-9):
            coef = np.linalg.solve(gen._eigvecs, x0 - x_ss)
            modes = coef[:, None] * np.exp(np.outer(gen._eigvals, times))
            xt = (gen._eigvecs @ modes).T + x_ss
            residue = np.abs(xt.imag).max()
            scale = 1.0 + np.abs(xt.real).max()
            if residue > 1e-9 * scale:
                raise PropagationError(
                    f"imaginary residue {residue:.2e} in eigen-propagation")
            x = xt.real

    if x is None:
        # affine flow as a 5x5 exponential; handles singular / defective A
        aug = np.zeros((5, 5))
        aug[:4, :4] = gen.a
        aug[:4, 4] = gen.b
        y0 = np.append(x0, 1.0)
        x = np.empty((times.size, 4))
        for i, t in enumerate(times):
            yt = expm(aug * t) @ y0
            if not np.all(np.isfinite(yt)):
                raise PropagationError(f"propagation diverged at t = {t}")
            x[i] = yt[:4]

    return Trajectory(times, x[:, 0], x[:, 1], x[:, 2] + 1j * x[:, 3], gen.scheme)


def steady_state(gen: AffineGenerator) -> MomentState:
    """Fixed point −A⁻¹ b of the affine system."""
    try:
        x = np.linalg.solve(gen.a, -gen.b)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError("generator matrix is singular") from exc
    if not np.allclose(gen.a @ x, -gen.b, atol=1e-12, rtol=1e-9):
        raise SteadyStateError("no reliable unique steady state (near-singular A)")
    return MomentState.from_vector(x)


def global_closed_form(coeffs: CoefficientSet, times) -> Trajectory:
    """Analytic global-scheme moments from the ground state:
    n±(t) = N(ω±)(1 − e^{−κ(ω±)t/2}), cross ≡ 0."""
    times = np.asarray(times, dtype=float)
    n_p = coeffs.n_occ_plus * (1.0 - np.exp(-0.5 * coeffs.kappa_plus * times))
    n_m = coeffs.n_occ_minus * (1.0 - np.exp(-0.5 * coeffs.kappa_minus * times))
    return Trajectory(times, n_p, n_m, np.zeros_like(times, dtype=complex),
                      "global_closed_form")


def local_closed_form(coeffs: CoefficientSet, times) -> Trajectory:
    """Analytic local-scheme moments from the ground state, Lamb shift neglected.

    With ε = sqrt((4g)² − κ(ω0)²):
      n±(t)       = N0 {1 − e^{−κ0 t/2} [16g² − κ0² cos(εt/2)]/ε²}
      Re cross(t) = N0 κ0 e^{−κ0 t/2} sin(εt/2)/ε
      Im cross(t) = 4 N0 κ0 g e^{−κ0 t/2} [1 − cos(εt/2)]/ε²
    """
    times = np.asarray(times, dtype=float)
    k0 = coeffs.kappa_omega0
    n0 = coeffs.n_occ_omega0
    g = coeffs.g_coupling
    disc = (4.0 * g) ** 2 - k0**2
    if disc <= 0.0:
        raise DomainError(
            "local closed form needs 4g > kappa(omega0) (underdamped regime)")
    eps = np.sqrt(disc)
    damp = np.exp(-0.5 * k0 * times)
    cos = np.cos(0.5 * eps * times)
    sin = np.sin(0.5 * eps * times)
    n_pm = n0 * (1.0 - damp * (16.0 * g**2 - k0**2 * cos) / eps**2)
    re_c = n0 * k0 * damp * sin / eps
    im_c = 4.0 * n0 * k0 * g * damp * (1.0 - cos) / eps**2
    return Trajectory(times, n_pm, n_pm.copy(), re_c + 1j * im_c, "local_closed_form")


def asymptotic_gap_first_order(s: float, params: ModelParams) -> float:
    """O(κ) prediction for the steady excitation gap 2Re⟨γ₋γ₊†⟩(∞) = ⟨a†a⟩−⟨b†b⟩.

    Equals s/(ω₊−ω₋) times the band integral of
    (κ(ε)/2π)[(N(ε)−N(ω₊))/(ε−ω₊) − (N(ε)−N(ω₋))/(ε−ω₋)]; the subtracted
    integrand is regular at both poles, and expanding it by linearity reduces
    each half to principal values that are already available:
    P∫ κ(N(ε)−N_σ)/2π/(ε−ω_σ) = pv("N", ω_σ) − N_σ·pv("bare", ω_σ).
    """
    if not params.g > 0.0:
        raise DomainError("asymptotic gap needs g > 0")
    terms = []
    for w in (params.omega_plus, params.omega_minus):
        occ = bose_factor(w, params.beta)
        terms.append(pv_integral("N", w, params) - occ * pv_integral("bare", w, params))
    return s / (params.omega_plus - params.omega_minus) * (terms[0] - terms[1])


def mixture_moments(local_traj: Trajectory, global_traj: Trajectory,
                    mixture_rate: float) -> Trajectory:
    """Pointwise convex mixture e^{−𝒢t}·local + (1−e^{−𝒢t})·global."""
    if not np.array_equal(local_traj.times, global_traj.times):
        raise DomainError("mixture requires identical local/global time grids")
    if not mixture_rate > 0.0:
        raise DomainError(f"mixture_rate must be > 0, got {mixture_rate}")
    w = np.exp(-mixture_rate * local_traj.times)
    return Trajectory(
        local_traj.times,
        w * local_traj.n_plus + (1.0 - w) * global_traj.n_plus,
        w * local_traj.n_minus + (1.0 - w) * global_traj.n_minus,
        w * local_traj.cross + (1.0 - w) * global_traj.cross,
        "mixture",
    )
