"""Master-equation schemes and their second-moment dynamics.

Every scheme the paper compares (Redfield, CP-Redfield, coarse-grained
Redfield, global, local) is one :class:`Scheme`: gain, loss and Lamb-shift
matrices (u, w, h) over the eigenmode operators γ±. The Fock oracle
integrates the same record in operator form.

For the ground-state initial condition only three moments evolve:
n₊ = ⟨γ₊†γ₊⟩, n₋ = ⟨γ₋†γ₋⟩ and the cross correlation ⟨γ₋γ₊†⟩.
:meth:`Scheme.generator` derives from (u, w, h) the real affine system
ẋ = Ax + b on x = (n₊, n₋, Re cross, Im cross), and propagation goes through
the spectral decomposition of A — there is no time-stepping truncation
error anywhere in this module. The local/global mixture is a convex
combination of two trajectories, not a scheme of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, PropagationError, SteadyStateError
from .params import ModelParams
from .spectral import CoefficientSet, bose_factor, pv_integral



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


@dataclass(frozen=True)
class Scheme:
    """One master equation of the family, as coefficient matrices over (γ₊, γ₋).

    In the interaction picture of H_S = Σ ω_σ γ_σ†γ_σ every scheme reads

        ρ' = −i[Σ h_{σσ'} γ_σ†γ_σ', ρ]
             + Σ u_{σσ'} (γ_σ†ργ_σ' − ½{γ_σ'γ_σ†, ρ})
             + Σ w_{σσ'} (γ_σ'ργ_σ† − ½{γ_σ†γ_σ', ρ}),

    with each (σ, σ') term carrying the phase e^{i(ω_σ−ω_σ')t}. ``u`` and
    ``w`` are the gain and loss matrices, ``h`` the Lamb shift; all three are
    Hermitian. ``omegas`` are the bare (ω₊, ω₋). ``filter_s`` is the
    off-diagonal filter of the coarse-grained Redfield family (1 Redfield,
    0 global) and None for the local scheme.
    """

    name: str
    u: np.ndarray
    w: np.ndarray
    h: np.ndarray
    omegas: tuple[float, float]
    filter_s: float | None = None

    def __post_init__(self):
        for field in ("u", "w", "h"):
            arr = np.array(getattr(self, field), dtype=complex)
            if arr.shape != (2, 2):
                raise DomainError(f"scheme matrix {field} must be 2x2")
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)

    @classmethod
    def coarse_grained(cls, coeffs: CoefficientSet, s: float,
                       name: str | None = None) -> "Scheme":
        """Coarse-grained Redfield at filter value s; |s| is not restricted to
        the positivity bound. The filter multiplies every non-secular term."""
        filt = np.array([[1.0, s], [s, 1.0]])
        return cls(
            name=f"cg_redfield:{s:g}" if name is None else name,
            u=filt * coeffs.gamma1,
            w=filt * coeffs.gamma2.T,
            h=filt * (coeffs.eta1 + coeffs.eta2.T),
            omegas=(coeffs.omega_plus, coeffs.omega_minus),
            filter_s=s,
        )

    @classmethod
    def local(cls, coeffs: CoefficientSet) -> "Scheme":
        """Local scheme: the bath sees only a = (γ₊ + γ₋)/√2, at ω0."""
        ones = np.ones((2, 2))
        k0, n0 = coeffs.kappa_omega0, coeffs.n_occ_omega0
        return cls(
            name="local",
            u=0.5 * k0 * n0 * ones,
            w=0.5 * k0 * (1.0 + n0) * ones,
            h=0.5 * coeffs.delta_omega_a * ones,
            omegas=(coeffs.omega_plus, coeffs.omega_minus),
        )

    def generator(self) -> "AffineGenerator":
        """Moment generator on x = (N₊₊, N₋₋, Re N₊₋, Im N₊₋), N_ij = ⟨γ_i†γ_j⟩.

        Back in the Schrödinger picture the phases e^{i(ω_σ−ω_σ')t} become
        the bare H_S, and the master equation gives the time-independent
        Ṅ = KN + NK† + uᵀ with K = iHᵀ − ½(wᵀ − uᵀ) and H = diag(ω±) + h.
        """
        k = 1j * (np.diag(self.omegas) + self.h).T - 0.5 * (self.w - self.u).T
        a = np.column_stack([_coords(k @ e + e @ k.conj().T) for e in _HERMITIAN_BASIS])
        return AffineGenerator(a, _coords(self.u.T), self.name)


#: Hermitian 2×2 matrices whose coordinates are the unit vectors of x
_HERMITIAN_BASIS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                    np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1j], [-1j, 0.0]]))


def _coords(n: np.ndarray) -> np.ndarray:
    return np.array([n[0, 0].real, n[1, 1].real, n[0, 1].real, n[0, 1].imag])


def cg_redfield_generator(coeffs: CoefficientSet, s: float,
                          scheme: str | None = None) -> AffineGenerator:
    """Moment generator of the coarse-grained Redfield family at filter value s."""
    return Scheme.coarse_grained(coeffs, s, scheme).generator()


def local_generator(coeffs: CoefficientSet) -> AffineGenerator:
    """Moment generator of the local master equation (dissipation on mode A only)."""
    return Scheme.local(coeffs).generator()


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
