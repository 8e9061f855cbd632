"""Master-equation schemes and their second-moment dynamics.

Every scheme the paper compares (Redfield, CP-Redfield, coarse-grained
Redfield, global, local) is one :class:`Scheme`: gain, loss and Lamb-shift
matrices (u, w, h) over the eigenmode operators γ±. The Fock oracle
integrates the same record in operator form.

For the ground-state initial condition only three moments evolve:
n₊ = ⟨γ₊†γ₊⟩, n₋ = ⟨γ₋†γ₋⟩ and the cross correlation ⟨γ₋γ₊†⟩.
:meth:`Scheme.generator` derives from (u, w, h) the real affine system
ẋ = Ax + b on x = (n₊, n₋, Re cross, Im cross), and :func:`propagate` solves
it from the vacuum in closed form through the spectral decomposition of A —
there is no time-stepping truncation error anywhere in this module. The
local/global mixture is a convex combination of two trajectories, not a
scheme of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PropagationError, SteadyStateError
from .spectral import CoefficientSet


@dataclass(frozen=True)
class MomentState:
    """The excitation-conserving second moments (n₊, n₋, ⟨γ₋γ₊†⟩)."""

    n_plus: float
    n_minus: float
    cross: complex = 0j

    @classmethod
    def from_vector(cls, x) -> "MomentState":
        return cls(float(x[0]), float(x[1]), complex(x[2], x[3]))


@dataclass(frozen=True)
class Trajectory:
    """Moment history on a time grid that passes :func:`checked_grid`."""

    times: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray
    cross: np.ndarray

    def __post_init__(self):
        times = checked_grid(self.times)
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
    def coarse_grained(cls, coeffs: CoefficientSet, s: float) -> "Scheme":
        """Coarse-grained Redfield at filter value s; |s| is not restricted to
        the positivity bound. The filter multiplies every non-secular term."""
        filt = np.array([[1.0, s], [s, 1.0]])
        return cls(
            u=filt * coeffs.gamma1,
            w=filt * coeffs.gamma2.T,
            h=filt * (coeffs.eta1 + coeffs.eta2.T),
            omegas=(coeffs.params.omega_plus, coeffs.params.omega_minus),
            filter_s=s,
        )

    @classmethod
    def local(cls, coeffs: CoefficientSet) -> "Scheme":
        """Local scheme: the bath sees only a = (γ₊ + γ₋)/√2, at ω0."""
        ones = np.ones((2, 2))
        k0, n0 = coeffs.params.kappa0, coeffs.params.n_occupation_omega0
        return cls(
            u=0.5 * k0 * n0 * ones,
            w=0.5 * k0 * (1.0 + n0) * ones,
            h=0.5 * coeffs.delta_omega_a * ones,
            omegas=(coeffs.params.omega_plus, coeffs.params.omega_minus),
        )

    def generator(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair (A, b) of ẋ = Ax + b on x = (N₊₊, N₋₋, Re N₊₋, Im N₊₋),
        N_ij = ⟨γ_i†γ_j⟩.

        Back in the Schrödinger picture the phases e^{i(ω_σ−ω_σ')t} become
        the bare H_S, and the master equation gives the time-independent
        Ṅ = KN + NK† + uᵀ with K = iHᵀ − ½(wᵀ − uᵀ) and H = diag(ω±) + h.
        """
        k = 1j * (np.diag(self.omegas) + self.h).T - 0.5 * (self.w - self.u).T
        a = np.column_stack([_coords(k @ e + e @ k.conj().T) for e in _HERMITIAN_BASIS])
        return a, _coords(self.u.T)


#: Hermitian 2×2 matrices whose coordinates are the unit vectors of x
_HERMITIAN_BASIS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                    np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1j], [-1j, 0.0]]))


def _coords(n: np.ndarray) -> np.ndarray:
    return np.array([n[0, 0].real, n[1, 1].real, n[0, 1].real, n[0, 1].imag])


def cg_redfield_generator(coeffs: CoefficientSet, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Moment generator (A, b) of the coarse-grained Redfield family at filter value s."""
    return Scheme.coarse_grained(coeffs, s).generator()


def local_generator(coeffs: CoefficientSet) -> tuple[np.ndarray, np.ndarray]:
    """Moment generator (A, b) of the local master equation (dissipation on mode A only)."""
    return Scheme.local(coeffs).generator()


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported on the first call so that SciPy stays
    off the run path: only :func:`propagate`'s defective-generator fallback needs it."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


#: cond(V) from which A counts as defective and propagate uses the augmented expm
_COND_LIMIT = 1e8


def checked_grid(times) -> np.ndarray:
    """A float copy of the grid, checked to be 1-d, non-empty, finite, strictly
    increasing and t >= 0; the one time-grid contract of the package. The copy
    is the caller's to freeze, so the array passed in stays writable."""
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise DomainError("times must be a 1-d grid")
    if not (times[0] >= 0.0 and np.all(np.diff(times) > 0.0) and times[-1] < np.inf):
        raise DomainError("times must be a strictly increasing grid of finite t >= 0")
    return times


def grid_from_zero(times) -> np.ndarray:
    """:func:`checked_grid`, starting at t = 0."""
    times = checked_grid(times)
    if times[0] != 0.0:
        raise DomainError("time grid must start at t = 0")
    return times


def propagate(scheme: Scheme, times) -> Trajectory:
    """Solve the scheme's ẋ = Ax + b exactly on the given grid from the vacuum x(0) = 0.

    x(t) = ∫₀ᵗ e^{As} b ds = V diag(φ(λ, t)) V⁻¹ b through the eigendecomposition
    A = VΛV⁻¹, with φ(λ, t) = expm1(λt)/λ and φ(0, t) = t. The t = 0 row is
    exactly zero, and a singular A (a dark mode, no dissipation) needs no fixed
    point. Only a defective A, cond(V) ≥ 1e8, is evaluated instead as the
    exponential of the augmented matrix [[A, b], [0, 0]]·t, in one batched
    call over the grid. Either way the result is exact up to linear-algebra
    roundoff. A trajectory that overflows, as a filter far past the CP bound
    makes it, raises ``PropagationError`` at its first non-finite time.
    """
    times = grid_from_zero(times)
    a, b = scheme.generator()

    eigvals, eigvecs = np.linalg.eig(a)
    with np.errstate(over="ignore", invalid="ignore"):  # a divergence is raised below
        if np.linalg.cond(eigvecs) < _COND_LIMIT:
            lam = eigvals[:, None]
            zero = lam == 0.0
            phi = np.where(zero, times, np.expm1(lam * times) / np.where(zero, 1.0, lam))
            x = (eigvecs @ (np.linalg.solve(eigvecs, b)[:, None] * phi)).T
        else:
            # affine flow as the last column of a 5x5 exponential; handles defective A
            aug = np.zeros((5, 5))
            aug[:4, :4] = a
            aug[:4, 4] = b
            x = expm(aug * times[:, None, None])[:, :4, 4]
    diverged = ~np.isfinite(x).all(axis=1)
    if diverged.any():
        raise PropagationError(f"propagation diverged at t = {times[diverged.argmax()]}")
    residue = np.abs(x.imag).max()
    if residue > 1e-9 * (1.0 + np.abs(x.real).max()):
        raise PropagationError(f"imaginary residue {residue:.2e} in eigen-propagation")
    x = x.real
    return Trajectory(times, x[:, 0], x[:, 1], x[:, 2] + 1j * x[:, 3])


def steady_state(scheme: Scheme) -> MomentState:
    """Fixed point −A⁻¹b of the scheme's moment system, accepted only when it
    solves Ax = −b to the residual tolerance."""
    a, b = scheme.generator()
    try:
        x = np.linalg.solve(a, -b)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError("generator matrix is singular") from exc
    if not np.allclose(a @ x, -b, atol=1e-12, rtol=1e-9):
        raise SteadyStateError("no reliable unique steady state (near-singular A)")
    return MomentState.from_vector(x)


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
    )
