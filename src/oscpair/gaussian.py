"""Eigenmode covariance matrices, the λ_c positivity diagnostic and Gaussian fidelity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, NonPhysicalStateError
from .moments import MomentState
from .spectral import CoefficientSet

#: symplectic form in the ladder ordering (γ₊, γ₊†, γ₋, γ₋†); iΞ = diag(1,−1,1,−1)
XI = np.diag([-1j, 1j, -1j, 1j])
XI.setflags(write=False)

#: unitary mapping ladder to quadrature ordering, r = 𝒱 (γ₊, γ₊†, γ₋, γ₋†)ᵀ
VCAL = 0.5 * np.array([
    [1, 1, 1, 1],
    [-1j, 1j, -1j, 1j],
    [1, 1, -1, -1],
    [-1j, 1j, 1j, -1j],
])
VCAL.setflags(write=False)


@dataclass(frozen=True)
class EigenmodeCovariance:
    """4×4 Hermitian covariance matrix Γ in the (γ₊, γ₊†, γ₋, γ₋†) ordering."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError("eigenmode covariance must be 4x4")
        scale = max(1.0, np.abs(m).max())
        if np.abs(m - m.conj().T).max() > 1e-12 * scale:
            raise ConsistencyError("eigenmode covariance is not Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def eigenmode_covariance(state: MomentState) -> EigenmodeCovariance:
    """Covariance of the zero-mean Gaussian state with the given moments:
    diagonals 2n± + 1, off-diagonal blocks 2⟨γ₋γ₊†⟩ and conjugates."""
    c = state.cross
    m = np.array([
        [2.0 * state.n_plus + 1.0, 0.0, np.conj(c) * 2.0, 0.0],
        [0.0, 2.0 * state.n_plus + 1.0, 0.0, 2.0 * c],
        [2.0 * c, 0.0, 2.0 * state.n_minus + 1.0, 0.0],
        [0.0, np.conj(c) * 2.0, 0.0, 2.0 * state.n_minus + 1.0],
    ], dtype=complex)
    return EigenmodeCovariance(m)


def lambda_c(state: MomentState) -> float:
    """Positivity diagnostic λ_c = ½ min eig(Γ + iΞ); negative ⇔ unphysical state.

    Evaluated through the closed form
    ½[n₊ + n₋ − sqrt((n₊−n₋)² + 4|⟨γ₋γ₊†⟩|²)] and cross-checked against the
    eigenvalue route on every call.
    """
    npl, nmi, c = state.n_plus, state.n_minus, state.cross
    closed = 0.5 * (npl + nmi - math.hypot(npl - nmi, 2.0 * abs(c)))
    gamma = eigenmode_covariance(state).matrix
    eig = 0.5 * np.linalg.eigvalsh(gamma + 1j * XI).min()
    scale = max(1.0, abs(npl) + abs(nmi) + abs(c))
    if abs(closed - eig) > 1e-8 * scale:
        raise ConsistencyError(
            f"lambda_c closed form {closed:.3e} and eigenvalue route {eig:.3e} disagree")
    return closed


def lambda_c_trajectory(traj) -> np.ndarray:
    """λ_c along a moment trajectory (vectorized closed form, spot-checked)."""
    npl, nmi = traj.n_plus, traj.n_minus
    vals = 0.5 * (npl + nmi - np.hypot(npl - nmi, 2.0 * np.abs(traj.cross)))
    for i in (0, len(vals) // 2, len(vals) - 1):  # eigenvalue route sampled
        lambda_c(traj.state(i))
    return vals


def lambda_c_short_time_slope(s: float, coeffs: CoefficientSet) -> float:
    """Initial slope of λ_c(t) from the ground state under the smoothed Redfield family.

    Equals ½[(γ⁽¹⁾₊₊+γ⁽¹⁾₋₋) − sqrt((γ⁽¹⁾₊₊−γ⁽¹⁾₋₋)² + 4s²|γ⁽¹⁾₊₋|²)] and is
    non-negative exactly when s² ≤ γ⁽¹⁾₊₊γ⁽¹⁾₋₋/|γ⁽¹⁾₊₋|², i.e. inside the
    i = 1 block of the positivity bound.
    """
    gpp = coeffs.gamma1[0, 0].real
    gmm = coeffs.gamma1[1, 1].real
    gpm = abs(coeffs.gamma1[0, 1])
    return 0.5 * ((gpp + gmm) - math.hypot(gpp - gmm, 2.0 * abs(s) * gpm))


def _covs(g1, g2):
    m1 = g1.matrix if isinstance(g1, EigenmodeCovariance) else np.asarray(g1, dtype=complex)
    m2 = g2.matrix if isinstance(g2, EigenmodeCovariance) else np.asarray(g2, dtype=complex)
    return m1, m2


def gaussian_fidelity_sq(gamma1, gamma2) -> tuple[float, bool]:
    """Squared Uhlmann fidelity of two zero-mean two-mode Gaussian states.

    F² = 1/(√b + √c − sqrt((√b+√c)² − a)) with
      a = 2⁻⁴ det(Γ₁+Γ₂),
      b = 2⁻⁴ det(ΞΓ₁ΞΓ₂ − 1),
      c = 2⁻⁴ det(Γ₁+iΞ) det(Γ₂+iΞ).

    Returns (Re F², physical). For physical inputs every intermediate is a
    non-negative real and the flag is True; values in (1, 1+1e−9] are then
    clamped to 1, and larger overshoot raises ``ConsistencyError``. States
    that violate the uncertainty relation (e.g. plain-Redfield outputs) drive
    the radicands complex, in which case the real part of the
    principal-branch value is reported, unclamped, with the flag False.
    """
    m1, m2 = _covs(gamma1, gamma2)
    a = np.linalg.det(m1 + m2) / 16.0
    b = np.linalg.det(XI @ m1 @ XI @ m2 - np.eye(4)) / 16.0
    c = np.linalg.det(m1 + 1j * XI) * np.linalg.det(m2 + 1j * XI) / 16.0
    tol = 1e-10 * max(1.0, abs(a), abs(b), abs(c))
    physical = (abs(a.imag) < tol and abs(b.imag) < tol and abs(c.imag) < tol
                and b.real > -tol and c.real > -tol)
    root = np.sqrt(complex(b)) + np.sqrt(complex(c))
    # (√b+√c)² − a expanded so close b, a cancel exactly instead of via root²
    inner = (b - a) + c + 2.0 * np.sqrt(complex(b) * complex(c))
    physical = physical and inner.real > -tol
    # conjugate form of 1/(root − sqrt(inner)): exact identity, no cancellation
    f2 = (root + np.sqrt(inner)) / a
    physical = physical and abs(f2.imag) < 1e-8 * max(1.0, abs(f2))
    if not physical:
        return float(f2.real), False
    if f2.real > 1.0 + 1e-9:
        raise ConsistencyError(f"squared fidelity {f2.real} exceeds 1 beyond roundoff")
    return min(float(f2.real), 1.0), True


def gaussian_fidelity(gamma1, gamma2) -> float:
    """Uhlmann fidelity F ∈ [0, 1] for physical zero-mean two-mode Gaussian states.

    Raises ``NonPhysicalStateError`` when either Γ + iΞ fails positive
    semidefiniteness beyond −1e−8 or the closed formula leaves the real
    axis; use :func:`gaussian_fidelity_sq` for the flagged real-part value.
    """
    m1, m2 = _covs(gamma1, gamma2)
    for m in (m1, m2):
        scale = max(1.0, np.abs(m).max())
        if np.linalg.eigvalsh(m + 1j * XI).min() < -1e-8 * scale:
            raise NonPhysicalStateError(
                "covariance violates the uncertainty relation; "
                "use gaussian_fidelity_sq for the flagged value")
    f2, physical = gaussian_fidelity_sq(m1, m2)
    if not physical:
        raise NonPhysicalStateError(
            "fidelity formula left the real axis; "
            "use gaussian_fidelity_sq for the flagged value")
    return math.sqrt(max(f2, 0.0))


def mixture_fidelity_lower_bound(f_loc, f_glob, mixture_rate: float, t):
    """Concavity bound e^{−𝒢t}·F_loc + (1−e^{−𝒢t})·F_glob ≤ F_mix.

    Takes fidelities (not squares); scalars or arrays over t.
    """
    f_loc = np.asarray(f_loc, dtype=float)
    f_glob = np.asarray(f_glob, dtype=float)
    if np.any((f_loc < 0) | (f_loc > 1)) or np.any((f_glob < 0) | (f_glob > 1)):
        raise DomainError("fidelities must lie in [0, 1]")
    w = np.exp(-mixture_rate * np.asarray(t, dtype=float))
    out = w * f_loc + (1.0 - w) * f_glob
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ABMoments:
    """Second moments in the physical mode basis: ⟨a†a⟩, ⟨b†b⟩, ⟨ab†⟩."""

    aa: float
    bb: float
    ab_dag: complex


def to_ab_basis(state: MomentState) -> ABMoments:
    """Eigenmode → a,b basis:
    ⟨a†a⟩±⟨b†b⟩ = (n₊+n₋) or 2Re⟨γ₋γ₊†⟩, ⟨ab†⟩ = ½(n₊−n₋) + i Im⟨γ₋γ₊†⟩.

    Also maps whole trajectories: given a :class:`~oscpair.moments.Trajectory`,
    each field of the result is an array over its time grid.
    """
    total = state.n_plus + state.n_minus
    return ABMoments(
        aa=0.5 * total + state.cross.real,
        bb=0.5 * total - state.cross.real,
        ab_dag=0.5 * (state.n_plus - state.n_minus) + 1j * state.cross.imag,
    )


def from_ab_basis(aa: float, bb: float, ab_dag: complex) -> MomentState:
    """Inverse of :func:`to_ab_basis`; the two are exact inverses.

    Also maps whole trajectories: with equal-shape arrays in, each field of
    the returned state is an array.
    """
    return MomentState(
        n_plus=0.5 * (aa + bb) + np.real(ab_dag),
        n_minus=0.5 * (aa + bb) - np.real(ab_dag),
        cross=0.5 * (aa - bb) + 1j * np.imag(ab_dag),
    )
