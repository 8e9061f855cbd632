"""λ_c positivity diagnostic, Gaussian fidelity and the a/b basis change.

A zero-mean excitation-conserving two-mode Gaussian state is fixed by its
moments (n₊, n₋, ⟨γ₋γ₊†⟩), so the diagnostics are 2×2 closed forms in them,
evaluated elementwise on a :class:`~oscpair.moments.MomentState` or a whole
trajectory; the uncertainty test is the ``physical`` flag of
:func:`gaussian_fidelity_sq`. The 4×4 covariance of
:func:`eigenmode_covariance` is the eigenvalue route the tests check these
closed forms against.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DomainError, NonPhysicalStateError
from .moments import MomentState


def eigenmode_covariance(state: MomentState) -> np.ndarray:
    """4×4 covariance Γ in the (γ₊, γ₊†, γ₋, γ₋†) ordering: diagonals
    2n± + 1, off-diagonal blocks 2⟨γ₋γ₊†⟩ and conjugates."""
    c = state.cross
    return np.array([
        [2.0 * state.n_plus + 1.0, 0.0, np.conj(c) * 2.0, 0.0],
        [0.0, 2.0 * state.n_plus + 1.0, 0.0, 2.0 * c],
        [2.0 * c, 0.0, 2.0 * state.n_minus + 1.0, 0.0],
        [0.0, np.conj(c) * 2.0, 0.0, 2.0 * state.n_minus + 1.0],
    ], dtype=complex)


def lambda_c_trajectory(traj):
    """Positivity diagnostic λ_c = ½ min eig(Γ + iΞ); negative ⇔ unphysical state.

    Evaluated through the closed form
    ½[n₊ + n₋ − sqrt((n₊−n₋)² + 4|⟨γ₋γ₊†⟩|²)], elementwise along a moment
    trajectory, or as a scalar for a single state.
    """
    npl, nmi = traj.n_plus, traj.n_minus
    return 0.5 * (npl + nmi - np.hypot(npl - nmi, 2.0 * np.abs(traj.cross)))


def _violates_uncertainty(state):
    """2λ_c = min eig(Γ + iΞ) below −1e−8 of the covariance scale, elementwise."""
    u, v, q = _doubled(state)
    scale = np.maximum(np.maximum(1.0, np.abs(u + 1.0)),
                       np.maximum(np.abs(v + 1.0), np.abs(q)))
    return 2.0 * lambda_c_trajectory(state) < -1e-8 * scale


def _doubled(state):
    """(u, v, q) = (2n₊, 2n₋, 2⟨γ₋γ₊†⟩), so that G = [[u+1, q*], [q, v+1]]."""
    return (2.0 * np.asarray(state.n_plus), 2.0 * np.asarray(state.n_minus),
            2.0 * np.asarray(state.cross))


def _abs2(z):
    # products only, so scalars and arrays round alike (numpy's x**2 does not)
    return z.real * z.real + z.imag * z.imag


def gaussian_fidelity_sq(state1, state2):
    """Squared Uhlmann fidelity of two zero-mean two-mode Gaussian states.

    F² = 1/(√b + √c − sqrt((√b+√c)² − a)) with a = 2⁻⁴ det(Γ₁+Γ₂),
    b = 2⁻⁴ det(ΞΓ₁ΞΓ₂ − 1), c = 2⁻⁴ det(Γ₁+iΞ) det(Γ₂+iΞ) (Marian & Marian,
    PRA 86, 022340). In the ordering (γ₊, γ₋, γ₊†, γ₋†), Γ = G ⊕ Gᵀ with
    G = [[p, q*], [q, m]], p = 2n₊+1, m = 2n₋+1, q = 2⟨γ₋γ₊†⟩, and
    iΞ = I ⊕ (−I), so with D(x) = (p+x)(m+x) − |q|²
      a = A²/16, A = (p₁+p₂)(m₁+m₂) − |q₁+q₂|²,
      b = B²/16, B = D₁(0)D₂(0) + p₁p₂ + m₁m₂ + 2Re(q₁*q₂) + 1,
      c = D₁(1)D₁(−1)D₂(1)D₂(−1)/16.
    In u = p − 1, v = m − 1, B − A = D₁(−1)D₂(−1) + D₁(−1)(u₂+v₂) +
    D₂(−1)(u₁+v₁) + 2(u₁u₂ + v₁v₂) + 4Re(q₁*q₂) has no large cancelling
    terms; (√b+√c)² − a vanishes between pure states, and its square root
    would magnify the roundoff of b − a taken as a difference of squares.

    Takes states or trajectories (elementwise) and returns (Re F², physical),
    floats for two states. For physical inputs every intermediate is a
    non-negative real and the flag is True; values in (1, 1+1e−9] are then
    clamped to 1, and larger overshoot raises ``ConsistencyError``. A pair
    with an input that violates the uncertainty relation (2λ_c below
    −1e−8 of its scale; e.g. a plain-Redfield output) or that drives the
    radicands complex is reported as the real part of the principal-branch
    value, unclamped, with the flag False.
    """
    u1, v1, q1 = _doubled(state1)
    u2, v2, q2 = _doubled(state2)
    # D(−1) = uv − |q|², D(0) = D(−1) + u + v + 1, D(1) = D(−1) + 2(u + v) + 4
    e1, e2 = u1 * v1 - _abs2(q1), u2 * v2 - _abs2(q2)
    big_a = (u1 + u2 + 2.0) * (v1 + v2 + 2.0) - _abs2(q1 + q2)
    b_minus_a = (e1 * e2 + (e1 * (u2 + v2) + e2 * (u1 + v1)) + 2.0 * (u1 * u2 + v1 * v2)
                 + 4.0 * (q1.real * q2.real + q1.imag * q2.imag))
    big_b = big_a + b_minus_a
    a, b = big_a * big_a / 16.0, big_b * big_b / 16.0
    c = ((e1 + 2.0 * (u1 + v1) + 4.0) * e1) * ((e2 + 2.0 * (u2 + v2) + 4.0) * e2) / 16.0
    tol = 1e-10 * np.maximum(np.maximum(1.0, a), np.maximum(b, np.abs(c)))
    root = np.sqrt(b) + np.sqrt(c + 0j)
    # (√b+√c)² − a expanded, with b − a = (B − A)(B + A)/16
    inner = b_minus_a * (big_b + big_a) / 16.0 + c + 2.0 * np.sqrt(b * c + 0j)
    # conjugate form of 1/(root − sqrt(inner)): exact identity, no cancellation
    f2 = (root + np.sqrt(inner)) / a
    # a pure state's D(−1) = 0 makes c = 0 whatever the other state, so c
    # and inner alone miss a violated uncertainty relation: test each input
    physical = ((c > -tol) & (inner.real > -tol)
                & (np.abs(f2.imag) < 1e-8 * np.maximum(1.0, np.abs(f2)))
                & ~_violates_uncertainty(state1) & ~_violates_uncertainty(state2))
    over = physical & (f2.real > 1.0 + 1e-9)
    if over.any():
        raise ConsistencyError(
            f"squared fidelity {np.asarray(f2.real)[over].max()} exceeds 1 beyond roundoff")
    re_f2 = np.where(physical, np.minimum(f2.real, 1.0), f2.real)
    return (float(re_f2), bool(physical)) if re_f2.ndim == 0 else (re_f2, physical)


def gaussian_fidelity(state1, state2):
    """Uhlmann fidelity F ∈ [0, 1] for physical zero-mean two-mode Gaussian states.

    Takes states or trajectories as :func:`gaussian_fidelity_sq` does. Raises
    ``NonPhysicalStateError`` wherever that function's ``physical`` flag is
    False: an input violates the uncertainty relation or the closed formula
    leaves the real axis. Use :func:`gaussian_fidelity_sq` for the flagged
    real-part value.
    """
    f2, physical = gaussian_fidelity_sq(state1, state2)
    if not np.all(physical):
        raise NonPhysicalStateError(
            "non-physical fidelity input (uncertainty relation violated or "
            "formula off the real axis); use gaussian_fidelity_sq for the flagged value")
    f = np.sqrt(np.maximum(f2, 0.0))
    return float(f) if np.ndim(f) == 0 else f


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


def to_ab_basis(state: MomentState) -> tuple[float, float, complex]:
    """Eigenmode → a,b basis, the triple (⟨a†a⟩, ⟨b†b⟩, ⟨ab†⟩):
    ⟨a†a⟩±⟨b†b⟩ = (n₊+n₋) or 2Re⟨γ₋γ₊†⟩, ⟨ab†⟩ = ½(n₊−n₋) + i Im⟨γ₋γ₊†⟩.

    Also maps whole trajectories: given a :class:`~oscpair.moments.Trajectory`,
    each entry of the triple is an array over its time grid.
    """
    total = state.n_plus + state.n_minus
    return (0.5 * total + state.cross.real,
            0.5 * total - state.cross.real,
            0.5 * (state.n_plus - state.n_minus) + 1j * state.cross.imag)


def from_ab_basis(aa: float, bb: float, ab_dag: complex) -> MomentState:
    """Inverse of :func:`to_ab_basis`, so ``from_ab_basis(*to_ab_basis(s))``
    round-trips; the two are exact inverses.

    Also maps whole trajectories: with equal-shape arrays in, each field of
    the returned state is an array.
    """
    return MomentState(
        n_plus=0.5 * (aa + bb) + np.real(ab_dag),
        n_minus=0.5 * (aa + bb) - np.real(ab_dag),
        cross=0.5 * (aa - bb) + 1j * np.imag(ab_dag),
    )
