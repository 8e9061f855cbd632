"""Brute-force verification backend on a truncated two-mode Fock space.

Every state the oracle builds and every scheme's generator conserves the
total excitation N = n_a + n_b, and so does the per-mode cutoff n_a, n_b < d.
A density matrix is therefore stored as its total-excitation blocks: block N
holds the states |n_a, N − n_a⟩ in increasing n_a, min(N+1, 2d−1−N) ≤ d of
them, and the 2d−1 blocks are stacked, zero-padded at the end, into an array
of shape (2d−1, d, d). The ladder operators are the per-mode truncated ones,
so block storage reproduces the d² × d² truncation exactly, and the state
routines are batched products over the stack.

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

In that frame the master equation is linear in ρ and depends on t only
through e^{±iΔt}, Δ = ω₊ − ω₋, so its generator is L₀ + e^{iΔt}L₊ + e^{−iΔt}L₋
= L₀ + cos(Δt)(L₊ + L₋) + sin(Δt)·i(L₊ − L₋): the ++ and −− terms make L₀, +−
and −+ make L₊ and L₋, and each of the three groups maps a Hermitian ρ to a
Hermitian one. So the integrator state is real: Re of each stored entry of the
block stack on or above the diagonal and Im of each one above it, Σ_N d_N² =
d(2d² + 1)/3 numbers (1834 at d = 14, against 5292 complex entries of the
padded stack), and the three groups are real sparse matrices on them. In the
per-mode ladders a, b every term sends each entry of ρ to one entry, so the
drift is tridiagonal within a block and the gain and loss terms gather from
blocks N∓1; a term's complex coefficient c acts on the real coordinates of its
source entry through Re c and Im c. The groups' common sparsity pattern, with
the value of Re c and of Im c of each ladder term on it, is built once per
cutoff (``_Pattern`` gives what it keeps and what its build peaks at); a scheme
only fills in the three data vectors, and each group keeps the pattern entries
where it is nonzero, about two thirds of them. A right-hand side costs the
O(d³) nonzeros of the generator, about 27 000 reals per group at d = 14, and
no dense product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .errors import CutoffError, DomainError, NonPhysicalStateError
from .moments import MomentState, Scheme, grid_from_zero

BOUNDARY_TOL = 1e-6
THERMAL_TAIL_TOL = 1e-8
#: relative and absolute tolerances of the master-equation integrator
_RTOL = 1e-10
_ATOL = 1e-12
#: γ_σ = Σ_m _AB[σ, m] x_m over the per-mode ladders x = (a, b)
_AB = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
#: the (σ, σ') weights of the phase groups 1, cos Δt and sin Δt, which sum to
#: the phase e^{i(ω_σ−ω_σ')t}: e^{iΔt} on +−, e^{−iΔt} on −+
_GROUPS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])


@dataclass(frozen=True)
class _Layout:
    """The block stack of cutoff d: state |n_a, n_b⟩ sits in block N = n_a + n_b
    at slot n_a − max(0, N−d+1)."""

    mask: np.ndarray    # (2d−1, d, d) True on stored entries, False on padding
    edge: np.ndarray    # (2d−1, d) True on the slots with n_a or n_b at d−1
    ladder: np.ndarray  # (2, 2d−1, d, d): ladder[m, N] is a (m = 0) or b from block N into N−1
    lower: np.ndarray   # (2, 2d−1, d, d): lower[σ, N] is γ_σ from block N into block N−1
    upper: tuple        # index arrays (N, i, j) of the stored entries with i ≤ j
    off: np.ndarray     # True on the entries of ``upper`` with i < j


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
    mask = stored[:, :, None] & stored[:, None, :]
    upper = np.nonzero(mask & np.triu(np.ones((d, d), dtype=bool)))
    layout = _Layout(mask, edge, ladder, lower, upper, upper[1] < upper[2])
    for arr in (layout.mask, layout.edge, layout.ladder, layout.lower, layout.off, *upper):
        arr.setflags(write=False)
    return layout


def _coordinates(blocks: np.ndarray) -> np.ndarray:
    """The Σ_N d_N² real coordinates of a Hermitian block stack: Re of each stored
    entry on or above the diagonal, then Im of each stored entry above it."""
    lay = _layout(blocks.shape[-1])
    upper = blocks[lay.upper]
    return np.concatenate([upper.real, upper[lay.off].imag])


def _from_coordinates(y: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian block stack of cutoff d with real coordinates y (see
    ``_coordinates``), zero on the padding."""
    lay = _layout(d)
    n_blocks, rows, cols = lay.upper
    vals = np.zeros(rows.size, dtype=complex)
    vals.real = y[:rows.size]
    vals.imag[lay.off] = y[rows.size:]
    blocks = np.zeros((2 * d - 1, d, d), dtype=complex)
    blocks[n_blocks, cols, rows] = vals.conj()
    blocks[n_blocks, rows, cols] = vals
    return blocks


@dataclass(frozen=True)
class _Pattern:
    """The master-equation generator of cutoff d on the real coordinates of the
    block stack, as a CSR pattern shared by every scheme and phase group, and the
    value that the real and the imaginary part of the coefficient of each of the
    24 ladder terms put on each pattern entry.

    Kept once per cutoff: 39 352 entries and 75 868 term values, 1.18 MiB, at
    d = 14, and 30.4 MiB at d = 40. The build works in one table of int32 keys
    and float64 values, a cell per generator row and coefficient column, sorted
    row by row; its traced peak, ``_layout`` included, is 2.2 times what it
    keeps at d = 14 (2.6 MiB) and 2.0 times at d = 40 (60 MiB). Each phase
    group of a scheme then keeps about two thirds of the entries (0.32 MiB for
    the global scheme's one group at d = 14). Index arithmetic stays exact for
    every cutoff: a key is generator column · 48 + coefficient column, in int32
    up to d = 406 and int64 beyond, and no row · size + column index is formed,
    which in int32 would overflow past d = 41."""

    indptr: np.ndarray
    indices: np.ndarray
    terms: sparse.csr_matrix   # (nnz, 48): columns Re c, Im c per term of _coefficients


def _monomial(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and value of the nonzero in each row of a batch of matrices with at
    most one nonzero per row (column 0 and value 0 in an empty row)."""
    cols = np.abs(ops).argmax(axis=-1)
    return cols, np.take_along_axis(ops, cols[..., None], axis=-1)[..., 0]


def _ladder_terms(d: int, dtype) -> tuple[np.ndarray, ...]:
    """The 24 ladder terms of the master equation on the upper-triangle entries
    (N, i, j) of the block stack, as (term, entry) arrays: the value that each
    term puts on out[N, i, j] from one source entry of ρ, the coordinates (of
    ``dtype``) of Re and of Im of that entry's upper-triangle representative
    (−1 for Im on the diagonal), and the sign of that Im."""
    lay = _layout(d)
    n_blocks, rows, cols = lay.upper
    low = lay.ladder                       # x_m from block N into N−1
    low_next = np.zeros_like(low)
    low_next[:, :-1] = low[:, 1:]          # x_m from block N+1 into N
    up, up_next = low.swapaxes(-1, -2), low_next.swapaxes(-1, -2)
    eye = np.eye(d) * np.diagonal(lay.mask, axis1=1, axis2=2)[:, :, None]
    # every term maps block N+shift to block N as ρ ↦ P ρ Q; each ladder is a
    # weighted partial permutation, so out[N, i, j] reads one entry of ρ per term
    monomials = []
    for m in range(2):
        for mp in range(2):
            hop = up[m] @ low[mp]                 # x_m†x_m' within block N
            back = low_next[mp] @ up_next[m]      # x_m'x_m† within block N
            for p, q, shift in ((hop, eye, 0), (back, eye, 0), (eye, hop, 0), (eye, back, 0),
                                (up[m], low[mp], -1), (low_next[mp], up_next[m], 1)):
                monomials.append((*_monomial(p), *_monomial(q.swapaxes(-1, -2)), shift))
    p_col, p_val, q_row, q_val, shift = map(np.stack, zip(*monomials))
    val = p_val[:, n_blocks, rows] * q_val[:, n_blocks, cols]
    src_row, src_col = p_col[:, n_blocks, rows], q_row[:, n_blocks, cols]
    # clipped where N + shift leaves the stack, and the value is 0 there
    src_block = np.clip(n_blocks + shift[:, None], 0, 2 * d - 2)
    re_at = np.zeros((2 * d - 1, d, d), dtype=dtype)
    re_at[n_blocks, rows, cols] = re_at[n_blocks, cols, rows] = np.arange(rows.size)
    im_at = np.full_like(re_at, -1)
    off = lay.off
    im = np.arange(rows.size, rows.size + int(off.sum()))
    im_at[n_blocks[off], rows[off], cols[off]] = im_at[n_blocks[off], cols[off], rows[off]] = im
    src = ((src_block * d + src_row) * d + src_col).ravel()
    return (val, re_at.ravel()[src].reshape(val.shape), im_at.ravel()[src].reshape(val.shape),
            np.sign(src_col - src_row))


@lru_cache(maxsize=8)
def _pattern(d: int) -> _Pattern:
    lay = _layout(d)
    n_re, size = lay.off.size, lay.off.size + int(lay.off.sum())
    n_cols = 48                           # Re c and Im c of each of the 24 ladder terms
    # the narrowest exact index dtype: the record keys below reach n_cols·size,
    # past the int32 range from d = 407 on
    idx = np.int32 if n_cols * size < np.iinfo(np.int32).max else np.int64
    val, re_src, im_src, sign = _ladder_terms(d, idx)
    # with the term's coefficient c' + ic'' and its source entry x' + isx'', x' and
    # x'' the coordinates of the representative, Re out = c'x' − sc''x'' and
    # Im out = c''x' + sc'x''. The records form a table with one row per generator
    # row (the Re coordinates, then the Im ones) and one cell per coefficient
    # column 2·term + (0 for c', 1 for c''); a cell's key is the generator
    # column times n_cols plus its coefficient column, ``missing`` on no record.
    missing = n_cols * size
    keys = np.full((size, n_cols // 2, 2), missing, dtype=idx)
    values = np.zeros((size, n_cols // 2, 2))
    column = np.arange(n_cols, dtype=idx).reshape(-1, 2, 1)
    off = lay.off
    for out, part, src, value in ((slice(0, n_re), 0, re_src, val),
                                  (slice(0, n_re), 1, im_src, -sign * val),
                                  (slice(n_re, size), 1, re_src[:, off], val[:, off]),
                                  (slice(n_re, size), 0, im_src[:, off], (sign * val)[:, off])):
        keys[out, :, part] = np.where((value != 0) & (src >= 0),
                                      src * n_cols + column[:, part], missing).T
        values[out, :, part] = value.T
    del val, re_src, im_src, sign
    # each (generator entry, coefficient column) pair occurs once: sorting the
    # keys of each row orders its records by entry, with the missing cells last,
    # and the terms matrix is CSR in that order
    keys, values = keys.reshape(size, n_cols), values.reshape(size, n_cols)
    keys.sort(axis=1)
    values = np.take_along_axis(values, keys % n_cols, axis=1)
    valid = keys != missing
    row_start = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(valid.sum(axis=1), out=row_start[1:])
    data = values[valid]
    del values
    coef_col = keys[valid]
    del keys, valid
    gen_col = coef_col // n_cols
    coef_col -= gen_col * n_cols
    # a pattern entry starts at each record whose generator column differs
    # from the one before it in the same row
    first = np.ones(coef_col.size, dtype=bool)
    np.not_equal(gen_col[1:], gen_col[:-1], out=first[1:])
    first[row_start[:-1][np.diff(row_start) > 0]] = True
    starts = np.flatnonzero(first)
    del first
    terms = sparse.csr_matrix((data, coef_col, np.append(starts, coef_col.size).astype(idx)),
                              shape=(starts.size, n_cols))
    pattern = _Pattern(np.searchsorted(starts, row_start).astype(idx), gen_col[starts], terms)
    for arr in (pattern.indptr, pattern.indices):
        arr.setflags(write=False)
    return pattern


def _coefficients(scheme: Scheme) -> np.ndarray:
    """(3, 48) real coefficients of ``_pattern``, Re c and Im c of each ladder term
    in the a, b basis, in the phase groups 1, cos Δt and sin Δt."""

    def ab(mat):  # Σ over the group's (σ, σ') of mat_σσ' weight_σσ' _AB[σ, m] _AB[σ', m']
        return _AB.T @ (mat * _GROUPS) @ _AB

    u, w, h = scheme.u, scheme.w, scheme.h
    # ρk† carries the conjugate phases: the right-hand factors read (u, w, h)†
    u_r, w_r, h_r = u.conj().T, w.conj().T, h.conj().T
    kinds = (-1j * ab(h) - 0.5 * ab(w), -0.5 * ab(u), 1j * ab(h_r) - 0.5 * ab(w_r),
             -0.5 * ab(u_r), ab(u), ab(w))
    coeffs = np.stack(kinds, axis=-1).reshape(3, -1)
    return np.stack([coeffs.real, coeffs.imag], axis=-1).reshape(3, -1)


def _phase_group(pattern: _Pattern, coeffs: np.ndarray) -> sparse.csr_matrix:
    """The generator of one phase group with real coefficients ``coeffs`` (48,)
    of ``_pattern``, on the pattern entries where it is nonzero: a scheme leaves
    about a third of the pattern, and the global scheme all of the phased
    groups, at 0."""
    values = pattern.terms @ coeffs
    kept = np.flatnonzero(values != 0)
    values = values[kept]
    indptr = np.searchsorted(kept, pattern.indptr).astype(pattern.indptr.dtype)
    size = indptr.size - 1
    return sparse.csr_matrix((values, pattern.indices[kept], indptr), shape=(size, size))


def _master_rhs(scheme: Scheme, d: int):
    """Right-hand side of the interaction-picture master equation on the real
    coordinates of the block stack of cutoff d: (L₀ + cos(Δt)L_c + sin(Δt)L_s)y
    with Δ = ω₊ − ω₋."""
    pattern = _pattern(d)
    l0, l_c, l_s = (_phase_group(pattern, coeffs) for coeffs in _coefficients(scheme))
    if not (l_c.nnz or l_s.nnz):  # diagonal u, w and h (the global scheme): no phased terms
        return lambda t, y: l0 @ y
    gap = float(scheme.omegas[0]) - float(scheme.omegas[1])

    def rhs(t, y):
        return l0 @ y + math.cos(gap * t) * (l_c @ y) + math.sin(gap * t) * (l_s @ y)

    return rhs


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
    tail (ν/(ν+1))^d of each eigenmode below 1e−8 (else ``CutoffError``);
    negative or non-finite occupations and a non-finite ``cross`` raise
    ``DomainError``.
    """
    if d < 2:
        raise DomainError("cutoff must be at least 2")
    if not np.isfinite([n_plus, n_minus, cross]).all():
        raise DomainError("occupations and cross must be finite")
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
    every output time, raising ``CutoffError`` above 1e−6. The output times
    must pass :func:`~oscpair.moments.grid_from_zero` (else ``DomainError``).

    The integrator state is the Σ_N d_N² = d(2d² + 1)/3 real coordinates of the
    Hermitian block stack (1834 at d = 14): Re of each stored entry on or above
    the diagonal, Im of each one above it. Each right-hand side is three real
    sparse matrix-vector products on them, one per phase group 1, cos Δt and
    sin Δt, or one when u, w and h are diagonal (see the module docstring): the
    drift acts within block N, the gain terms u·γ†ργ read block N−1 and the loss
    terms w·γργ† read block N+1. The coordinates become a block stack again only
    at the output times.
    """
    times = grid_from_zero(times)
    d = rho0.cutoff
    lay = _layout(d)
    rhs = _master_rhs(scheme, d)

    # the nearest Hermitian stack: TruncatedState admits a drift of 1e-9
    ys = [_coordinates(0.5 * (rho0.blocks + _dag(rho0.blocks)))]
    # each output time is a step end: DOP853's dense-output interpolant between
    # steps is not error-controlled. The next interval starts from the last
    # untruncated step size instead of a fresh initial-step estimate.
    step = None
    for t0, t1 in zip(times[:-1], times[1:]):
        sol = solve_ivp(rhs, (t0, t1), ys[-1], method="DOP853", rtol=_RTOL, atol=_ATOL,
                        first_step=None if step is None else min(step, t1 - t0))
        if not sol.success:
            raise CutoffError(f"master-equation integration failed: {sol.message}")
        ys.append(sol.y[:, -1].copy())  # not a view that keeps all of sol.y
        steps = np.diff(sol.t)
        step = steps[-2] if steps.size > 1 else steps[-1]

    omegas = np.asarray(scheme.omegas, dtype=float)
    h_s = (omegas[:, None, None, None] * (_dag(lay.lower) @ lay.lower)).sum(axis=0)
    evals, evecs = np.linalg.eigh(h_s)
    out = []
    for t, y in zip(times, ys):
        rho = _from_coordinates(y, d)
        if t != 0.0:
            rot = (evecs * np.exp(-1j * evals * t)[:, None, :]) @ _dag(evecs)
            rho = rot @ rho @ _dag(rot)
        rho = np.where(lay.mask, 0.5 * (rho + _dag(rho)), 0.0)
        state = TruncatedState(rho, d)  # validates the trace
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
