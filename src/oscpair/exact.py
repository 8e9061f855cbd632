"""Exact dynamics of the full system + discretized-bath model.

ℋ has equal x–x and p–p couplings, so the Hamiltonian is passive:
H = Σ h_ij a_i†a_j (+ const) over the M+2 modes (A, B, c_1…c_M), with h a
real symmetric arrowhead: head A, h_AA = h_BB = ω0, h_AB = g, h_Ak = γ_k and
h_kk = ω_k. The mode operators evolve as a(t) = U(t)a with U = e^{−iht},
which is symmetric, so every system moment is a sum over the bath of
products of the vectors ψ_i(t) = e^{−iht}e_i, i = A, B.
:func:`exact_trajectory` expands them in Chebyshev polynomials of
ĥ = (h − c)/r, where [c − r, c + r] holds the spectrum of h (Jacobi–Anger):

    e^{−iht}e_i = e^{−ict} Σ_n (2 − δ_n0)(−i)^n J_n(rt) T_n(ĥ)e_i.

The real vectors T_n(ĥ)e_i come from the three-term recurrence, one O(M)
arrowhead product per term, and the J_n(rt) from Miller's backward
recurrence. No eigensolver runs: the cost is O(N·M) for the vectors and
O(T·N·M) for the amplitudes on T time points, with N ≈ r·t_max terms. Within
one expansion every time point is independent (no stepping error); a longer
horizon restarts the expansion every _TERMS terms. At t = 0 only J_0 is
nonzero, so the t = 0 output is the initial state exactly.

The amplitudes are one product, (Bessel weights)ᵀ · (vectors), per parity of
n, computed in one loop: blocks of times outside, chunks of terms inside,
blocked along the product's smaller side. An expansion over at least half as
many times as terms keeps all N vectors in one chunk and takes the times a
block at a time; one over fewer times takes all its times in one block and
runs the recurrence a chunk of terms at a time. Either way an expansion holds
O(min(T, N)·M) values, not O(N·M): a coarse grid over a long horizon costs
memory by its points.

:func:`build_full_model` assembles the same model on the 2M+4 canonical
coordinates and diagonalizes 𝓜 = iΩℋ. No output of the program goes through
it; it stays here because the benchmark's tracer (``perfbench/tracing.py``)
wraps it by name. The phase-space covariance route built on it and the
mode-space eigendecomposition route, the independent references that the
tests compare :func:`exact_trajectory` against, live in
``tests/phase_space.py`` and ``tests/mode_space.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, PropagationError
from .gaussian import from_ab_basis
from .moments import Trajectory, checked_grid
from .params import ModelParams, bose_factor
from .spectral import bath_modes


@dataclass(frozen=True)
class FullModel:
    """Arrow-structured Hamiltonian matrix plus its symplectic diagonalization."""

    params: ModelParams
    hmat: np.ndarray          # (2M+4)² real symmetric
    omega: np.ndarray         # symplectic form, 2×2 antisymmetric blocks
    eigenvalues: np.ndarray   # spectrum of 𝓜 = iΩℋ, real, ± paired
    eigenvectors: np.ndarray  # unitary, columns are eigenvectors of 𝓜

    def __post_init__(self):
        for name in ("hmat", "omega", "eigenvalues", "eigenvectors"):
            getattr(self, name).setflags(write=False)

    @property
    def size(self) -> int:
        return self.hmat.shape[0]


def build_full_model(params: ModelParams) -> FullModel:
    """Assemble ℋ and Ω and diagonalize 𝓜 = iΩℋ.

    ℋ couples only through the first two coordinate pairs (mode A): ω0 on
    the four system diagonals, g between the A and B pairs, γ_k between A
    and bath mode k, ω_k on the bath diagonals. For this exchange-coupled
    structure 𝓜 is exactly Hermitian, so the diagonalization is an eigh and
    V is unitary by construction.
    """
    m = params.M
    n = 2 * m + 4
    omega_k, gamma_k = bath_modes(params)

    hmat = np.zeros((n, n))
    hmat[0, 0] = hmat[1, 1] = hmat[2, 2] = hmat[3, 3] = params.omega0
    hmat[0, 2] = hmat[2, 0] = hmat[1, 3] = hmat[3, 1] = params.g
    idx = 4 + 2 * np.arange(m)
    hmat[idx, idx] = omega_k
    hmat[idx + 1, idx + 1] = omega_k
    hmat[0, idx] = hmat[idx, 0] = gamma_k
    hmat[1, idx + 1] = hmat[idx + 1, 1] = gamma_k

    omega = np.zeros((n, n))
    pair = 2 * np.arange(m + 2)
    omega[pair, pair + 1] = 1.0
    omega[pair + 1, pair] = -1.0

    big_m = 1j * omega @ hmat
    herm_defect = np.abs(big_m - big_m.conj().T).max()
    if herm_defect > 1e-12 * max(1.0, np.abs(big_m).max()):
        raise ConsistencyError(f"i*Omega*H deviates from Hermitian by {herm_defect:.2e}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(big_m)
    except np.linalg.LinAlgError as exc:
        raise PropagationError(
            f"eigendecomposition failed (size {n}, cond(H) ~ "
            f"{np.linalg.cond(hmat):.2e})") from exc
    return FullModel(params, hmat, omega, eigenvalues, eigenvectors)


class ExactRun(NamedTuple):
    """System moments and energy split of the exact model on one time grid.

    ``energies`` has shape (len(times), 4) with the columns in the order
    (e_s0, e_sg, e_1, e_e): ⟨H_S,0⟩ vacuum-zeroed, ⟨H_S,g⟩, ⟨H_1⟩, and ⟨H_E⟩
    as the change from t = 0.
    """

    trajectory: Trajectory
    energies: np.ndarray


#: Chebyshev terms of one expansion at most. Later times restart the expansion
#: from ψ at the end of its reach, so no expansion needs more whatever t_max
#: is; the presets' horizon (r·t_max ≈ 450, 547 terms) fits in one expansion.
_TERMS = 1024
#: e^{−_TAIL} ≈ 1e-18 bounds every Bessel value J_n(x) dropped past the order
#: that :func:`_bessel_order` gives, so the dropped terms move no output
_TAIL = 41.5
#: values per block of times of an expansion that keeps all its vectors, in
#: the block's Bessel table and amplitudes: a block holds about this many
#: (4 MB), and at least 64 times
_BLOCK_VALUES = 2**19


def _kapteyn_exponent(n, x):
    """n·(arccosh(n/x) − √(1 − x²/n²)), for 0 < x ≤ n.

    Kapteyn's inequality bounds |J_n(x)| by e^{−exponent}; the exponent
    grows with n and falls with x.
    """
    z = x / n
    w = np.sqrt(1.0 - z * z)
    return n * (np.log1p(w) - np.log(z) - w)


def _bessel_order(x: np.ndarray) -> np.ndarray:
    """Per x, the smallest n ≥ x with |J_m(x)| ≤ e^{−_TAIL} for every m ≥ n; 0 at x = 0.

    Integer bisection on Kapteyn's bound. Below x = 1e-300, J_1(x) = x/2 is
    dropped too, which keeps 2/x finite in :func:`_bessel_table`.
    """
    order = np.zeros(x.shape, dtype=np.int64)
    live = x > 1e-300
    xl = x[live]
    lo = np.ceil(xl) - 1.0                                  # fails, or lies below x
    hi = np.ceil(np.maximum(math.e**2 * xl, _TAIL))         # passes: exponent ≥ n there
    while np.any(hi - lo > 1.0):
        mid = lo + np.maximum(np.floor(0.5 * (hi - lo)), 1.0)
        ok = _kapteyn_exponent(mid, xl) >= _TAIL
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    order[live] = hi
    return order


def _bessel_table(x: np.ndarray, order: np.ndarray) -> np.ndarray:
    """J_n(x) for n = 0…max(order), as rows n of a (max(order) + 1, len(x)) array.

    Miller's backward recurrence J_{n−1} = (2n/x)J_n − J_{n+1}, started from
    1 at each x's own ``order`` (:func:`_bessel_order`) and normalized by
    J_0 + 2ΣJ_2k = 1. A column grows by about 1/J_order(x) before the
    normalization, which stays finite for x > 1e-300 (2/x at order 1).
    Entries above a column's order are zero; at x = 0 the column is (1, 0, 0, …).
    """
    top = int(order.max())
    j = np.zeros((top + 2, x.size))
    j[order, np.arange(x.size)] = 1.0
    two_x = np.divide(2.0, x, out=np.zeros_like(x), where=order > 0)
    rows, tmp = list(j), np.empty(x.size)
    for n in range(top, 0, -1):
        np.multiply(two_x, rows[n], out=tmp)
        tmp *= n
        tmp -= rows[n + 1]
        rows[n - 1] += tmp
    j = j[:-1]
    j /= j[0] + 2.0 * j[2::2].sum(axis=0)
    return j


def _reach() -> float:
    """The largest x whose :func:`_bessel_order` stays below _TERMS, by bisection."""
    n = _TERMS - 1
    lo, hi = 0.0, float(n)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _kapteyn_exponent(n, mid) >= _TAIL:
            lo = mid
        else:
            hi = mid
    return lo


_REACH = _reach()


def _spectral_interval(params: ModelParams, omega_k: np.ndarray,
                       gamma_k: np.ndarray) -> tuple[float, float]:
    """Centre c and half-width r of an interval that holds the spectrum of h.

    Each eigenvalue of the arrowhead is either the diagonal of an uncoupled
    arm or a root of the secular function f(λ) = λ − ω0 − Σ_j z_j²/(λ − d_j),
    with poles d_j = (ω0, ω_k) and weights z_j² = (g², γ_k²). f increases
    between poles, so its lowest root lies below every weighted pole and its
    highest above; both are bisected at once, O(M) per step.
    """
    arms = np.concatenate(([params.omega0], omega_k))
    weights = np.concatenate(([params.g**2], gamma_k**2))
    coupled = weights > 0.0
    poles, weights = arms[coupled], weights[coupled]
    low, high = poles.min(), poles.max()
    # brackets [low − w, low] and [high, high + w]: within w ≥ 2·span + |ω0 − pole|
    # of every pole, Σz²/|λ − d| ≤ span/2, so f < 0 at the left ends and f > 0
    # at the right ends. Equal widths keep both brackets off their poles until
    # they stop, at a width far above roundoff: the interval need only hold the
    # spectrum.
    span = math.sqrt(weights.sum())
    width = 2.0 * span + max(low - params.omega0, params.omega0 - high, 0.0)
    lo, hi = np.array([low - width, high]), np.array([low, high + width])
    tol = 1e-10 * (high + width)
    while width > tol:
        width *= 0.5
        mid = lo + width
        f = mid - params.omega0 - (weights / np.subtract.outer(mid, poles)).sum(axis=1)
        rises = f > 0.0
        hi = np.where(rises, mid, hi)
        lo = np.where(rises, lo, mid)
    bottom = min(lo[0], arms.min())
    top = max(hi[1], arms.max())
    # the margin covers the roundoff of f at the bracketed roots
    return 0.5 * (bottom + top), 0.5 * (top - bottom) * (1.0 + 1e-12)


def _chebyshev_chunks(start: np.ndarray, diag2: np.ndarray, arm2: np.ndarray,
                      count: int, size: int):
    """T_n(ĥ)·start for n < count, ``size`` terms at a time.

    Yields (lo, (even, odd)) per chunk of terms lo ≤ n < lo + size: tables
    of shape (·, s·(M+2)) whose rows are the s vectors T_n(ĥ)·start of the
    chunk's even and odd j = n − lo in order (the last chunk fills only
    their first rows). Every chunk is written into the same two tables, and
    its first two terms step from the previous chunk's last two before they
    are overwritten. So ``size`` is either at least 3 or at least ``count``
    (one chunk), and a caller that keeps the tables past the next chunk must
    have only one chunk. Two tables of half a chunk, not one, keep each
    allocation at half the size: glibc raises its mmap threshold only when it
    frees a block of at most 32 MiB, and with one 33.5 MiB table at M = 4000
    a second call re-faulted every block's arrays (47 000 minor page faults
    against 3 000).
    ``start`` holds the s start vectors as rows. The arrowhead 2ĥ is
    diag(``diag2``) + u e_Aᵀ + e_A uᵀ with u = ``arm2`` (u_A = 0), so each
    step of T_{n+1} = 2ĥT_n − T_{n−1} is one product with that diagonal and
    two with the rank-2 part.
    """
    s, n = start.shape
    tables = np.empty(((size + 1) // 2, s, n)), np.empty((size // 2, s, n))
    rows = [row for pair in zip(*tables) for row in pair] + list(tables[0][size // 2:])
    left = np.zeros((n, 2))
    left[:, 0], left[0, 1] = arm2, 1.0
    right = left[:, ::-1].T.copy()
    rows[0][:] = start
    for lo in range(0, count, size):
        for j in range(1 if lo == 0 else 0, min(size, count - lo)):
            cur, out = rows[j - 1], rows[j]
            np.multiply(cur, diag2, out=out)
            if lo + j == 1:                 # T_1 = ĥT_0
                out += (cur @ left) @ right
                out *= 0.5
            else:
                out -= rows[j - 2]
                out += (cur @ left) @ right
        yield lo, tuple(table.reshape(len(table), s * n) for table in tables)


def _coefficients(jn: np.ndarray) -> np.ndarray:
    """The Bessel table ``jn`` (rows n, columns t) made into the real weights
    of the even and odd terms, in place.

    With the phase e^{−ict} dropped, c_n = (2 − δ_n0)(−i)^n J_n is real for
    even n and imaginary for odd n: Re c_n = 2(−1)^{n/2} J_n for even n > 0
    and Im c_n = −2(−1)^{(n−1)/2} J_n for odd n.
    """
    jn[1:] *= 2.0
    jn[1::4] *= -1.0
    jn[2::4] *= -1.0
    return jn


def _combine(re: np.ndarray, im: np.ndarray):
    """Re ψ and Im ψ of ψ_A, ψ_B from the even sums ``re`` and odd sums ``im``
    of the s start vectors, shape (len(t), s, M+2) each (overwritten).

    With s = 4 the start vectors are (Re, Im) of ψ at a restart, ψ = u + iv,
    and e^{−iĥx}(u + iv) has Re = E(u) − O(v) and Im = O(u) + E(v), E and O
    being the even and odd sums.
    """
    if re.shape[1] == 4:
        re[:, :2] -= im[:, 2:]
        im[:, :2] += re[:, 2:]
    return re[:, :2], im[:, :2]


def _block_sums(re: np.ndarray, im: np.ndarray, detune: np.ndarray,
                coupling: np.ndarray) -> np.ndarray:
    """Bath sums per time from Re ψ and Im ψ of ψ_A, ψ_B, shape (len(t), 2, M+2),
    with √N_k-weighted bath columns.

    Rows: ⟨a†a⟩, ⟨b†b⟩, Re⟨a†b⟩, Im⟨a†b⟩, Σ_k N_k(ω_k − ω0)|ψ_A,k|² and
    Re(ψ_A,A Σ_k N_k γ_k conj ψ_A,k); ``coupling`` is √N_k γ_k.
    """
    ar, br, ai, bi = re[:, 0, 2:], re[:, 1, 2:], im[:, 0, 2:], im[:, 1, 2:]

    def dot(a, b):
        return np.einsum("tk,tk->t", a, b)

    return np.stack([
        dot(ar, ar) + dot(ai, ai),
        dot(br, br) + dot(bi, bi),
        dot(ar, br) + dot(ai, bi),
        dot(ar, bi) - dot(ai, br),
        np.einsum("tk,tk,k->t", ar, ar, detune) + np.einsum("tk,tk,k->t", ai, ai, detune),
        re[:, 0, 0] * (ar @ coupling) + im[:, 0, 0] * (ai @ coupling),
    ])


def _expand(start: np.ndarray, x: np.ndarray, diag2: np.ndarray, arm2: np.ndarray,
            bath: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """One Chebyshev expansion from the start vectors, at the scaled times x = r·t.

    Returns the :func:`_block_sums` of every x (columns) and (Re ψ, Im ψ) of
    ψ_A, ψ_B at the last x. ``bath`` is (√N_k, ω_k − ω0, √N_k γ_k).

    One loop takes blocks of x outside and the chunks of terms that
    :func:`_chebyshev_chunks` yields inside. A block's amplitudes are (Bessel
    weights)ᵀ · (terms), one real product per parity of n, weights and terms
    paired by n. With N terms and T = len(x), the blocking follows the sizes
    alone:

    - T ≥ N/2: one chunk of all N terms, kept for every block of x. Memory:
      N·s·(M+2) values plus one block's Bessel table and amplitudes.
    - T < N/2: one block of all x, over chunks of terms. A chunk holds one
      term per 2**12 of the block's T·s·(M+2) amplitudes per parity, raised
      to 16 and then capped at 2(T + 1): each chunk's add then costs about
      2**12 values per term whatever the grid and M, and a chunk is never
      much larger than the amplitudes. Memory: about 3T·s·(M+2) values for
      the amplitudes and one product, the chunk, and the N × T Bessel table.

    The block of the last x runs first: ψ there is read off, then the bath
    columns of its amplitudes and of a kept chunk are weighted by √N_k. So
    every later block comes out weighted, and no value is weighted twice.
    """
    root, detune, coupling = bath
    order = _bessel_order(x)
    count = int(order.max()) + 1
    s, n = start.shape
    if 2 * x.size < count:
        block = x.size
        size = min(count, 2 * min(max(8, x.size * start.size >> 13), x.size + 1))
    else:
        block = max(64, _BLOCK_VALUES // (count + 2 * start.size))
        size = count
    chunks = _chebyshev_chunks(start, diag2, arm2, count, size)
    if size == count:
        chunks = list(chunks)               # the one chunk serves every block
    sums = np.empty((6, x.size))
    for hi in range(x.size, 0, -block):
        lo = max(hi - block, 0)
        coef = _coefficients(_bessel_table(x[lo:hi], order[lo:hi]))
        amps = []                           # even and odd sums
        for first, terms in chunks:
            k = min(size, len(coef) - first)
            for p in (0, 1):
                weights = coef[first + p:first + k:2].T
                vectors = terms[p][:weights.shape[1]]
                if first == 0:
                    amps.append(weights @ vectors)
                else:
                    amps[p] += weights @ vectors
        re, im = _combine(*(part.reshape(-1, s, n) for part in amps))
        # `last` is made while the Bessel table still lies below the products, so
        # the next block reuses all three; the weighting's ufunc buffers come after
        # the table is freed, so they add nothing to the peak
        if hi == x.size:
            last = re[-1].copy(), im[-1].copy()
        del coef, weights
        if hi == x.size:
            re[:, :, 2:] *= root
            im[:, :, 2:] *= root
            if size == count:               # the kept chunk, for the blocks to come
                for table in chunks[0][1]:
                    table.reshape(len(table), s, n)[:, :, 2:] *= root
        sums[:, lo:hi] = _block_sums(re, im, detune, coupling)
        del amps, re, im                    # before the next block's are built
    return sums, last


def exact_trajectory(params: ModelParams, times) -> ExactRun:
    """System moments (and energy split) of the exact model on a time grid.

    A and B start in the vacuum and bath mode k with occupation
    N_k = N(ω_k), so with ψ_i = e^{−iht}e_i (see the module docstring)

        ⟨a_i†a_j⟩(t) = Σ_k N_k conj(ψ_i,k) ψ_j,k,
        E_s0 = ω0(⟨a†a⟩+⟨b†b⟩), E_sg = 2g Re⟨a†b⟩,
        E_1 = 2 Re⟨a†Σγ_k c_k⟩ = 2 Re Σ_k N_k conj(ψ_A,k) ψ_γ,k,

    with ψ_γ = (h − ω0)ψ_A − gψ_B = e^{−iht}(h e_A − ω0e_A − ge_B), whose
    bath part is γ_k ψ_A,A + (ω_k − ω0)ψ_A,k. The moments go to n±,
    ⟨γ₋γ₊†⟩ by :func:`from_ab_basis`. The total Hamiltonian is conserved and
    all four energies vanish at t = 0, so the bath energy is
    E_E = −(E_s0 + E_sg + E_1).

    The spectral interval comes from :func:`_spectral_interval` and the
    expansion from :func:`_expand`. Past the reach of ``_TERMS`` terms the
    expansion restarts from Re ψ and Im ψ there. The grid must pass
    :func:`~oscpair.moments.checked_grid` (else :class:`DomainError`). ψ_A and ψ_B at
    the last time must stay orthonormal to 1e-12, or
    :class:`ConsistencyError` is raised.
    """
    times = checked_grid(times)
    omega_k, gamma_k = bath_modes(params)
    centre, radius = _spectral_interval(params, omega_k, gamma_k)
    diag2 = (2.0 / radius) * (np.concatenate(([params.omega0] * 2, omega_k)) - centre)
    arm2 = (2.0 / radius) * np.concatenate(([0.0, params.g], gamma_k))
    root = np.sqrt(bose_factor(omega_k, params.beta))
    bath = root, omega_k - params.omega0, root * gamma_k
    reach = _REACH / radius

    sums = np.empty((6, times.size))
    start = np.eye(2, params.M + 2)      # rows e_A, e_B; later Re ψ_A, Re ψ_B, Im ψ_A, Im ψ_B
    origin, i = 0.0, 0
    while i < times.size:
        stop = int(np.searchsorted(times, origin + reach, side="right"))
        local = times[i:stop] - origin
        if stop < times.size:            # ψ at the end of the reach starts the next expansion
            local = np.append(local, reach)
        part, last = _expand(start, radius * local, diag2, arm2, bath)
        sums[:, i:stop] = part[:, :stop - i]
        start = np.concatenate(last)
        origin += reach
        i = stop
    _check_unitary(*last)                # ψ at the last time

    aa, bb, re_ab, im_ab, s1, t3 = sums
    energies = np.empty((times.size, 4))
    energies[:, 0] = params.omega0 * (aa + bb)
    energies[:, 1] = 2.0 * params.g * re_ab
    energies[:, 2] = 2.0 * (s1 - params.g * re_ab + t3)
    energies[:, 3] = 0.0 - energies[:, :3].sum(axis=1)  # +0.0, not −0.0, at t = 0
    state = from_ab_basis(aa, bb, re_ab - 1j * im_ab)  # ⟨ab†⟩ = conj⟨a†b⟩
    traj = Trajectory(times, state.n_plus, state.n_minus, state.cross)
    return ExactRun(traj, energies)


def _check_unitary(re: np.ndarray, im: np.ndarray) -> None:
    """ψ_A, ψ_B (rows of Re ψ and Im ψ) must be orthonormal to 1e-12."""
    gram = re @ re.T + im @ im.T + 1j * (re @ im.T - im @ re.T)
    defect = np.abs(gram - np.eye(2)).max()
    if not defect <= 1e-12:
        raise ConsistencyError(f"propagated system vectors are off orthonormal by {defect:.2e}")

