"""Truncated Fock-basis density operators and their spectral functionals.

Supports one- and two-mode states with per-mode cutoffs up to 128. The
truncation contract is that the top Fock level of every mode carries at most
TAIL_TOL population; constructors enforce it and channels re-check it after
acting.

A two-mode state on equal cutoffs that commutes with n_A - n_M (a two-mode
squeezed vacuum and its Gaussian noise on A) is a `PhaseCovariantState`,
stored by its A-diagonals in O(d^3) numbers. The functionals here and the
Gaussian noise channel on A run on that storage; every other consumer reads
`matrix` or acts on one mode through `map_mode`, both of which go through
`densify`. Spectra are solved one n_A - n_M charge block at a time on the
storage, where an all-zero block gives zeros unsolved, and by one dense solve
on every dense matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    LabelError,
    NegativeEigenvalueError,
    TailError,
)

EIG_CLAMP = 1e-9
TAIL_TOL = 1e-8
MAX_CUTOFF = 128
# largest dense density matrix a constructor or `densify` allocates: 1 GiB of
# complex entries, two-mode cutoffs up to 90
MAX_DENSE_BYTES = 2 ** 30
SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=32)
def log_factorials(n: int) -> np.ndarray:
    """log m! for m < n, each from math.lgamma; cached per n, read-only."""
    lf = np.array([math.lgamma(m + 1.0) for m in range(n)])
    lf.flags.writeable = False
    return lf


def xlogx(w) -> np.ndarray:
    """w log w elementwise for w >= 0, 0 where w = 0: one masked log."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    np.log(w, out=out, where=w > 0)
    out *= w
    return out


def annihilation(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _check_modes(dims, labels) -> tuple:
    """The labels as a tuple; refuses cutoffs outside [1, MAX_CUTOFF] or not one label per mode."""
    if any(d < 1 or d > MAX_CUTOFF for d in dims):
        raise DomainError(f"mode cutoffs must be in [1, {MAX_CUTOFF}]")
    labels = tuple(labels)
    if len(labels) != len(dims):
        raise LabelError("one label per mode required")
    return labels


@dataclass
class FockState:
    """Density operator on one or two truncated bosonic modes; `trace_drift`
    is the trace error the channel that produced it renormalized away."""

    mode_dims: tuple
    matrix: np.ndarray
    mode_labels: tuple = None
    trace_drift: float = 0.0

    def __post_init__(self):
        self.mode_dims = tuple(int(d) for d in self.mode_dims)
        if not 1 <= len(self.mode_dims) <= 2:
            raise DomainError("FockState supports one or two modes")
        if self.mode_labels is None:
            self.mode_labels = ("A",) if len(self.mode_dims) == 1 else ("A", "M")
        self.mode_labels = _check_modes(self.mode_dims, self.mode_labels)
        dim = int(np.prod(self.mode_dims))
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} does not match mode dims {self.mode_dims}"
            )

    @property
    def dim(self) -> int:
        return int(np.prod(self.mode_dims))

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    def mode_index(self, label: str) -> int:
        if label not in self.mode_labels:
            raise LabelError(f"unknown mode label {label!r}")
        return self.mode_labels.index(label)

    def tensor(self) -> np.ndarray:
        """Matrix reshaped to one (row, col) index pair per mode."""
        dims = self.mode_dims
        return self.matrix.reshape(*dims, *dims)

    def tail_mass(self) -> float:
        """Largest top-level population over the modes, read off each mode's marginal."""
        marginals = [self] if self.n_modes == 1 else [partial_trace(self, m) for m in self.mode_labels]
        return max(float(np.real(m.matrix[-1, -1])) for m in marginals)

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def check_tail(self):
        tm = self.tail_mass()
        if not tm <= TAIL_TOL:  # NaN fails too
            raise TailError(f"top Fock level holds population {tm:.3e} > {TAIL_TOL}")

    def copy(self) -> "FockState":
        return replace(self, matrix=self.matrix.copy())


# ---------------------------------------------------------------------------
# phase-covariant two-mode states, stored by their A-diagonals


@functools.lru_cache(maxsize=8)
def _offsets(d: int) -> np.ndarray:
    """Start of each offset q = 1 - d, ..., d - 1 in the diagonal storage on
    cutoff d, and its length last: slab q holds (d - |q|)^2 numbers."""
    sizes = (d - np.abs(np.arange(1 - d, d))) ** 2
    return np.concatenate([[0], np.cumsum(sizes)])


def _slab(flat: np.ndarray, d: int, q: int) -> np.ndarray:
    """View of offset q in a diagonal storage `flat` on cutoff d."""
    lo, hi = _offsets(d)[q + d - 1: q + d + 1]
    return flat[lo:hi].reshape(d - abs(q), d - abs(q))


@functools.lru_cache(maxsize=4)
def _dense_index(d: int):
    """(rows, columns) in the d^2 x d^2 matrix of the stored entries: slab q
    holds X_q[i, j] = <a, m|rho|b, n> with (a, m) = (i + s, j + s) and
    (b, n) = (i + r, j + r), where s = max(q, 0) and r = max(-q, 0)."""
    rows, cols = [], []
    for q in range(1 - d, d):
        s, r = max(q, 0), max(-q, 0)
        i, j = np.indices((d - abs(q),) * 2).reshape(2, -1)
        rows.append((i + s) * d + j + s)
        cols.append((i + r) * d + j + r)
    return np.concatenate(rows), np.concatenate(cols)


@functools.lru_cache(maxsize=4)
def _block_order(d: int) -> np.ndarray:
    """Permutation that gathers the storage into the n_A - n_M charge blocks,
    c = 1 - d, ..., d - 1, each row-major over its A levels. Block c has side
    d - |c|, the side of slab c, so the blocks reuse `_offsets`."""
    rows, cols = _dense_index(d)
    a, c, b = rows // d, rows // d - rows % d, cols // d
    lo = np.maximum(c, 0)
    keys = _offsets(d)[c + d - 1] + (a - lo) * (d - np.abs(c)) + b - lo
    order = np.empty_like(keys)
    order[keys] = np.arange(keys.size)
    return order


class PhaseCovariantState(FockState):
    """Two-mode state on equal cutoffs d that commutes with n_A - n_M, so that
    <a, m|rho|b, n> = 0 unless a - b = m - n. For each offset q = a - b it
    keeps the square slab X_q (`diagonals_at(q)`, layout in `_dense_index`): row
    i runs along the q-th diagonal of mode A, column j over the memory pairs
    (m, n) with m - n = q. That is about (2/3) d^3 numbers in one flat array,
    against d^4 for the matrix; `matrix` (and so `tensor()`) converts
    through `densify`."""

    def __init__(self, d: int, diagonals, mode_labels=("A", "M"), trace_drift: float = 0.0):
        d = int(d)
        self.mode_dims = (d, d)
        self.mode_labels = _check_modes(self.mode_dims, mode_labels)
        self.diagonals = np.asarray(diagonals, dtype=complex)
        if self.diagonals.shape != (_offsets(d)[-1],):
            raise DimensionMismatchError(f"{self.diagonals.shape} entries do not fit cutoff {d}")
        self.trace_drift = trace_drift

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: a write to it would not reach the storage."""
        mat = densify(self).matrix
        mat.flags.writeable = False
        return mat

    def __repr__(self) -> str:
        return (f"PhaseCovariantState(d={self.mode_dims[0]}, mode_labels={self.mode_labels}, "
                f"trace_drift={self.trace_drift})")

    def diagonals_at(self, q: int) -> np.ndarray:
        return _slab(self.diagonals, self.mode_dims[0], q)

    def charge_blocks(self) -> list:
        """The n_A - n_M charge blocks, gathered by one permutation of the storage."""
        d = self.mode_dims[0]
        flat = self.diagonals[_block_order(d)]
        return [_slab(flat, d, c) for c in range(1 - d, d)]

    def trace(self) -> float:
        return float(self.diagonals_at(0).real.sum())

    def copy(self) -> "PhaseCovariantState":
        return PhaseCovariantState(self.mode_dims[0], self.diagonals.copy(), self.mode_labels,
                                   self.trace_drift)


def densify(rho: FockState) -> FockState:
    """rho as a dense FockState (rho itself if it is one): the one conversion
    out of the diagonal storage, refused above MAX_DENSE_BYTES."""
    if not isinstance(rho, PhaseCovariantState):
        return rho
    _check_dense(rho.mode_dims)
    mat = np.zeros((rho.dim, rho.dim), dtype=complex)
    mat[_dense_index(rho.mode_dims[0])] = rho.diagonals
    return FockState(rho.mode_dims, mat, rho.mode_labels, rho.trace_drift)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def renormalized(rho: FockState, tr: float) -> FockState:
    """The hermitian part of rho divided by tr, with trace drift tr - 1. The
    transpose of slab q's entry (i, j) is slab -q's entry (i, j)."""
    if isinstance(rho, PhaseCovariantState):
        d = rho.mode_dims[0]
        mirror = np.concatenate([rho.diagonals_at(q).ravel() for q in range(d - 1, -d, -1)])
        return PhaseCovariantState(d, 0.5 * (rho.diagonals + mirror.conj()) / tr, rho.mode_labels,
                                   tr - 1.0)
    mat = rho.matrix
    return FockState(rho.mode_dims, _hermitize(mat) / tr, rho.mode_labels, trace_drift=tr - 1.0)


def map_mode(rho: FockState, k: int, fn) -> FockState:
    """rho with mode k replaced by fn(x), not normalized: x is the dense
    tensor with mode k's (row, col) axes first and the other mode's, if any,
    riding along as a batch. fn may change mode k's cutoff."""
    rho = densify(rho)
    n = rho.n_modes
    x = np.moveaxis(fn(np.moveaxis(rho.tensor(), (k, n + k), (0, 1))), (0, 1), (k, n + k))
    dims = x.shape[:n]
    return FockState(dims, x.reshape(math.prod(dims), -1), rho.mode_labels)


def map_diagonals(rho: FockState, maps, k: int = 0) -> FockState:
    """rho under the phase-covariant map on mode k given by `maps`, not
    normalized: for q >= 0, out[i + q, i] = sum_j maps(q)[i, j] rho[j + q, j]
    on mode k, and the same on out[i, i + q]. On the diagonal storage and
    mode A it is one maps(|q|) @ X_q per offset; otherwise it runs through
    `map_mode`, which builds no maps(q) for a zero diagonal (M @ 0 = 0)."""
    if isinstance(rho, PhaseCovariantState) and k == 0:
        d = rho.mode_dims[0]
        out = np.empty_like(rho.diagonals)
        for q in range(d):
            M = maps(q)
            for u in {q, -q}:
                np.matmul(M, rho.diagonals_at(u), out=_slab(out, d, u))
        return PhaseCovariantState(d, out, rho.mode_labels)

    def diagonals(x):
        out = np.zeros_like(x)
        rows, cols = np.nonzero(x.any(axis=tuple(range(2, x.ndim))))
        for q in np.unique(np.abs(rows - cols)):  # the nonzero diagonals
            M, i = maps(q), np.arange(x.shape[0] - q)
            out[i + q, i] = np.tensordot(M, x[i + q, i], axes=1)
            out[i, i + q] = np.tensordot(M, x[i, i + q], axes=1)
        return out

    return map_mode(rho, k, diagonals)


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    # real-symmetric dispatch: halves the eigensolve cost for real states
    if np.abs(mat.imag).max() < 1e-14 * max(1.0, np.abs(mat.real).max()):
        return np.linalg.eigvalsh(mat.real)
    return np.linalg.eigvalsh(mat)


def _spectrum(rho: FockState) -> np.ndarray:
    """Ascending eigenvalues, by charge blocks on the diagonal storage, else one
    dense solve; `trace_norm_distance` calls it, not the traced `eigenvalues`."""
    if not isinstance(rho, PhaseCovariantState):
        return _eigvalsh(rho.matrix)
    blocks = rho.charge_blocks()
    return np.sort(np.concatenate([_eigvalsh(b) if b.any() else np.zeros(len(b)) for b in blocks]))


def eigenvalues(rho: FockState) -> np.ndarray:
    return _spectrum(rho)


def spectral_path(rho: FockState) -> dict:
    """How `eigenvalues(rho)` solves: by charge sectors on the diagonal storage
    (`off_block_norm` 0.0), else by one dense solve (`off_block_norm` None)."""
    if isinstance(rho, PhaseCovariantState):
        return {"eigensolve": "blocked", "off_block_norm": 0.0, "storage": "diagonals"}
    return {"eigensolve": "dense", "off_block_norm": None, "storage": "dense"}


# ---------------------------------------------------------------------------
# constructors


def _check_dense(dims):
    """Refuse, before allocating it, a dense matrix above MAX_DENSE_BYTES."""
    dim = int(np.prod(dims))
    if 16 * dim * dim > MAX_DENSE_BYTES:
        raise DomainError(f"a dense state on mode cutoffs {tuple(dims)} needs "
                          f"{16 * dim * dim / 2 ** 30:.2f} GiB, over the {MAX_DENSE_BYTES} byte cap")


def _pure(psi: np.ndarray, label: str) -> FockState:
    psi = (psi / np.linalg.norm(psi)).astype(complex)  # a complex outer product: no real one to cast
    return FockState((psi.size,), np.outer(psi, psi.conj()), (label,))


def vacuum(d: int, label: str = "A") -> FockState:
    psi = np.zeros(d)
    psi[0] = 1.0
    return _pure(psi, label)


def fock(n: int, d: int, label: str = "A") -> FockState:
    if n < 0:
        raise DomainError("Fock level must be nonnegative")
    if n >= d:
        raise TailError(f"level {n} does not fit below cutoff {d}")
    psi = np.zeros(d)
    psi[n] = 1.0
    state = _pure(psi, label)
    state.check_tail()
    return state


def thermal(N: float, d: int, label: str = "A") -> FockState:
    if N < 0:
        raise DomainError("mean photon number must be nonnegative")
    if N == 0:
        return vacuum(d, label)
    q = N / (N + 1.0)
    if not q < 1.0:
        raise DomainError(f"mean photon number {N} too large: N / (N + 1) rounds to 1")
    p = (1.0 - q) * q ** np.arange(d)
    p /= p.sum()
    state = FockState((d,), np.diag(p.astype(complex)), (label,))
    state.check_tail()
    return state


def _coherent_amplitudes(alpha: complex, d: int) -> np.ndarray:
    """<n|alpha> = e^(-|alpha|^2/2) alpha^n / sqrt(n!) for n < d, from logs."""
    n = np.arange(d)
    log_mag = n * math.log(abs(alpha)) if alpha != 0 else np.where(n == 0, 0.0, -np.inf)
    amps = np.exp(log_mag - 0.5 * log_factorials(d) - 0.5 * abs(alpha) ** 2)
    phase = np.exp(1j * np.angle(alpha) * n) if alpha != 0 else np.ones(d)
    return amps * phase


def coherent(alpha: complex, d: int, label: str = "A") -> FockState:
    state = _pure(_coherent_amplitudes(alpha, d), label)
    state.check_tail()
    return state


def cat(alpha: complex, d: int, label: str = "A") -> FockState:
    """Even superposition of +/- alpha coherent states."""
    if alpha == 0:
        return vacuum(d, label)
    amps = _coherent_amplitudes(alpha, d)
    amps[1::2] = 0.0
    state = _pure(amps, label)
    state.check_tail()
    return state


def two_mode_squeezed_vacuum(r: float, d: int, labels=("A", "M")) -> PhaseCovariantState:
    """Pure two-mode squeezed state with Schmidt weights (1-q) q^n, q = tanh(r)^2,
    in the diagonal storage: psi = sum_n c_n |n, n>, so slab q is diagonal,
    X_q[i, i] = c_{i + |q|} c_i."""
    if r < 0:
        raise DomainError("squeezing parameter must be nonnegative")
    _check_modes((d, d), labels)  # before the storage is allocated
    c = math.tanh(r) ** np.arange(d)
    c /= np.linalg.norm(c)
    state = PhaseCovariantState(d, np.zeros(_offsets(d)[-1], dtype=complex), labels)
    for q in range(1 - d, d):
        np.fill_diagonal(state.diagonals_at(q), c[abs(q):] * c[:d - abs(q)])
    state.check_tail()
    return state


def random_mixed(rank: int, d: int, seed: int, support: int = None) -> FockState:
    """rho = G G^dag / tr with G an i.i.d. standard-complex-Gaussian matrix.

    G occupies the bottom `support` levels (default d - 2) so the truncation
    tail stays clean at the stated cutoff.
    """
    if rank < 1:
        raise DomainError("rank must be positive")
    if support is None:
        support = d - 2
    if not 1 <= support <= d:
        raise DomainError("support must lie within the cutoff")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((support, rank)) + 1j * rng.standard_normal((support, rank))
    block = g @ g.conj().T
    mat = np.zeros((d, d), dtype=complex)
    mat[:support, :support] = block / np.trace(block).real
    state = FockState((d,), mat)
    state.check_tail()
    return state


# ---------------------------------------------------------------------------
# displacement operators


def displacement_batch(xis: np.ndarray, d: int) -> np.ndarray:
    """Displacement matrices for a batch of phase-space points, shape (N, d, d).

    Uses the closed-form Laguerre matrix elements
    <n|D|n + k> = sqrt(n!/(n + k)!) (-conj(alpha))^k e^(-|alpha|^2/2) L_n^(k)(|alpha|^2)
    with alpha = (xi_1 + i xi_2)/sqrt(2). The Laguerre recurrence runs over n
    only, each step on all orders k < d - n and all points at once (points
    last), and fills row n right of the diagonal; the lower triangle follows
    from D(alpha)^dag = D(-alpha), <n + k|D|n> = (-1)^k conj(<n|D|n + k>).
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    alpha = (xis[:, 0] + 1j * xis[:, 1]) / SQRT2
    x = np.abs(alpha) ** 2
    k = np.arange(d)[:, None]
    upper = np.exp(-0.5 * x) * (-np.conj(alpha)) ** k  # [k, point]
    lg = log_factorials(d)
    out = np.zeros((alpha.size, d, d), dtype=complex)
    L_prev, L = np.zeros((d, alpha.size)), np.ones((d, alpha.size))  # L_(n-1)^(k), L_n^(k)
    for n in range(d):
        out[:, n, n:] = (np.exp(0.5 * (lg[n] - lg[n:]))[:, None] * L * upper[:d - n]).T
        kk, L = k[:d - n - 1], L[:d - n - 1]  # the orders step n + 1 still needs
        L_prev, L = L, ((2 * n + 1 + kk - x) * L - (n + kk) * L_prev[:d - n - 1]) / (n + 1.0)
    sign = np.tril((-1.0) ** (k - k.T), -1)
    for block in np.split(out, range(16, alpha.size, 16)):  # 16 points at a time stay in cache
        block += sign * block.conj().transpose(0, 2, 1)
    return out


def conjugate_mode(D: np.ndarray, rho: FockState, k: int) -> FockState:
    """D X D^dag on mode k of rho, as two tensordots; D may be rectangular,
    which changes that mode's cutoff from D.shape[1] to D.shape[0]."""
    return map_mode(rho, k, lambda x: np.moveaxis(
        np.tensordot(np.tensordot(D, x, axes=1), D.conj(), axes=(1, 1)), -1, 1))


# ---------------------------------------------------------------------------
# spectral functionals


def von_neumann_entropy(rho: FockState) -> float:
    """-tr[rho log rho]; eigenvalues in [-1e-9, 0) are clamped to zero."""
    w = eigenvalues(rho)
    if w.min() < -EIG_CLAMP:
        raise NegativeEigenvalueError(
            f"eigenvalue {w.min():.3e} below clamp; cutoff likely insufficient"
        )
    w = np.clip(w, 0.0, None)
    return float(-xlogx(w).sum())


def relative_entropy(rho: FockState, sigma: FockState) -> float:
    """tr[rho (log rho - log sigma)]; +inf if rho weighs sigma's null space,
    the eigenvalues of sigma below 1e-12."""
    if rho.mode_dims != sigma.mode_dims:
        raise DimensionMismatchError(
            f"dims {rho.mode_dims} vs {sigma.mode_dims} do not match"
        )
    ws, vs = np.linalg.eigh(sigma.matrix)
    null = ws < 1e-12
    rho_in_sigma_basis = vs.conj().T @ rho.matrix @ vs
    diag = np.real(np.diagonal(rho_in_sigma_basis))
    if null.any() and diag[null].sum() >= 1e-10:
        return math.inf
    keep = ~null
    cross = float(diag[keep] @ np.log(ws[keep]))
    return -von_neumann_entropy(rho) - cross


def trace_norm_distance(rho: FockState, sigma: FockState) -> float:
    """Trace norm ||rho - sigma||_1."""
    if rho.mode_dims != sigma.mode_dims:
        raise DimensionMismatchError("states live on different spaces")
    return float(np.abs(_spectrum(FockState(rho.mode_dims, rho.matrix - sigma.matrix))).sum())


def partial_trace(rho: FockState, keep: str) -> FockState:
    if rho.n_modes != 2:
        raise DomainError("partial trace requires a two-mode state")
    k = rho.mode_index(keep)
    if isinstance(rho, PhaseCovariantState):
        # the marginals are diagonal: populations of slab 0 summed over the other mode
        pops = rho.diagonals_at(0).real.sum(axis=1 - k)
        return FockState((rho.mode_dims[k],), np.diag(pops).astype(complex), (keep,))
    t = rho.tensor()
    mat = np.einsum("ambm->ab", t) if k == 0 else np.einsum("aman->mn", t)
    return FockState((rho.mode_dims[k],), _hermitize(mat), (keep,))


def conditional_entropy(rho: FockState, target: str, memory: str) -> float:
    """S(target, memory) - S(memory)."""
    rho.mode_index(target)
    return von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, memory))


def moments_of_state(rho: FockState):
    """First moments and covariance of the quadratures (Q1, P1, ...).

    Each mode's own moments are read off three diagonals of its marginal:
    <a> = sum sqrt(k) rho[k, k-1], <a^2> = sum sqrt(k(k-1)) rho[k, k-2] and
    s = (<a^dag a> + <a a^dag>)/2, where the truncated a a^dag is zero on the
    top level. Then <Q> + i<P> = sqrt(2) <a>, <Q^2> = s + Re<a^2>,
    <P^2> = s - Re<a^2> and the symmetrized <QP> is Im<a^2>. The cross terms
    all follow from z = <a_A a_M> and w = <a_A^dag a_M>. On the diagonal
    storage z is summed over slab 1 and w vanishes by symmetry; on a dense
    state both contract the annihilators against the joint tensor.
    """
    marginals = [rho] if rho.n_modes == 1 else [partial_trace(rho, lab) for lab in rho.mode_labels]
    n2 = 2 * rho.n_modes
    mean = np.zeros(n2)
    cov = np.zeros((n2, n2))
    for k, red in enumerate(marginals):
        mat, n, pair = red.matrix, np.arange(red.dim), slice(2 * k, 2 * k + 2)
        root = np.sqrt(n)
        a1 = root[1:] @ np.diagonal(mat, -1)
        a2 = (root[1:-1] * root[2:]) @ np.diagonal(mat, -2)
        pops = np.diagonal(mat).real
        s = 0.5 * (n @ pops + n[1:] @ pops[:-1])
        mean[pair] = SQRT2 * a1.real, SQRT2 * a1.imag
        cov[pair, pair] = np.subtract([[s + a2.real, a2.imag], [a2.imag, s - a2.real]],
                                      np.outer(mean[pair], mean[pair]))
    if rho.n_modes == 2:
        if isinstance(rho, PhaseCovariantState):
            root = np.sqrt(np.arange(1.0, rho.mode_dims[0]))
            z, w = root @ rho.diagonals_at(1) @ root, 0.0  # X_1[i, j] = <i + 1, j + 1|rho|i, j>
        else:  # tr_M[rho (1 x a_M)] in one pass over the joint tensor, then against a_A and a_A^dag
            a, b = (annihilation(d) for d in rho.mode_dims)
            z, w = np.einsum("ab,kba->k", np.einsum("ambn,nm->ab", rho.tensor(), b), np.stack([a, a.T]))
        # (Q_A, P_A) x (Q_M, P_M): modes A and M commute, so no symmetrization is needed
        cross = [[(z + w).real, (z + w).imag], [(z - w).imag, (w - z).real]]
        cov[:2, 2:] = np.subtract(cross, np.outer(mean[:2], mean[2:]))
        cov[2:, :2] = cov[:2, 2:].T
    return mean, cov


def tensor_product(rho: FockState, sigma: FockState, labels=None) -> FockState:
    if rho.n_modes != 1 or sigma.n_modes != 1:
        raise DomainError("tensor_product combines two one-mode states")
    if labels is None:
        labels = (rho.mode_labels[0], sigma.mode_labels[0])
        if labels[0] == labels[1]:
            labels = ("A", "B")
    _check_dense((rho.mode_dims[0], sigma.mode_dims[0]))
    return FockState(
        (rho.mode_dims[0], sigma.mode_dims[0]), np.kron(rho.matrix, sigma.matrix), labels
    )


def thermal_cutoff(N: float) -> int:
    """Smallest cutoff whose thermal top-level population is below TAIL_TOL,
    plus two levels."""
    if N <= 0:
        return 4
    q = N / (N + 1.0)
    d = 1 + int(math.ceil(math.log(TAIL_TOL / (1.0 - q)) / math.log(q)))
    return max(d, 2) + 2
