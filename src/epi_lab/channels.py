"""Executable channels: the classical-noise convolution, its memory
extension over a classical register, the heat flow on every side type, beam
splitters, and the one-mode damping (quantum Ornstein-Uhlenbeck) semigroup.

A channel on one mode acts through `fk.map_mode`, any other mode riding along
as a batch. Gaussian noise comes from two Kraus tables: a one-mode state runs
the Kraus sums on its whole matrix (padded, displaced and cut back in the same
call for a shifted center); on a two-mode state it maps each diagonal by one
small matrix gathered from the tables (`fk.map_diagonals`), and a shifted
center pads and displaces the mode (`fk.conjugate_mode`). Damping, and a beam
splitter against a diagonal input (thermal, Fock, vacuum), map each diagonal by
one matrix too (`_environment_maps`); against coherences a beam splitter runs
on the inputs' factors. A quadrature superoperator on a two-mode state is one
matrix product (`apply_one_mode_kernel`). `qou_superoperator` is the damping
oracle; the displacement quadrature serves densities with no Gaussian form and
the oracle tests. Its sums run in fixed chunk order, so repeated runs on one
machine agree bit for bit.

`heat_flow` dispatches on the side's type and `extended_channel` on the
noise's: each type registers one implementation right below the function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock as fk
from .errors import (
    DomainError,
    DriftError,
    NegativeTimeError,
    ParameterError,
    QuadratureError,
    UnsupportedFamilyError,
)
from .fock import FockState, displacement_batch, log_factorials, thermal, thermal_cutoff
from .gaussian import GaussianState, _qou_transmissivity, gaussian_heat_flow, qou_mean_photon
from .phase_space import GridPdf, classical_heat_flow, gaussian_pdf, largest_variance, resolving_spacing

CHUNK = 1024
TRACE_DRIFT_LIMIT = 1e-4
# levels of the noisy state computed above the cutoff before a shifted noise
# displaces it to its center, which pulls some of them below the cutoff (16
# and 32 levels give the same output; 8 are off by up to 2.4e-15)
CENTER_PAD = 16


def _check_quadrature(f: GridPdf):
    """Validate the density f, then require its grid spacing to resolve it."""
    f.validate()
    t_eq = largest_variance(f)
    limit = resolving_spacing(t_eq)
    if f.spacing > limit * (1 + 1e-12):
        raise QuadratureError(
            f"grid spacing {f.spacing:.4g} too coarse for noise strength "
            f"{t_eq:.4g} (limit {limit:.4g})"
        )


def _finish(out: FockState) -> FockState:
    """Renormalize and hermitize a channel output, keeping the
    pre-normalization trace drift on the state."""
    tr = out.trace()
    if abs(tr - 1.0) > TRACE_DRIFT_LIMIT:
        raise DriftError(f"channel output trace drifted to {tr}")
    out = fk.renormalized(out, tr)
    out.check_tail()
    return out


def _conjugation_sums(points: np.ndarray, weight_sets, rho_mat: np.ndarray, d: int):
    """sum_i w_i D(xi_i) rho D(xi_i)^dag for several weight vectors at once."""
    outs = [np.zeros_like(rho_mat) for _ in weight_sets]
    for lo in range(0, len(points), CHUNK):
        chunk = slice(lo, lo + CHUNK)
        Db = displacement_batch(points[chunk], d)
        Y = (Db @ rho_mat) @ Db.conj().transpose(0, 2, 1)
        for out, w in zip(outs, weight_sets):
            out += np.tensordot(w[chunk], Y, axes=1)
    return outs


def one_mode_kernels(points: np.ndarray, weight_sets, d: int):
    """Superoperator matrices K with vec(out) = K vec(rho) (row-major vec)
    for the maps rho -> sum_i w_i D_i rho D_i^dag, one per weight vector; the
    displacement batch is built once and shared."""
    kps = [np.zeros((d * d, d * d), dtype=complex) for _ in weight_sets]
    for lo in range(0, len(points), CHUNK):
        chunk = slice(lo, lo + CHUNK)
        E = displacement_batch(points[chunk], d).reshape(-1, d * d)
        Ec = E.conj()
        for kp, w in zip(kps, weight_sets):
            kp += (w[chunk][:, None] * E).T @ Ec
    # Kp[(x,a),(y,b)] -> K[(x,y),(a,b)]
    return [kp.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) for kp in kps]


def one_mode_kernel(points: np.ndarray, weights: np.ndarray, d: int) -> np.ndarray:
    return one_mode_kernels(points, [weights], d)[0]


def apply_one_mode_kernel(K: np.ndarray, rho: FockState, target: str) -> np.ndarray:
    """Apply a one-mode superoperator to one mode of a state; returns the matrix."""
    return fk.map_mode(rho, rho.mode_index(target),
                       lambda x: (K @ x.reshape(K.shape[1], -1)).reshape(x.shape)).matrix


def _noise_outputs(grids, rho: FockState, target: str = None) -> list:
    """sum_xi f(xi) D(xi) rho D(xi)^dag on the `target` mode (default: the
    first) for each density f in `grids`; the densities share one grid
    (origin, spacing, side), so one displacement batch serves them all."""
    for f in grids:
        _check_quadrature(f)
    points = grids[0].points()
    weight_sets = [f.values.ravel() * f.cell_weight for f in grids]
    k = 0 if target is None else rho.mode_index(target)
    d = rho.mode_dims[k]
    if rho.n_modes == 1:
        mats = _conjugation_sums(points, weight_sets, rho.matrix, d)
    else:
        mats = [apply_one_mode_kernel(K, rho, rho.mode_labels[k])
                for K in one_mode_kernels(points, weight_sets, d)]
    return [_finish(FockState(rho.mode_dims, mat, rho.mode_labels)) for mat in mats]


def classical_noise_channel(f: GridPdf, rho: FockState, target: str = None) -> FockState:
    """Mixture of displaced copies of the state, weighted by the density f.

    For a one-mode state the displacement acts on that mode; for a two-mode
    state it acts on `target` (default: first mode). The grid spacing must
    resolve the noise, the output trace is renormalized and the truncation
    tail re-checked afterwards.
    """
    return _noise_outputs([f], rho, target)[0]


def quantum_heat_flow_fock(
    rho: FockState, t: float, target: str = None, spacing: float = None, extent: float = None
) -> FockState:
    """Convolution with the isotropic Gaussian of variance t on one mode."""
    if not t >= 0:  # NaN fails too
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    if t == 0:
        return rho.copy()
    return classical_noise_channel(gaussian_pdf(t, spacing=spacing, extent=extent), rho, target)


def quantum_heat_flow_fock_multi(
    rho: FockState, t_list, target: str = None, spacing: float = None, extent: float = None
):
    """Heat flow at several times sharing one quadrature grid, resolving the
    smallest time and reaching as far as the largest, and one pass over the
    displacement batch; errors vary smoothly along t_list, which
    finite-difference consumers rely on."""
    t_list = list(t_list)
    if any(not t >= 0 for t in t_list):
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t_list}")
    positive = [t for t in t_list if t > 0]
    if not positive:
        return [rho.copy() for _ in t_list]
    if spacing is None:
        spacing = resolving_spacing(min(positive))
    if extent is None:
        extent = 8.5 * math.sqrt(max(positive))
    grids = [gaussian_pdf(t, spacing=spacing, extent=extent) for t in positive]
    outs = iter(_noise_outputs(grids, rho, target))
    return [next(outs) if t > 0 else rho.copy() for t in t_list]


def _kraus_tables(d: int, t: float):
    """Kraus tables of the noise of variance t > 0 on cutoff d, loss A_l of
    transmissivity 1/G, then the amplifier B_l of gain G = 1 + t (exact below
    the cutoff: loss only lowers the photon number, the amplifier only raises it):
    c[l, m] = <m|A_l|m + l> = sqrt(C(m + l, l)) G^(-m/2) (t/G)^(l/2) and
    b[l, m] = <m + l|B_l|m> = c[l, m] / sqrt(G), both 0 where m + l >= d."""
    lf = log_factorials(2 * d - 1)
    l, m = np.ogrid[:d, :d]
    lg, lx = math.log1p(t), math.log(t) - math.log1p(t)
    c = np.where(l + m < d, np.exp(0.5 * (lf[l + m] - lf[l] - lf[m] + l * lx - m * lg)), 0.0)
    return c, c * math.exp(-0.5 * lg)


def _diagonal_maps(d: int, t: float):
    """maps(q) for `fk.map_diagonals`: the noise on the q-th diagonal, amp @ loss
    with loss[i, j] = c[j - i, i + q] c[j - i, i] (j >= i) and
    amp[i, j] = b[i - j, j + q] b[i - j, j] (j <= i), gathered from the tables."""
    c, b = _kraus_tables(d, t)

    def maps(q):
        i, j = np.ogrid[:d - q, :d - q]
        s = np.abs(i - j)
        return np.tril(b[s, j + q] * b[s, j]) @ np.triu(c[s, i + q] * c[s, i])
    return maps


def _kraus_sums(x: np.ndarray, t: float) -> np.ndarray:
    """The noise on a one-mode matrix: sum_l A_l x A_l^dag, then the same
    with the B_l, one vector update per l."""
    d = x.shape[0]
    c, b = _kraus_tables(d, t)
    y, z = np.zeros_like(x), np.zeros_like(x)
    for l in range(d):
        y[:d - l, :d - l] += c[l, :d - l, None] * c[l, None, :d - l] * x[l:, l:]
    for l in range(d):
        z[l:, l:] += b[l, :d - l, None] * b[l, None, :d - l] * y[:d - l, :d - l]
    return z


def gaussian_noise_channel(rho: FockState, t: float, center=(0.0, 0.0), target: str = None) -> FockState:
    """Isotropic Gaussian noise of per-axis variance t centered at `center`
    on the `target` mode (default: the first), in closed form: Kraus sums
    (`_kraus_sums`) on a one-mode state, one matrix per diagonal of the
    target mode (`_diagonal_maps` through `fk.map_diagonals`, which runs on
    the diagonal storage of a phase-covariant state) on a two-mode one. A
    nonzero center displaces the noisy state, computed CENTER_PAD levels
    above the cutoff (on a two-mode state, the capped dense one), and
    projects it back. t = 0 without a center returns a copy; the output goes
    through the same trace-drift and tail checks as the quadrature channel.
    """
    if not t >= 0:  # NaN fails too
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    shifted = bool(center[0] or center[1])
    if t == 0 and not shifted:
        return rho.copy()
    k = 0 if target is None else rho.mode_index(target)
    d = rho.mode_dims[k]
    if not shifted:
        if rho.n_modes == 1:
            return _finish(fk.map_mode(rho, 0, lambda x: _kraus_sums(x, t)))
        return _finish(fk.map_diagonals(rho, _diagonal_maps(d, t), k))
    D = displacement_batch(np.asarray(center, dtype=float).reshape(1, 2), d + CENTER_PAD)[0, :d]
    if rho.n_modes == 1:  # the padded matrix may exceed MAX_CUTOFF, so no state holds it
        def noisy(x):
            x = np.pad(x, (0, CENTER_PAD))
            return D @ (_kraus_sums(x, t) if t > 0 else x) @ D.conj().T
        return _finish(fk.map_mode(rho, 0, noisy))
    fk._check_dense((d + CENTER_PAD, rho.dim // d))  # the padded state, before it is built
    x = fk.map_mode(rho, k, lambda x: np.pad(x, [(0, CENTER_PAD)] * 2 + [(0, 0)] * (x.ndim - 2)))
    x = fk.map_diagonals(x, _diagonal_maps(d + CENTER_PAD, t), k) if t > 0 else x
    return _finish(fk.conjugate_mode(D, x, k))


# ---------------------------------------------------------------------------
# beam splitter and the damping semigroup


@functools.lru_cache(maxsize=16)
def _sector_factors(d1: int, d2: int):
    """`_sector_tensor`'s theta-free half, read-only: sector levels k0..k1 of mode A, the SVD of P."""
    h = (min(d1, d2) + 1) // 2
    n = np.arange(d1 + d2 - 1)
    k0, k1 = np.maximum(0, n - d2 + 1), np.minimum(d1 - 1, n)  # sector n: levels k0..k1 of mode A
    lev = k0[:, None] + np.arange(2 * h - 1)  # L[i + 1, i] = sqrt((k + 1)(n - k)), k = k0 + i
    val = np.sqrt(np.where(lev < k1[:, None], (lev + 1) * (n[:, None] - lev), 0))
    a = np.arange(h)
    P = np.zeros((n.size, h, h))  # P[a, a'] = (L - L^T)[2a, 2a' + 1]
    P[:, a, a], P[:, a[1:], a[:-1]] = -val[:, ::2], val[:, 1::2]
    factors = (k0, k1, *np.linalg.svd(P))
    for x in factors:
        x.flags.writeable = False
    return factors


def _sector_tensor(dims, transmissivity: float) -> np.ndarray:
    """G[j, b, k] = <j, b|U|k, j + b - k> (0 where j + b - k is no level of mode B) for the
    beam splitter U = exp(theta (a^dag b - a b^dag)) on cutoffs dims, cos(theta)^2 = transmissivity:
    one block per photon-number sector n = j + b, exact on the truncated space. A block's
    generator theta (L - L^T), L its subdiagonal, couples even and odd local levels only: in
    (even, odd) order it is theta [[0, P], [-P^T, 0]] with P bidiagonal, and with P = U S W^T
    the block is [[I - 2 U sin^2(theta S / 2) U^T, U sin(theta S) W^T], [-W sin(theta S) U^T,
    I - 2 W sin^2(theta S / 2) W^T]]. Every sector's P is zero-padded to one size for one batched
    SVD per cutoffs (`_sector_factors`; padding adds exactly nothing); the identity at theta = 0."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ParameterError(f"transmissivity must be in [0, 1], got {transmissivity}")
    d1, d2 = dims
    theta = math.acos(math.sqrt(transmissivity))
    k0, k1, U, S, Wt = _sector_factors(d1, d2)
    n, h = S.shape
    c, s = -2 * np.sin(theta * S[:, None] / 2) ** 2, np.sin(theta * S[:, None])
    a = np.arange(h)
    B = np.zeros((n, h, 2, h, 2))  # B[n, a, p, a', p'] = block[2a + p, 2a' + p']
    B[:, a, 0, a, 0] = B[:, a, 1, a, 1] = 1.0
    B[:, :, 0, :, 0] += (U * c) @ U.transpose(0, 2, 1)
    B[:, :, 0, :, 1] += (U * s) @ Wt  # added to zeros, so no -0.0 at theta = 0
    B[:, :, 1, :, 0] -= B[:, :, 0, :, 1].transpose(0, 2, 1)
    B[:, :, 1, :, 1] += (Wt.transpose(0, 2, 1) * c) @ Wt
    j, b, k = np.ogrid[:d1, :d2, :d1]
    k0, k1 = k0[j + b], k1[j + b]
    G = B.reshape(-1, 2 * h)[2 * h * (j + b) + j - k0, np.clip(k - k0, 0, 2 * h - 1)]
    G[(k < k0) | (k > k1)] = 0.0
    return G


def beam_splitter_unitary(dims, transmissivity: float) -> np.ndarray:
    """The two-mode beam-splitter unitary, U[(j, b), (k, j + b - k)] = G[j, b, k]."""
    d1, d2 = dims
    G = _sector_tensor(dims, transmissivity)
    j, b, k = np.nonzero(G)
    U = np.zeros((d1 * d2, d1 * d2))
    U[j * d2 + b, k * d2 + j + b - k] = G[j, b, k]
    return U


def _factor(rho: FockState) -> np.ndarray:
    """F with F F^dag = rho, over the eigenpairs above dim * eps * max (the dense
    solver's backward error); real when rho is."""
    w, v = np.linalg.eigh(rho.matrix if rho.matrix.imag.any() else rho.matrix.real)
    keep = w > rho.dim * np.finfo(float).eps * w.max()
    return v[:, keep] * np.sqrt(w[keep])


def _environment_maps(d: int, w: np.ndarray, eta: float):
    """maps(q) for `fk.map_diagonals` of a beam splitter (G of `_sector_tensor`) against diag(w) on cutoff
    d: it keeps n_A + n_E, so maps(q)[y, c] = sum_b w[y + b - c] G[y + q, b, c + q] G[y, b, c]."""
    G = _sector_tensor((d, w.size), eta)
    y, b, c = np.ogrid[:d, :w.size, :d]
    Gw = G * w[np.clip(y + b - c, 0, w.size - 1)]  # G is 0 where clipped
    return lambda q: np.einsum("ybc,ybc->yc", G[q:, :, q:], Gw[:d - q, :, :d - q])


def beam_splitter(rho_a: FockState, rho_b: FockState, transmissivity: float) -> FockState:
    """Mode A of a beam splitter on rho_a x rho_b, tr_B U (rho_a x rho_b) U^T, with no two-mode matrix:
    by `_environment_maps` for a diagonal rho_b, else as W W^dag, W[j, (b, l, i)] = sum_k G[j, b, k]
    F_b[j + b - k, i] F_a[k, l] with rho = F F^dag (`_factor`), G[j, b, k] = <j, b|U|k, j + b - k>
    (U keeps the photon number); W or its intermediate above MAX_DENSE_BYTES raises DomainError."""
    if rho_a.n_modes != 1 or rho_b.n_modes != 1:
        raise DomainError("beam splitter takes two one-mode inputs")
    d1, d2 = rho_a.dim, rho_b.dim
    w = np.diagonal(rho_b.matrix)
    if np.array_equal(rho_b.matrix, np.diag(w)):
        mat = fk.map_diagonals(rho_a, _environment_maps(d1, w.real, transmissivity)).matrix
        return FockState((d1,), fk._hermitize(mat), rho_a.mode_labels)
    fa, fb = _factor(rho_a), _factor(rho_b)
    nbytes = 16 * d1 * d2 * fb.shape[1] * max(d1, fa.shape[1])
    if nbytes > fk.MAX_DENSE_BYTES:
        raise DomainError(f"a beam splitter on cutoffs {(d1, d2)} at input ranks "
                          f"{(fa.shape[1], fb.shape[1])} needs {nbytes} bytes, over the "
                          f"{fk.MAX_DENSE_BYTES} byte cap")
    G = _sector_tensor((d1, d2), transmissivity)
    j, b, k = np.ogrid[:d1, :d2, :d1]
    T = fb[np.clip(j + b - k, 0, d2 - 1)]  # [j, b, k, i]; G is 0 where clipped
    T *= G[..., None]
    W = np.matmul(fa.T, T).reshape(d1, -1)
    return FockState((d1,), fk._hermitize(W @ W.conj().T), rho_a.mode_labels)


def qou_environment(mu: float, lam: float) -> FockState:
    """Thermal fixed point of the damping semigroup, (1-q) sum q^k |k><k|
    with q = lam^2 / mu^2."""
    n_avg = qou_mean_photon(mu, lam)
    return thermal(n_avg, thermal_cutoff(n_avg), label="E")


def qou_channel_fock(rho: FockState, t: float, mu: float, lam: float) -> FockState:
    """Damping-semigroup evolution of the first mode: a beam splitter of transmissivity
    `_qou_transmissivity` against the thermal fixed point, by `_environment_maps`."""
    eta = _qou_transmissivity(t, mu, lam)
    if t == 0:
        return rho.copy()
    w = np.real(np.diag(qou_environment(mu, lam).matrix))
    out = fk.map_diagonals(rho, _environment_maps(rho.mode_dims[0], w, eta))
    if rho.n_modes == 1:
        # not renormalized or tail-checked: the sweep's random qou outputs exceed TAIL_TOL
        return FockState(rho.mode_dims, fk._hermitize(out.matrix), rho.mode_labels)
    return _finish(out)


def qou_superoperator(d: int, t: float, mu: float, lam: float) -> np.ndarray:
    """One-mode damping-channel superoperator (vec action, row-major)."""
    eta = _qou_transmissivity(t, mu, lam)
    w = np.real(np.diag(qou_environment(mu, lam).matrix))
    T = beam_splitter_unitary((d, w.size), eta).reshape(d, w.size, d, w.size)
    K = np.einsum("xeai,i,yebi->xyab", T, w, T.conj(), optimize=True)
    return K.reshape(d * d, d * d).astype(complex)


# ---------------------------------------------------------------------------
# classical memory registers and the heat flow on every side


@dataclass
class Register:
    """A side X given a classical register M, sum_m p_m |m><m| x X_m: one
    part per label, all FockStates on the same dims (the input A) or all
    GridPdfs, each on its own grid (the noise R). An A and an R register with
    the same probabilities are independent given M."""

    probs: np.ndarray
    parts: tuple

    def __post_init__(self):
        self.parts = tuple(self.parts)
        self.probs = np.asarray(self.probs, dtype=float)
        if not self.parts or len(self.probs) != len(self.parts):
            raise DomainError("one probability per register label required")
        if not (self.probs.min() >= 0 and abs(self.probs.sum() - 1.0) <= 1e-6):  # NaN fails too
            raise DomainError("probabilities must be nonnegative and sum to 1")
        if not any(all(isinstance(x, kind) for x in self.parts) for kind in (FockState, GridPdf)):
            names = sorted({type(x).__name__ for x in self.parts})
            raise UnsupportedFamilyError(f"register parts must be all FockStates or all GridPdfs, got {names}")
        if isinstance(self.parts[0], FockState) and any(s.mode_dims != self.mode_dims for s in self.parts):
            raise DomainError("register states must share their dims")

    @classmethod
    def of(cls, x) -> "Register":
        """x itself if it is a Register, else x as the one label of probability 1."""
        return x if isinstance(x, cls) else cls([1.0], [x])

    @property
    def mode_dims(self) -> tuple:
        return self.parts[0].mode_dims


@functools.singledispatch
def heat_flow(x, t: float):
    """X after the heat flow for time t, the isotropic Gaussian noise of
    per-axis variance t, on the first mode of a state, on a density (by
    `classical_heat_flow`) or label by label on a Register. t = 0 returns an
    exact copy and t < 0 raises NegativeTimeError (`entropy_gain` relies on both)."""
    raise DomainError(f"unsupported side type {type(x).__name__}")

@heat_flow.register(Register)
def _(x, t): return Register(x.probs, [heat_flow(part, t) for part in x.parts])
@heat_flow.register(GaussianState)
def _(x, t): return gaussian_heat_flow(x, t, x.mode_labels[0])
@heat_flow.register(FockState)
def _(x, t): return gaussian_noise_channel(x, t)
@heat_flow.register(GridPdf)
def _(x, t): return classical_heat_flow(x, t)


# perfbench/tracing.py wraps these names; the program calls `heat_flow`
def register_heat_flow_R(reg: Register, t: float) -> Register: return heat_flow(reg, t)
def register_heat_flow_A(reg: Register, t: float) -> Register: return heat_flow(reg, t)
def cq_classical_heat_flow(noise, t: float): return heat_flow(noise, t)


def check_shared_register(noise: Register, state: Register):
    """Noise and input must be the R and the A side of one register."""
    sides = (noise, GridPdf), (state, FockState)
    if not all(isinstance(x, Register) and isinstance(x.parts[0], kind) for x, kind in sides):
        raise UnsupportedFamilyError(f"unsupported pair {type(noise).__name__}, {type(state).__name__}")
    if not np.array_equal(noise.probs, state.probs):
        raise DomainError("noise and input registers have different label probabilities")


@functools.singledispatch
def extended_channel(noise, state):
    """Memory extension of the classical-noise channel, the output C with its
    memory M: the channel of a GridPdf acting on a FockState, or the per-label
    channels f_m * rho_m, as an A register, of an R register acting on the A
    register with the same labels; `check_shared_register` refuses any other
    pair. `_noise_channel` picks the path, which `channel_path` names."""
    check_shared_register(noise, state)
    return Register(state.probs, [_noise_channel(f, s) for f, s in zip(noise.parts, state.parts)])

@extended_channel.register(GridPdf)
def _noise_channel(f: GridPdf, rho: FockState) -> FockState:
    """The channel of the density f on the state rho, also for each label of a
    register pair: in closed form when f is tagged Gaussian, else by
    quadrature. Both validate f and its grid, which still gives S(R|M)."""
    check_shared_register(Register([1.0], [f]), Register([1.0], [rho]))  # the pair as one label
    if f.gaussian is None:
        return classical_noise_channel(f, rho)
    _check_quadrature(f)
    return gaussian_noise_channel(rho, *f.gaussian)


def channel_path(noise) -> str:
    """"exact" when `extended_channel` applies every density of the noise in
    closed form, else "quadrature"."""
    return "exact" if all(f.gaussian for f in Register.of(noise).parts) else "quadrature"
