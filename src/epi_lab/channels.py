"""Executable channels: the classical-noise convolution, its memory
extension over a classical register, the heat flow on every side type, beam
splitters, and the one-mode damping (quantum Ornstein-Uhlenbeck) semigroup.

A channel on one mode acts through `fk.map_mode`, any other mode riding
along as a batch: Gaussian noise and damping map each diagonal by one small
matrix (`fk.map_diagonals`), a shifted center pads and displaces the mode
(`fk.conjugate_mode`), and a quadrature superoperator on a two-mode state is
one matrix product (`apply_one_mode_kernel`). `qou_superoperator` is the
damping oracle; the displacement quadrature serves densities with no
Gaussian form and the oracle tests. Its sums run in fixed chunk order, so
repeated runs on one machine agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from . import fock as fk
from .errors import (
    DomainError,
    DriftError,
    NegativeTimeError,
    ParameterError,
    QuadratureError,
    UnsupportedFamilyError,
)
from .fock import FockState, displacement_batch, thermal, thermal_cutoff
from .gaussian import GaussianState, _check_qou_params, gaussian_heat_flow, qou_mean_photon
from .phase_space import GridPdf, classical_heat_flow, gaussian_pdf, moments, resolving_spacing

CHUNK = 1024
TRACE_DRIFT_LIMIT = 1e-4
# levels of the noisy state computed above the cutoff before a shifted noise
# displaces it to its center, which pulls some of them below the cutoff (16
# and 32 levels give the same output; 8 are off by up to 2.4e-15)
CENTER_PAD = 16


def _check_quadrature(f: GridPdf):
    """Validate the density f, then require its grid spacing to resolve it."""
    f.validate()
    _, cov = moments(f)
    t_eq = float(np.linalg.eigvalsh(cov).max())
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
    if t < 0:
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
    if any(t < 0 for t in t_list):
        raise NegativeTimeError("heat flow requires t >= 0")
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


def _diagonal_map(d: int, k: int, t: float) -> np.ndarray:
    """Matrix of the Gaussian noise of variance t on the k-th diagonal of a
    d x d matrix: entry [i, j] takes input element (j + k, j) to output
    element (i + k, i), and equally (j, j + k) to (i, i + k).

    The noise is pure loss of transmissivity 1/G followed by the
    quantum-limited amplifier of gain G = 1 + t. Loss only lowers the photon
    number and the amplifier only raises it, so below the cutoff the map is
    exact for the truncated input.
    """
    n = d - k
    lf = gammaln(np.arange(1.0, d + 1.0))  # log m!
    h = 0.5 * (lf[k:] + lf[:n])  # (log (i + k)! + log i!) / 2
    i, j = np.ogrid[:n, :n]
    s = np.abs(i - j)
    lg, lx = math.log1p(t), math.log(t) - math.log1p(t)
    # loss, j >= i: sqrt(C(j + k, s) C(j, s)) G^-(i + k/2) (t/G)^s
    loss = np.where(j >= i, np.exp(h[j] - h[i] - lf[s] - (i + k / 2) * lg + s * lx), 0.0)
    # amplifier, j <= i: sqrt(C(i + k, s) C(i, s)) G^-(1 + j + k/2) (t/G)^s
    amp = np.where(j <= i, np.exp(h[i] - h[j] - lf[s] - (1 + j + k / 2) * lg + s * lx), 0.0)
    return amp @ loss


def gaussian_noise_channel(rho: FockState, t: float, center=(0.0, 0.0), target: str = None) -> FockState:
    """Isotropic Gaussian noise of per-axis variance t centered at `center`
    on the `target` mode (default: the first), in closed form.

    Each diagonal of the target mode is one small matrix (`_diagonal_map`)
    times the same input diagonal (`fk.map_diagonals`, which runs on the
    diagonal storage of a phase-covariant state); the other mode, if any,
    rides along as a batch. A nonzero center displaces the noisy state,
    computed CENTER_PAD levels above the cutoff on the (capped) dense state,
    and projects it back. t = 0 without a center returns a copy; the output goes
    through the same trace-drift and tail checks as the quadrature channel.
    """
    if t < 0:
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    shifted = bool(center[0] or center[1])
    if t == 0 and not shifted:
        return rho.copy()
    k = 0 if target is None else rho.mode_index(target)
    d = rho.mode_dims[k]
    if not shifted:
        return _finish(fk.map_diagonals(rho, lambda q: _diagonal_map(d, q, t), k))
    fk._check_dense((d + CENTER_PAD, rho.dim // d))  # the padded state, before it is built
    x = fk.map_mode(rho, k, lambda x: np.pad(x, [(0, CENTER_PAD)] * 2 + [(0, 0)] * (x.ndim - 2)))
    if t > 0:
        x = fk.map_diagonals(x, lambda q: _diagonal_map(d + CENTER_PAD, q, t), k)
    D = displacement_batch(np.asarray(center, dtype=float).reshape(1, 2), d + CENTER_PAD)[0]
    return _finish(fk.conjugate_mode(D[:d], x, k))


def _noise_channel(f: GridPdf, rho: FockState) -> FockState:
    """The channel of the density f on rho: in closed form when f is tagged
    Gaussian, else by quadrature. Both validate f and its grid, which still
    gives S(R|M)."""
    if f.gaussian is None:
        return classical_noise_channel(f, rho)
    _check_quadrature(f)
    return gaussian_noise_channel(rho, *f.gaussian)


# ---------------------------------------------------------------------------
# beam splitter and the damping semigroup


def _sector_tensor(dims, transmissivity: float) -> np.ndarray:
    """G[j, b, k] = <j, b|U|k, j + b - k> (0 where j + b - k is no level of mode B) for the
    beam splitter U = exp(theta (a^dag b - a b^dag)) on cutoffs dims, cos(theta)^2 = transmissivity:
    one block per photon-number sector n = j + b, exact on the truncated space."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ParameterError(f"transmissivity must be in [0, 1], got {transmissivity}")
    d1, d2 = dims
    theta = math.acos(math.sqrt(transmissivity))
    G = np.zeros((d1, d2, d1))
    for n in range(d1 + d2 - 1):
        ks = np.arange(max(0, n - d2 + 1), min(d1 - 1, n) + 1)
        val = np.sqrt((ks[:-1] + 1.0) * (n - ks[:-1]))
        G[ks[:, None], n - ks[:, None], ks] = expm(theta * (np.diag(val, -1) - np.diag(val, 1)))
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
    """F with F F^dag = rho, over the eigenpairs above dim * eps * max (the solver's
    backward error, the rule of `fk._packed`); real when rho is."""
    w, v = np.linalg.eigh(rho.matrix if rho.matrix.imag.any() else rho.matrix.real)
    keep = w > rho.dim * np.finfo(float).eps * w.max()
    return v[:, keep] * np.sqrt(w[keep])


def beam_splitter(rho_a: FockState, rho_b: FockState, transmissivity: float) -> FockState:
    """Mode A of a beam splitter on rho_a x rho_b, tr_B U (rho_a x rho_b) U^T, as W W^dag with
    W[j, (b, l, i)] = sum_k G[j, b, k] F_b[j + b - k, i] F_a[k, l], rho = F F^dag (`_factor`) and
    G[j, b, k] = <j, b|U|k, j + b - k> (U keeps the photon number): no two-mode matrix is formed.
    W or its intermediate above MAX_DENSE_BYTES raises DomainError before allocation."""
    if rho_a.n_modes != 1 or rho_b.n_modes != 1:
        raise DomainError("beam splitter takes two one-mode inputs")
    d1, d2 = rho_a.dim, rho_b.dim
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
    mat = W @ W.conj().T
    return FockState((d1,), fk._hermitize(mat), rho_a.mode_labels)


def qou_environment(mu: float, lam: float) -> FockState:
    """Thermal fixed point of the damping semigroup, (1-q) sum q^k |k><k|
    with q = lam^2 / mu^2."""
    n_avg = qou_mean_photon(mu, lam)
    return thermal(n_avg, thermal_cutoff(n_avg), label="E")


def qou_channel_fock(rho: FockState, t: float, mu: float, lam: float) -> FockState:
    """Damping-semigroup evolution of the first mode: a beam splitter (G of `_sector_tensor`)
    of transmissivity exp(-(mu^2 - lam^2) t) against the thermal fixed point w. It keeps
    n_A + n_E, so `fk.map_diagonals` applies it to each diagonal q of the mode as one matrix,
    maps(q)[y, c] = sum_b w[y + b - c] G[y + q, b, c + q] G[y, b, c]."""
    _check_qou_params(mu, lam)
    if t < 0:
        raise NegativeTimeError(f"qOU evolution requires t >= 0, got {t}")
    if t == 0:
        return rho.copy()
    d = rho.mode_dims[0]
    w = np.real(np.diag(qou_environment(mu, lam).matrix))
    G = _sector_tensor((d, w.size), math.exp(-(mu ** 2 - lam ** 2) * t))
    y, b, c = np.ogrid[:d, :w.size, :d]
    Gw = G * w[np.clip(y + b - c, 0, w.size - 1)]  # G is 0 where clipped
    out = fk.map_diagonals(rho, lambda q: np.einsum("ybc,ybc->yc", G[q:, :, q:], Gw[:d - q, :, :d - q]))
    if rho.n_modes == 1:
        # not renormalized and not tail-checked: the one-mode outputs of the
        # sweep's random qou requests exceed TAIL_TOL (see CHANGES.md, FOUND)
        return FockState(rho.mode_dims, fk._hermitize(out.matrix), rho.mode_labels)
    return _finish(out)


def qou_superoperator(d: int, t: float, mu: float, lam: float) -> np.ndarray:
    """One-mode damping-channel superoperator (vec action, row-major)."""
    eta = math.exp(-(mu ** 2 - lam ** 2) * t)
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
        if self.probs.min() < 0 or abs(self.probs.sum() - 1.0) > 1e-6:
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

    def tail_mass(self) -> float:
        return max(s.tail_mass() for s in self.parts)


def heat_flow(x, t: float):
    """X after the heat flow for time t, the isotropic Gaussian noise of
    per-axis variance t, on any side: in closed form on the first mode of a
    GaussianState and on a tagged Gaussian GridPdf, by `gaussian_noise_channel`
    on the first mode of a FockState, by FFT convolution on any other GridPdf
    (both in `classical_heat_flow`), and label by label on a Register. t = 0
    is the identity; t < 0 raises NegativeTimeError."""
    if isinstance(x, Register):
        return Register(x.probs, [heat_flow(part, t) for part in x.parts])
    if isinstance(x, GaussianState):
        return gaussian_heat_flow(x, t, x.mode_labels[0])
    if isinstance(x, FockState):
        return gaussian_noise_channel(x, t)
    if isinstance(x, GridPdf):
        return classical_heat_flow(x, t)
    raise DomainError(f"unsupported side type {type(x).__name__}")


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


def extended_channel(noise, state):
    """Memory extension of the classical-noise channel, the output C with its
    memory M: the channel of a GridPdf acting on a FockState, or the per-label
    channels f_m * rho_m, as an A register, of an R register acting on the A
    register with the same labels. A density tagged Gaussian (from
    `gaussian_pdf`) runs `gaussian_noise_channel`, any other density
    `classical_noise_channel`; `channel_path` names the outcome."""
    if isinstance(noise, GridPdf) and isinstance(state, FockState):
        return _noise_channel(noise, state)
    check_shared_register(noise, state)
    return Register(state.probs, [_noise_channel(f, s) for f, s in zip(noise.parts, state.parts)])


def channel_path(noise) -> str:
    """"exact" when `extended_channel` applies every density of the noise in
    closed form, else "quadrature"."""
    return "exact" if all(f.gaussian for f in Register.of(noise).parts) else "quadrature"
