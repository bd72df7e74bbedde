"""Executable channels: the classical-noise convolution, its memory
extension, quantum heat flow, beam splitters, and the one-mode damping
(quantum Ornstein-Uhlenbeck) semigroup.

Quadrature sums accumulate over grid cells in fixed chunk order, so repeated
runs on the same machine are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.signal import fftconvolve

from . import fock as fk
from .errors import (
    DomainError,
    DriftError,
    NegativeTimeError,
    ParameterError,
    QuadratureError,
    SpacingMismatchError,
    UnsupportedFamilyError,
)
from .fock import FockState, displacement_batch, thermal, thermal_cutoff
from .phase_space import GridPdf, classical_heat_flow, gaussian_pdf, moments

CHUNK = 1024
TRACE_DRIFT_LIMIT = 1e-4
SPACING_FACTOR = 0.25


def _grid_quadrature(f: GridPdf):
    """Cell centers and integration weights of a density grid."""
    return f.points(), f.values.ravel() * f.cell_weight


def _check_quadrature(f: GridPdf):
    _, cov = moments(f)
    t_eq = float(np.linalg.eigvalsh(cov).max())
    limit = SPACING_FACTOR * math.sqrt(min(0.5, t_eq))
    if f.spacing > limit * (1 + 1e-12):
        raise QuadratureError(
            f"grid spacing {f.spacing:.4g} too coarse for noise strength "
            f"{t_eq:.4g} (limit {limit:.4g})"
        )


def _finish(mat: np.ndarray, dims, labels) -> FockState:
    """Renormalize and hermitize a channel output; the pre-normalization
    trace drift is kept on the state as `trace_drift`."""
    tr = float(np.real(np.trace(mat)))
    if abs(tr - 1.0) > TRACE_DRIFT_LIMIT:
        raise DriftError(f"channel output trace drifted to {tr}")
    out = FockState(dims, 0.5 * (mat + mat.conj().T) / tr, labels)
    out.check_tail()
    out.trace_drift = tr - 1.0
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
    """Apply a one-mode superoperator to one factor of a state; returns the matrix."""
    k = rho.mode_index(target)
    if rho.n_modes == 1:
        d = rho.mode_dims[0]
        return (K @ rho.matrix.reshape(-1)).reshape(d, d)
    t = rho.tensor()
    dt = rho.mode_dims[k]
    do = rho.mode_dims[1 - k]
    if k == 0:
        m = t.transpose(0, 2, 1, 3).reshape(dt * dt, do * do)  # (a,b),(m,n)
        out = (K @ m).reshape(dt, dt, do, do).transpose(0, 2, 1, 3)
    else:
        m = t.transpose(1, 3, 0, 2).reshape(dt * dt, do * do)
        out = (K @ m).reshape(dt, dt, do, do).transpose(2, 0, 3, 1)
    return out.reshape(rho.dim, rho.dim)


def classical_noise_channel(f: GridPdf, rho: FockState, target: str = None) -> FockState:
    """Mixture of displaced copies of the state, weighted by the density f.

    For a one-mode state the displacement acts on that mode; for a two-mode
    state it acts on `target` (default: first mode). The grid spacing must
    resolve the noise, the output trace is renormalized and the truncation
    tail re-checked afterwards.
    """
    f.validate()
    _check_quadrature(f)
    points, weights = _grid_quadrature(f)
    if target is None:
        target = rho.mode_labels[0]
    k = rho.mode_index(target)
    if rho.n_modes == 1:
        (mat,) = _conjugation_sums(points, [weights], rho.matrix, rho.mode_dims[0])
    else:
        K = one_mode_kernel(points, weights, rho.mode_dims[k])
        mat = apply_one_mode_kernel(K, rho, target)
    return _finish(mat, rho.mode_dims, rho.mode_labels)


def _heat_grid(t_list, spacing=None, extent=None):
    ts = [t for t in t_list if t > 0]
    if spacing is None:
        spacing = SPACING_FACTOR * math.sqrt(min(0.5, min(ts)))
    if extent is None:
        extent = 8.5 * math.sqrt(max(ts))
    return spacing, extent


def quantum_heat_flow_fock(
    rho: FockState, t: float, target: str = None, spacing: float = None, extent: float = None
) -> FockState:
    """Convolution with the isotropic Gaussian of variance t on one mode."""
    if t < 0:
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    if t == 0:
        return rho.copy()
    spacing, extent = _heat_grid([t], spacing, extent)
    return classical_noise_channel(gaussian_pdf(t, spacing=spacing, extent=extent), rho, target)


def quantum_heat_flow_fock_multi(
    rho: FockState, t_list, target: str = None, spacing: float = None, extent: float = None
):
    """Heat flow at several times sharing one quadrature grid and one pass
    over the displacement batch; errors vary smoothly along t_list, which
    finite-difference consumers rely on."""
    t_list = list(t_list)
    if any(t < 0 for t in t_list):
        raise NegativeTimeError("heat flow requires t >= 0")
    if target is None:
        target = rho.mode_labels[0]
    k = rho.mode_index(target)
    positive = [t for t in t_list if t > 0]
    if not positive:
        return [rho.copy() for _ in t_list]
    spacing, extent = _heat_grid(t_list, spacing, extent)
    grids = {t: gaussian_pdf(t, spacing=spacing, extent=extent) for t in sorted(set(positive))}
    base = grids[max(positive)]
    points = base.points()
    L = base.size

    def padded_weights(g: GridPdf):
        pad = (L - g.size) // 2
        w = np.zeros((L, L))
        w[pad : pad + g.size, pad : pad + g.size] = g.values * g.cell_weight
        return w.ravel()

    weight_sets = [padded_weights(grids[t]) for t in positive]
    for g in grids.values():
        _check_quadrature(g)
    d = rho.mode_dims[k]
    if rho.n_modes == 1:
        mats = _conjugation_sums(points, weight_sets, rho.matrix, d)
    else:
        kernels = one_mode_kernels(points, weight_sets, d)
        mats = [apply_one_mode_kernel(K, rho, target) for K in kernels]
    outs = []
    it = iter(mats)
    for t in t_list:
        outs.append(rho.copy() if t == 0 else _finish(next(it), rho.mode_dims, rho.mode_labels))
    return outs


# ---------------------------------------------------------------------------
# beam splitter and the damping semigroup


def beam_splitter_unitary(dims, transmissivity: float) -> np.ndarray:
    """Two-mode beam-splitter unitary exp(theta (a^dag b - a b^dag)) with
    cos(theta) = sqrt(transmissivity), assembled block-diagonally on total
    photon number sectors (exact within the truncated product space)."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ParameterError(f"transmissivity must be in [0, 1], got {transmissivity}")
    d1, d2 = dims
    theta = math.acos(math.sqrt(transmissivity))
    U = np.zeros((d1 * d2, d1 * d2))
    for n in range(d1 + d2 - 1):
        ks = list(range(max(0, n - d2 + 1), min(d1 - 1, n) + 1))
        m = len(ks)
        G = np.zeros((m, m))
        for idx in range(m - 1):
            k = ks[idx]
            val = math.sqrt((k + 1) * (n - k))
            G[idx + 1, idx] = val
            G[idx, idx + 1] = -val
        block = expm(theta * G) if m > 1 else np.ones((1, 1))
        flat = [k * d2 + (n - k) for k in ks]
        U[np.ix_(flat, flat)] = block
    return U


def beam_splitter(rho_ab: FockState, transmissivity: float) -> FockState:
    """Output of a beam splitter on a two-mode state: conjugate by the
    photon-number-conserving unitary, then trace out the second mode."""
    if rho_ab.n_modes != 2:
        raise DomainError("beam splitter needs a two-mode input")
    U = beam_splitter_unitary(rho_ab.mode_dims, transmissivity)
    mat = U @ rho_ab.matrix @ U.T
    mixed = FockState(rho_ab.mode_dims, 0.5 * (mat + mat.conj().T), rho_ab.mode_labels)
    return fk.partial_trace(mixed, rho_ab.mode_labels[0])


def qou_environment(mu: float, lam: float, env_dim: int = None) -> FockState:
    """Thermal fixed point of the damping semigroup, (1-q) sum q^k |k><k|
    with q = lam^2 / mu^2."""
    if not mu > lam > 0:
        raise ParameterError(f"requires mu > lambda > 0, got mu={mu}, lambda={lam}")
    n_avg = lam ** 2 / (mu ** 2 - lam ** 2)
    if env_dim is None:
        env_dim = thermal_cutoff(n_avg)
    return thermal(n_avg, env_dim, label="E")


def qou_channel_fock(
    rho: FockState, t: float, mu: float, lam: float, target: str = None, env_dim: int = None
) -> FockState:
    """Damping-semigroup evolution of one mode: a beam splitter of
    transmissivity exp(-(mu^2 - lam^2) t) against the thermal fixed point."""
    if not mu > lam > 0:
        raise ParameterError(f"requires mu > lambda > 0, got mu={mu}, lambda={lam}")
    if t < 0:
        raise NegativeTimeError(f"qOU evolution requires t >= 0, got {t}")
    if t == 0:
        return rho.copy()
    eta = math.exp(-(mu ** 2 - lam ** 2) * t)
    env = qou_environment(mu, lam, env_dim)
    if target is None:
        target = rho.mode_labels[0]
    k = rho.mode_index(target)
    if rho.n_modes == 1:
        joint = fk.tensor_product(rho, env, labels=(target, "E"))
        out = beam_splitter(joint, eta)
        return FockState(out.mode_dims, out.matrix, (target,))
    K = qou_superoperator(rho.mode_dims[k], t, mu, lam, env_dim)
    mat = apply_one_mode_kernel(K, rho, target)
    return _finish(mat, rho.mode_dims, rho.mode_labels)


def qou_superoperator(d: int, t: float, mu: float, lam: float, env_dim: int = None) -> np.ndarray:
    """One-mode damping-channel superoperator (vec action, row-major)."""
    eta = math.exp(-(mu ** 2 - lam ** 2) * t)
    env = qou_environment(mu, lam, env_dim)
    de = env.mode_dims[0]
    w = np.real(np.diag(env.matrix))
    T = beam_splitter_unitary((d, de), eta).reshape(d, de, d, de)
    K = np.einsum("xeai,i,yebi->xyab", T, w, T.conj(), optimize=True)
    return K.reshape(d * d, d * d).astype(complex)


# ---------------------------------------------------------------------------
# classical-quantum joint states


@dataclass
class CQState:
    """Joint state of a classical phase-space variable and a quantum system.

    `conditionals` is either a single FockState (the classical variable is
    independent of the quantum side) or one FockState per grid cell in
    row-major order.
    """

    grid: GridPdf
    conditionals: object

    def __post_init__(self):
        self.grid.validate()
        if not self.is_independent:
            self.conditionals = tuple(self.conditionals)
            if len(self.conditionals) != self.grid.size ** 2:
                raise DomainError("need one conditional state per grid cell")
            dims = self.conditionals[0].mode_dims
            if any(c.mode_dims != dims for c in self.conditionals):
                raise DomainError("conditional states must share their dims")

    @property
    def is_independent(self) -> bool:
        return isinstance(self.conditionals, FockState)

    def weights(self) -> np.ndarray:
        return self.grid.values.ravel() * self.grid.cell_weight

    def conditional_dims(self):
        c = self.conditionals if self.is_independent else self.conditionals[0]
        return c.mode_dims


def cq_classical_heat_flow(state: CQState, t: float) -> CQState:
    """Classical heat flow on the phase-space variable of a joint state."""
    if t < 0:
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    if t == 0:
        return CQState(GridPdf(state.grid.origin, state.grid.spacing, state.grid.values.copy()),
                       state.conditionals)
    if state.is_independent:
        return CQState(classical_heat_flow(state.grid, t), state.conditionals)
    kernel = gaussian_pdf(t, spacing=state.grid.spacing)
    L = state.grid.size
    dims = state.conditional_dims()
    dim = int(np.prod(dims))
    field = np.stack([c.matrix for c in state.conditionals]).reshape(L, L, dim, dim)
    field = field * state.grid.values[:, :, None, None]
    out = fftconvolve(field, kernel.values[:, :, None, None] * kernel.cell_weight, axes=(0, 1))
    traces = np.maximum(np.real(np.trace(out, axis1=2, axis2=3)), 0.0)
    labels = state.conditionals[0].mode_labels
    conds = []
    eye = np.eye(dim) / dim
    Lo = traces.shape[0]
    for i in range(Lo):
        for j in range(Lo):
            if traces[i, j] > 1e-300:
                mat = out[i, j] / traces[i, j]
            else:
                mat = eye
            conds.append(FockState(dims, 0.5 * (mat + mat.conj().T), labels))
    origin = (state.grid.origin[0] + kernel.origin[0], state.grid.origin[1] + kernel.origin[1])
    new_grid = GridPdf(origin, state.grid.spacing, traces).normalized()
    return CQState(new_grid, conds)


@dataclass
class RegisterState:
    """Classical register M with one quantum state and one noise density per
    label; represents sum_m p_m |m><m| x rho_m x f_m, which has vanishing
    conditional mutual information between the quantum and classical parts
    by construction."""

    probs: np.ndarray
    states: tuple
    pdfs: tuple = None
    labels: tuple = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.states = tuple(self.states)
        if self.labels is None:
            self.labels = tuple(f"m{i}" for i in range(len(self.states)))
        if len(self.probs) != len(self.states):
            raise DomainError("one probability per state required")
        if self.probs.min() < 0 or abs(self.probs.sum() - 1.0) > 1e-6:
            raise DomainError("probabilities must be nonnegative and sum to 1")
        dims = self.states[0].mode_dims
        if any(s.mode_dims != dims for s in self.states):
            raise DomainError("register states must share their dims")
        if self.pdfs is not None:
            self.pdfs = tuple(self.pdfs)
            if len(self.pdfs) != len(self.states):
                raise DomainError("one noise density per label required")
            s0 = self.pdfs[0].spacing
            for f in self.pdfs[1:]:
                if abs(f.spacing - s0) > 1e-12:
                    raise SpacingMismatchError("register densities must share spacing")
                off = (np.asarray(f.origin) - np.asarray(self.pdfs[0].origin)) / s0
                if np.abs(off - np.round(off)).max() > 1e-9:
                    raise SpacingMismatchError("register density grids must share a lattice")

    @property
    def n_labels(self) -> int:
        return len(self.states)

    def tail_mass(self) -> float:
        return max(s.tail_mass() for s in self.states)


def register_heat_flow_R(reg: RegisterState, t: float) -> RegisterState:
    """Classical heat flow on every per-label noise density."""
    if reg.pdfs is None:
        raise DomainError("register has no classical densities")
    return RegisterState(reg.probs, reg.states, tuple(classical_heat_flow(f, t) for f in reg.pdfs),
                         reg.labels)


def register_heat_flow_A(reg: RegisterState, t: float, **grid_kw) -> RegisterState:
    """Quantum heat flow on every per-label quantum state."""
    return RegisterState(reg.probs, tuple(quantum_heat_flow_fock(s, t, **grid_kw) for s in reg.states),
                         reg.pdfs, reg.labels)


def extended_channel(state, target: str = None):
    """Memory extension of the classical-noise channel.

    Supported families with certified conditional independence:
      - CQState with a shared conditional (the classical variable is
        independent of the quantum side): displaces the `target` mode of the
        conditional, returns a FockState on (C, memory).
      - RegisterState: per-label one-mode convolutions f_m * rho_m, returns a
        RegisterState holding the channel outputs.
    Anything else is rejected: conditional independence cannot be certified
    for arbitrary cell-dependent conditionals.
    """
    if isinstance(state, RegisterState):
        if state.pdfs is None:
            raise DomainError("register carries no noise densities")
        outs = tuple(classical_noise_channel(f, s) for f, s in zip(state.pdfs, state.states))
        return RegisterState(state.probs, outs, None, state.labels)
    if isinstance(state, CQState):
        if not state.is_independent:
            raise UnsupportedFamilyError(
                "cell-dependent conditionals carry no conditional-independence certificate"
            )
        return classical_noise_channel(state.grid, state.conditionals, target=target)
    raise UnsupportedFamilyError(f"unsupported input of type {type(state).__name__}")
