"""Reference helpers that only the tests use: single displacement operators
(closed form, matrix exponential and the scalar Laguerre recurrence), the
Gaussian noise on one diagonal built entry by entry, displaced Fock states
and densities, untagged copies of densities and their shared cells, the
per-mode photon number, the quadrature moments from dense operators, the
beam splitter's sector blocks by matrix exponential, the dense
beam-splitter dilation, a one-mode superoperator's action and the dense
two-mode squeezed vacuum. They stay independent oracles for the program's
channels, heat flows, moments and diagonal storage.
"""

import functools
import math

import numpy as np
from scipy.linalg import expm

from epi_lab import channels as ch
from epi_lab import fock as fk
from epi_lab import phase_space as ps


def xi_to_alpha(xi) -> complex:
    return complex(xi[0], xi[1]) / math.sqrt(2.0)


def displacement_operator(xi, d: int) -> np.ndarray:
    """Single displacement matrix for the phase-space shift xi."""
    return fk.displacement_batch(np.asarray(xi, dtype=float).reshape(1, 2), d)[0]


def displacement_operator_expm(xi, d: int) -> np.ndarray:
    """Matrix-exponential construction of the same operator."""
    a = fk.annihilation(d).astype(complex)
    alpha = xi_to_alpha(xi)
    return expm(alpha * a.T.conj() - np.conj(alpha) * a)


def displacement_batch_scalar(xis, d: int) -> np.ndarray:
    """`fk.displacement_batch` one matrix element at a time: the Laguerre
    recurrence over n for each subdiagonal k, vectorized over the points only."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    alpha = (xis[:, 0] + 1j * xis[:, 1]) / math.sqrt(2.0)
    x = np.abs(alpha) ** 2
    expo = np.exp(-0.5 * x)
    out = np.zeros((alpha.size, d, d), dtype=complex)
    lg = np.array([math.lgamma(n + 1.0) for n in range(d)])  # log n!
    for k in range(d):
        Lprev, Lcur = np.ones(alpha.size), 1.0 + k - x
        for n in range(d - k):
            Ln = Lprev if n == 0 else Lcur
            if n >= 1:
                Lprev, Lcur = Lcur, ((2 * n + 1 + k - x) * Lcur - (n + k) * Lprev) / (n + 1.0)
            base = math.exp(0.5 * (lg[n] - lg[n + k])) * expo * Ln
            out[:, n + k, n] = base * alpha ** k
            out[:, n, n + k] = base * (-np.conj(alpha)) ** k
    return out


def diagonal_map(d: int, k: int, t: float) -> np.ndarray:
    """Matrix of the Gaussian noise of variance t on the k-th diagonal of a
    d x d matrix, entry by entry: [i, j] takes input element (j + k, j) to
    output element (i + k, i). Pure loss of transmissivity 1/G, then the
    quantum-limited amplifier of gain G = 1 + t."""
    n = d - k
    lf = np.array([math.lgamma(m + 1.0) for m in range(d)])  # log m!
    h = 0.5 * (lf[k:] + lf[:n])  # (log (i + k)! + log i!) / 2
    i, j = np.ogrid[:n, :n]
    s = np.abs(i - j)
    lg, lx = math.log1p(t), math.log(t) - math.log1p(t)
    # loss, j >= i: sqrt(C(j + k, s) C(j, s)) G^-(i + k/2) (t/G)^s
    loss = np.where(j >= i, np.exp(h[j] - h[i] - lf[s] - (i + k / 2) * lg + s * lx), 0.0)
    # amplifier, j <= i: sqrt(C(i + k, s) C(i, s)) G^-(1 + j + k/2) (t/G)^s
    amp = np.where(j <= i, np.exp(h[i] - h[j] - lf[s] - (1 + j + k / 2) * lg + s * lx), 0.0)
    return amp @ loss


def displace_state(rho: fk.FockState, xi, target: str = None) -> fk.FockState:
    """Unitary displacement of one mode of the state."""
    k = rho.mode_index(target or rho.mode_labels[0])
    D = displacement_operator(xi, rho.mode_dims[k])
    mat = fk.conjugate_mode(D, rho, k).matrix
    return fk.FockState(rho.mode_dims, 0.5 * (mat + mat.conj().T), rho.mode_labels)


def mean_energy(rho: fk.FockState, mode: str = None) -> float:
    """Photon number of one mode, read from the diagonal of its marginal."""
    mode = mode or rho.mode_labels[0]
    rho.mode_index(mode)
    marginal = fk.partial_trace(rho, mode) if rho.n_modes == 2 else rho
    return float(np.arange(marginal.dim) @ np.real(np.diag(marginal.matrix)))


def quadrature_moments_dense(rho: fk.FockState):
    """`fk.moments_of_state` from dense operators on the joint space: per
    mode Q = (a + a^dag)/sqrt(2) and P = -i (a - a^dag)/sqrt(2), each
    tensored with the identity on the other mode, then <O_i> and the
    symmetrized <(O_i O_j + O_j O_i)/2> - <O_i><O_j>."""
    ops = []
    for k, d in enumerate(rho.mode_dims):
        a = fk.annihilation(d)
        for op in ((a + a.T) / math.sqrt(2.0), -1j * (a - a.T) / math.sqrt(2.0)):
            factors = [op if j == k else np.eye(dj) for j, dj in enumerate(rho.mode_dims)]
            ops.append(functools.reduce(np.kron, factors))
    mat = rho.matrix

    def expect(op):
        return float(np.real(np.trace(op @ mat)))

    mean = np.array([expect(op) for op in ops])
    cov = np.array([[expect(0.5 * (x @ y + y @ x)) for y in ops] for x in ops])
    return mean, cov - np.outer(mean, mean)


def displaced(f: ps.GridPdf, eta) -> ps.GridPdf:
    """Shift of the density by eta; grid values (or their factor) and the
    Gaussian tag move along."""
    origin = (f.origin[0] + eta[0], f.origin[1] + eta[1])
    gaussian = None
    if f.gaussian:
        t, (cx, cy) = f.gaussian
        gaussian = (t, (cx + eta[0], cy + eta[1]))
    if f.factor is not None:
        return ps.GridPdf(origin, f.spacing, gaussian=gaussian, factor=f.factor)
    return ps.GridPdf(origin, f.spacing, f.values, gaussian)


def untagged(f: ps.GridPdf) -> ps.GridPdf:
    """The same grid without its Gaussian tag, as a `file:` density arrives:
    its heat flow runs the FFT convolution."""
    return ps.GridPdf(f.origin, f.spacing, f.values)


def shared_cells(f: ps.GridPdf, g: ps.GridPdf):
    """The values of f and of g on the cells both grids hold; the grids must
    share their spacing and their lattice."""
    offset = [(go - fo) / f.spacing for go, fo in zip(g.origin, f.origin)]
    assert g.spacing == f.spacing and all(abs(o - round(o)) < 1e-6 for o in offset)
    i, j = (round(o) for o in offset)
    lo_i, lo_j = max(0, i), max(0, j)
    hi_i, hi_j = min(f.size, i + g.size), min(f.size, j + g.size)
    return f.values[lo_i:hi_i, lo_j:hi_j], g.values[lo_i - i:hi_i - i, lo_j - j:hi_j - j]


def sector_tensor_expm(dims, transmissivity: float) -> np.ndarray:
    """The beam splitter's sector tensor G[j, b, k] = <j, b|U|k, j + b - k> of
    `ch._sector_tensor`, one matrix exponential of the generator
    theta (a^dag b - a b^dag) per photon-number sector n = j + b."""
    d1, d2 = dims
    theta = math.acos(math.sqrt(transmissivity))
    G = np.zeros((d1, d2, d1))
    for n in range(d1 + d2 - 1):
        ks = np.arange(max(0, n - d2 + 1), min(d1 - 1, n) + 1)
        val = np.sqrt((ks[:-1] + 1.0) * (n - ks[:-1]))
        G[ks[:, None], n - ks[:, None], ks] = expm(theta * (np.diag(val, -1) - np.diag(val, 1)))
    return G


def beam_splitter_dense(rho_ab: fk.FockState, transmissivity: float) -> fk.FockState:
    """Mode A of a beam splitter on a two-mode state, through the dense
    dilation: conjugate by the two-mode unitary, then trace out mode B."""
    U = ch.beam_splitter_unitary(rho_ab.mode_dims, transmissivity)
    mat = U @ rho_ab.matrix @ U.T
    mixed = fk.FockState(rho_ab.mode_dims, 0.5 * (mat + mat.conj().T), rho_ab.mode_labels)
    return fk.partial_trace(mixed, rho_ab.mode_labels[0])


def superoperator_output(K: np.ndarray, rho: fk.FockState) -> np.ndarray:
    """K vec(rho) as a matrix, for a one-mode superoperator K in the row-major
    vec convention of `ch.qou_superoperator`."""
    d = rho.dim
    return (K @ rho.matrix.reshape(-1)).reshape(d, d)


def tmsv_dense(r: float, d: int) -> fk.FockState:
    """Two-mode squeezed vacuum as a dense outer product |psi><psi|,
    psi = sum_n tanh(r)^n |n, n> normalized."""
    psi = np.zeros((d, d))
    psi[np.arange(d), np.arange(d)] = math.tanh(r) ** np.arange(d)
    psi = psi.ravel() / np.linalg.norm(psi)
    return fk.FockState((d, d), np.outer(psi, psi).astype(complex))
