"""Reference helpers that only the tests use: single displacement operators
(closed form and matrix exponential), displaced Fock states and densities,
untagged copies of densities and their shared cells, the per-mode photon
number, the dense beam-splitter dilation, a one-mode superoperator's action
and the dense two-mode squeezed vacuum. They stay independent oracles for
the program's channels, heat flows, moments and diagonal storage.
"""

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


def displaced(f: ps.GridPdf, eta) -> ps.GridPdf:
    """Shift of the density by eta; grid values and the Gaussian tag move along."""
    origin = (f.origin[0] + eta[0], f.origin[1] + eta[1])
    gaussian = None
    if f.gaussian:
        t, (cx, cy) = f.gaussian
        gaussian = (t, (cx + eta[0], cy + eta[1]))
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
