"""Discretized probability densities on a single-mode phase space.

Densities live on uniform L x L grids and are normalized against the
rescaled measure d^2 xi / (2 pi), so each cell carries integration weight
spacing^2 / (2 pi). Entropies use natural logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.special import xlogy

from .errors import DomainError, GridTooSmallError, NegativeTimeError, SpacingMismatchError

TWO_PI = 2.0 * math.pi
MASS_TOL = 1e-6
TAIL_TOL = 1e-8
MAX_GRID = 2048


@dataclass
class GridPdf:
    """Nonnegative density sampled at the cell centers of a square grid.

    origin is the coordinate of the (0, 0) cell center; values[i, j] samples
    the density at origin + spacing * (i, j). `gaussian` is (t, center) when
    the values sample the isotropic Gaussian of per-axis variance t centered
    there (set by `gaussian_pdf`, moved along by `classical_heat_flow`), else None.
    """

    origin: tuple
    spacing: float
    values: np.ndarray
    gaussian: tuple = None

    def __post_init__(self):
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        self.spacing = float(self.spacing)
        self.values = np.asarray(self.values, dtype=float)
        if self.spacing <= 0:
            raise DomainError("spacing must be positive")
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise DomainError("values must be a square L x L array")
        if self.values.shape[0] > MAX_GRID:
            raise GridTooSmallError(f"grid side {self.values.shape[0]} exceeds cap {MAX_GRID}")
        if self.values.min() < 0:
            raise DomainError("density values must be nonnegative")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def cell_weight(self) -> float:
        return self.spacing ** 2 / TWO_PI

    def axes(self):
        L = self.size
        xs = self.origin[0] + self.spacing * np.arange(L)
        ys = self.origin[1] + self.spacing * np.arange(L)
        return xs, ys

    def points(self) -> np.ndarray:
        """Cell centers as an (L*L, 2) array in row-major order."""
        xs, ys = self.axes()
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_weight)

    def boundary_ring_mass(self) -> float:
        v = self.values
        if self.size < 3:
            return self.mass()
        ring = v[0, :].sum() + v[-1, :].sum() + v[1:-1, 0].sum() + v[1:-1, -1].sum()
        return float(ring * self.cell_weight)

    def validate(self):
        if abs(self.mass() - 1.0) > MASS_TOL:
            raise DomainError(f"total mass {self.mass()} is not 1 within {MASS_TOL}")
        if self.boundary_ring_mass() > TAIL_TOL:
            raise GridTooSmallError(
                f"boundary ring holds mass {self.boundary_ring_mass():.3e} > {TAIL_TOL}"
            )

    def normalized(self) -> "GridPdf":
        m = self.mass()
        if m <= 0:
            raise DomainError("cannot normalize a zero density")
        return GridPdf(self.origin, self.spacing, self.values / m, self.gaussian)


def resolving_spacing(t: float) -> float:
    """Coarsest grid spacing that resolves a Gaussian of variance t: a quarter
    of its standard deviation, never coarser than at variance 0.5."""
    return 0.25 * math.sqrt(min(0.5, t))


def gaussian_pdf(t: float, center=(0.0, 0.0), spacing: float = None, extent: float = None) -> GridPdf:
    """Isotropic Gaussian density with per-axis variance t, sampled and
    renormalized on a grid centered at `center`.

    The grid must reach at least 8 sqrt(t) beyond the center; one extra ring
    of (numerically zero) cells is added so the boundary-tail budget holds
    even at coarse spacings.
    """
    if t <= 0:
        raise DomainError(f"gaussian_pdf requires t > 0, got {t}")
    sigma = math.sqrt(t)
    if spacing is None:
        spacing = resolving_spacing(t)
    if not spacing > 0:
        raise DomainError(f"gaussian_pdf requires spacing > 0, got {spacing}")
    if extent is None:
        extent = 8.5 * sigma
    if extent < 8.0 * sigma:
        raise GridTooSmallError(f"extent {extent} < 8 sqrt(t) = {8 * sigma}")
    half = int(math.ceil(extent / spacing)) + 1
    L = 2 * half + 1
    if L > MAX_GRID:
        raise GridTooSmallError(f"grid side {L} exceeds cap {MAX_GRID}; coarsen the spacing")
    g = np.exp(-(spacing * (np.arange(L) - half)) ** 2 / (2.0 * t))
    vals = np.outer(g, g) / t  # separable: L exponentials, not L^2
    center = (float(center[0]), float(center[1]))
    origin = (center[0] - half * spacing, center[1] - half * spacing)
    return GridPdf(origin, spacing, vals, (float(t), center)).normalized()


def delta_pdf(spacing: float, center=(0.0, 0.0), pad: int = 2) -> GridPdf:
    """Single-cell spike, the narrowest density representable on the grid."""
    L = 2 * pad + 1
    vals = np.zeros((L, L))
    vals[pad, pad] = TWO_PI / spacing ** 2
    return GridPdf((center[0] - pad * spacing, center[1] - pad * spacing), spacing, vals)


def uniform_square_pdf(width: float, spacing: float, center=(0.0, 0.0), pad: int = 2) -> GridPdf:
    """Uniform density on a square of side `width`, zero-padded at the rim."""
    inner = max(int(round(width / spacing)), 1)
    L = inner + 2 * pad
    vals = np.zeros((L, L))
    vals[pad : pad + inner, pad : pad + inner] = 1.0
    half = (L - 1) / 2.0
    f = GridPdf((center[0] - half * spacing, center[1] - half * spacing), spacing, vals)
    return f.normalized()


def shannon_entropy(f: GridPdf) -> float:
    """Differential entropy -sum f log f * spacing^2 / (2 pi), with 0 log 0 = 0."""
    return float(-xlogy(f.values, f.values).sum() * f.cell_weight)


def energy(f: GridPdf) -> float:
    """Sum of second moments, sum_k integral xi_k^2 f(xi) d xi / (2 pi)."""
    xs, ys = f.axes()
    rsq = xs[:, None] ** 2 + ys[None, :] ** 2
    return float((rsq * f.values).sum() * f.cell_weight)


def moments(f: GridPdf):
    """First moments and 2x2 covariance by midpoint quadrature."""
    xs, ys = f.axes()
    w = f.values * f.cell_weight
    wx = w.sum(axis=1)
    wy = w.sum(axis=0)
    mx = float(xs @ wx)
    my = float(ys @ wy)
    dx = xs - mx
    dy = ys - my
    cxx = float(dx ** 2 @ wx)
    cyy = float(dy ** 2 @ wy)
    cxy = float(dx @ w @ dy)
    return np.array([mx, my]), np.array([[cxx, cxy], [cxy, cyy]])


def classical_convolution(g: GridPdf, f: GridPdf) -> GridPdf:
    """Density of the sum of independent samples from g and f.

    Grids must share their spacing; the output grid covers the full support
    sum. Sub-machine-precision FFT ringing is clamped to zero before the
    output is renormalized.
    """
    if abs(g.spacing - f.spacing) > 1e-12:
        raise SpacingMismatchError(f"spacings differ: {g.spacing} vs {f.spacing}")
    L = g.size + f.size - 1
    if L > MAX_GRID:
        raise GridTooSmallError(f"convolution output side {L} exceeds cap {MAX_GRID}")
    # the real FFTs scipy.signal.fftconvolve runs, without importing scipy.signal
    shape = [next_fast_len(L, True)] * 2
    vals = irfftn(rfftn(g.values, shape) * rfftn(f.values, shape), shape)[:L, :L] * g.cell_weight
    np.maximum(vals, 0.0, out=vals)
    origin = (g.origin[0] + f.origin[0], g.origin[1] + f.origin[1])
    out = GridPdf(origin, g.spacing, vals)
    drift = out.mass() - 1.0
    if abs(drift) > MASS_TOL:
        raise DomainError(f"convolution mass drifted by {drift:.3e}")
    out = out.normalized()
    return out


def classical_heat_flow(f: GridPdf, t: float) -> GridPdf:
    """Convolution with the isotropic Gaussian of variance t; t = 0 is the
    identity. A density tagged (s, center) flows in closed form to the tagged
    Gaussian of variance s + t at its spacing; any other is convolved by FFT."""
    if t < 0:
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    if t == 0:
        return GridPdf(f.origin, f.spacing, f.values.copy(), f.gaussian)
    if f.gaussian is not None:
        s, center = f.gaussian
        return gaussian_pdf(s + t, center, spacing=f.spacing)
    kernel = gaussian_pdf(t, (0.0, 0.0), spacing=f.spacing)
    return classical_convolution(f, kernel)


def save_gridpdf(f: GridPdf, path):
    """Text format: a 4-line header (magic, origin, spacing, size) then
    row-major values, one grid row per line."""
    with open(path, "w") as fh:
        fh.write("gridpdf 1\n")
        fh.write(f"origin {f.origin[0]!r} {f.origin[1]!r}\n")
        fh.write(f"spacing {f.spacing!r}\n")
        fh.write(f"size {f.size}\n")
        for row in f.values:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_gridpdf(path) -> GridPdf:
    with open(path) as fh:
        magic = fh.readline().split()
        if magic[:1] != ["gridpdf"]:
            raise DomainError(f"{path}: not a gridpdf file")
        fields = {}
        for _ in range(3):
            parts = fh.readline().split()
            fields[parts[0]] = parts[1:]
        try:
            origin = (float(fields["origin"][0]), float(fields["origin"][1]))
            spacing = float(fields["spacing"][0])
            L = int(fields["size"][0])
        except (KeyError, IndexError, ValueError) as exc:
            raise DomainError(f"{path}: malformed gridpdf header") from exc
        data = np.loadtxt(fh, dtype=float)
    data = np.atleast_2d(data)
    if data.shape != (L, L):
        raise DomainError(f"{path}: expected {L}x{L} values, got {data.shape}")
    return GridPdf(origin, spacing, data)
