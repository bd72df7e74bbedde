"""Discretized probability densities on a single-mode phase space.

Densities live on uniform L x L grids and are normalized against the
rescaled measure d^2 xi / (2 pi), so each cell carries integration weight
spacing^2 / (2 pi). Entropies use natural logarithms.

A sampled isotropic Gaussian (`gaussian_pdf`) is stored by its 1-D factor a,
its grid being np.outer(a, a): L numbers, not L^2. Its mass, boundary ring,
normalization, entropy, energy, moments and t = 0 heat flow are sums over one
axis. Only the readers that need every cell build the grid, on first read of
`values`: `classical_convolution`, `save_gridpdf` and the displacement
quadrature of `channels` (`file:` noise and the oracles).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, GridTooSmallError, NegativeTimeError, SpacingMismatchError
from .fock import xlogx

TWO_PI = 2.0 * math.pi
MASS_TOL = 1e-6
TAIL_TOL = 1e-8
MAX_GRID = 2048


def _check_cells(v: np.ndarray, what: str):
    """Refuse non-finite or negative entries: NaN fails the finiteness test
    of the minimum, inf that of the maximum."""
    lo, hi = v.min(), v.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = v[~np.isfinite(v)]
        kinds = ", ".join(sorted(set(map(str, bad))))
        raise DomainError(f"{what} must be finite, got {bad.size} non-finite ({kinds})")
    if lo < 0:
        raise DomainError(f"{what} must be nonnegative")


class GridPdf:
    """Nonnegative density sampled at the cell centers of a square grid.

    origin is the coordinate of the (0, 0) cell center; values[i, j] samples
    the density at origin + spacing * (i, j). `gaussian` is (t, center) when
    the values sample the isotropic Gaussian of per-axis variance t centered
    there (set by `gaussian_pdf`, moved along by `classical_heat_flow`), else None.

    A separable density may be given by its factor instead of its values:
    a 1-D array a with values == np.outer(a, a), as `gaussian_pdf` gives it.
    Then `values` is built on first read and kept (read-only). Mass, ring,
    `normalized`, entropy, energy, moments and the t = 0 heat flow read the
    factor; `classical_convolution`, `save_gridpdf` and the quadrature of
    `channels` build the grid. Values and factor are checked alike: finite,
    nonnegative, side at most MAX_GRID.
    """

    def __init__(self, origin, spacing: float, values=None, gaussian: tuple = None, factor=None):
        self.origin = (float(origin[0]), float(origin[1]))
        self.spacing = float(spacing)
        self.gaussian = gaussian
        if self.spacing <= 0:
            raise DomainError("spacing must be positive")
        if (values is None) == (factor is None):
            raise DomainError("give the density's values or its factor, not both")
        self.factor = self._values = None
        if factor is not None:
            self.factor = np.asarray(factor, dtype=float)
            if self.factor.ndim != 1:
                raise DomainError("factor must be a 1-D array")
            side, cells, what = self.factor.size, self.factor, "density factor"
        else:
            self._values = np.asarray(values, dtype=float)
            if self._values.ndim != 2 or self._values.shape[0] != self._values.shape[1]:
                raise DomainError("values must be a square L x L array")
            side, cells, what = self._values.shape[0], self._values, "density values"
        if side > MAX_GRID:
            raise GridTooSmallError(f"grid side {side} exceeds cap {MAX_GRID}")
        _check_cells(cells, what)

    @property
    def values(self) -> np.ndarray:
        """The L x L grid; of a factored density, built on first read."""
        if self._values is None:
            self._values = np.outer(self.factor, self.factor)
            self._values.flags.writeable = False
        return self._values

    def __repr__(self) -> str:
        return (f"GridPdf(origin={self.origin}, spacing={self.spacing}, size={self.size}, "
                f"gaussian={self.gaussian}, factored={self.factor is not None})")

    @property
    def size(self) -> int:
        return self.factor.size if self.factor is not None else self._values.shape[0]

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
        if self.factor is not None:
            return float(self.factor.sum() ** 2 * self.cell_weight)
        return float(self.values.sum() * self.cell_weight)

    def boundary_ring_mass(self) -> float:
        if self.size < 3:
            return self.mass()
        if self.factor is not None:
            # rows 0 and L - 1 in full, then columns 0 and L - 1 between them
            a = self.factor
            ring = (a[0] + a[-1]) * (a.sum() + a[1:-1].sum())
        else:
            v = self.values
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
        if self.factor is not None:
            return GridPdf(self.origin, self.spacing, gaussian=self.gaussian,
                           factor=self.factor / math.sqrt(m))
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
    if not t > 0:  # NaN fails too
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
    g = np.exp(-(spacing * (np.arange(L) - half)) ** 2 / (2.0 * t))  # separable: L exponentials
    center = (float(center[0]), float(center[1]))
    origin = (center[0] - half * spacing, center[1] - half * spacing)
    return GridPdf(origin, spacing, gaussian=(float(t), center), factor=g).normalized()


def delta_pdf(spacing: float) -> GridPdf:
    """Single-cell spike at the origin inside two empty rings, the narrowest
    density representable on the grid."""
    vals = np.zeros((5, 5))
    vals[2, 2] = TWO_PI / spacing ** 2
    return GridPdf((-2 * spacing, -2 * spacing), spacing, vals)


def uniform_square_pdf(width: float, spacing: float) -> GridPdf:
    """Uniform density on a square of side `width` centered at the origin,
    inside two empty rings."""
    inner = max(int(round(width / spacing)), 1)
    L = inner + 4
    vals = np.zeros((L, L))
    vals[2 : 2 + inner, 2 : 2 + inner] = 1.0
    half = (L - 1) / 2.0
    return GridPdf((-half * spacing, -half * spacing), spacing, vals).normalized()


def shannon_entropy(f: GridPdf) -> float:
    """Differential entropy -sum f log f * spacing^2 / (2 pi), with 0 log 0 = 0.
    For f = outer(a, a) the sum is 2 (sum a) (sum a log a), summed in that
    form: normalizing a first would cancel two terms of size ~log w."""
    if f.factor is not None:
        a = f.factor
        return float(-2.0 * f.cell_weight * a.sum() * xlogx(a).sum())
    return float(-xlogx(f.values).sum() * f.cell_weight)


def energy(f: GridPdf) -> float:
    """Sum of second moments, sum_k integral xi_k^2 f(xi) d xi / (2 pi), of a
    normalized density: the trace of the covariance plus the squared mean,
    both from `moments`."""
    mean, cov = moments(f)
    return float(np.trace(cov) + mean @ mean)


def moments(f: GridPdf):
    """First moments and 2x2 covariance by midpoint quadrature."""
    xs, ys = f.axes()
    if f.factor is not None:
        a = f.factor
        wx = wy = a * (a.sum() * f.cell_weight)  # both marginals of outer(a, a)
    else:
        w = f.values * f.cell_weight
        wx = w.sum(axis=1)
        wy = w.sum(axis=0)
    mx = float(xs @ wx)
    my = float(ys @ wy)
    dx = xs - mx
    dy = ys - my
    cxx = float(dx ** 2 @ wx)
    cyy = float(dy ** 2 @ wy)
    if f.factor is not None:
        cxy = float((dx @ a) * (a @ dy) * f.cell_weight)
    else:
        cxy = float(dx @ w @ dy)
    return np.array([mx, my]), np.array([[cxx, cxy], [cxy, cyy]])


def largest_variance(f: GridPdf) -> float:
    """The largest eigenvalue of the covariance of f: its variance along its widest axis."""
    return float(np.linalg.eigvalsh(moments(f)[1]).max())


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
    # the real FFTs scipy.signal.fftconvolve runs, bit for bit (numpy.fft rounds
    # differently), without importing scipy.signal; scipy.fft is imported here,
    # so only a run that convolves pays for it
    from scipy.fft import irfftn, next_fast_len, rfftn

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
    if not t >= 0:  # NaN fails too
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    if t == 0:
        if f.factor is not None:
            return GridPdf(f.origin, f.spacing, gaussian=f.gaussian, factor=f.factor.copy())
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
        lines = (fh.readline().split() for _ in range(3))
        fields = {parts[0]: parts[1:] for parts in lines if parts}  # a blank line is a missing field
        try:
            origin = (float(fields["origin"][0]), float(fields["origin"][1]))
            spacing = float(fields["spacing"][0])
            L = int(fields["size"][0])
            data = np.loadtxt(fh, dtype=float)
        except (KeyError, IndexError, ValueError) as exc:
            raise DomainError(f"{path}: malformed gridpdf header or values") from exc
    data = np.atleast_2d(data)
    if data.shape != (L, L):
        raise DomainError(f"{path}: expected {L}x{L} values, got {data.shape}")
    return GridPdf(origin, spacing, data)
