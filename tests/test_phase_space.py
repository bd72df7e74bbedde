import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from epi_lab import measures as ms
from epi_lab import phase_space as ps
from epi_lab.errors import DomainError, GridTooSmallError, NegativeTimeError, SpacingMismatchError
from oracles import displaced, shared_cells, untagged


def gaussian_mixture(weights, ts, centers, spacing, extent):
    """Mixture of isotropic Gaussians sampled on one grid (test helper)."""
    half = int(math.ceil(extent / spacing)) + 1
    xs = spacing * (np.arange(2 * half + 1) - half)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = np.zeros_like(X)
    for w, t, (cx, cy) in zip(weights, ts, centers):
        vals += w * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * t)) / t
    f = ps.GridPdf((-half * spacing, -half * spacing), spacing, vals)
    return f.normalized()


class TestGaussianPdf:
    @pytest.mark.parametrize("t", [0.2, 1.0, 2.5])
    def test_mass_entropy_energy(self, t):
        f = ps.gaussian_pdf(t)
        f.validate()
        assert f.mass() == pytest.approx(1.0, abs=1e-12)
        assert ps.shannon_entropy(f) == pytest.approx(1.0 + math.log(t), abs=1e-9)
        assert ps.energy(f) == pytest.approx(2.0 * t, rel=1e-9)

    def test_moments(self):
        f = ps.gaussian_pdf(0.8, center=(0.3, -0.7))
        mean, cov = ps.moments(f)
        assert mean == pytest.approx([0.3, -0.7], abs=1e-10)
        assert np.allclose(cov, 0.8 * np.eye(2), atol=1e-9)

    def test_energy_parallel_axis(self):
        f0 = ps.gaussian_pdf(0.5)
        f1 = displaced(f0, (1.2, 0.0))
        assert ps.energy(f1) == pytest.approx(ps.energy(f0) + 1.2 ** 2, rel=1e-9)

    def test_extent_too_small(self):
        with pytest.raises(GridTooSmallError):
            ps.gaussian_pdf(1.0, extent=5.0)

    def test_grid_cap(self):
        with pytest.raises(GridTooSmallError):
            ps.gaussian_pdf(1.0, spacing=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            ps.gaussian_pdf(0.0)


class TestEntropyAndMoments:
    def test_uniform_square(self):
        f = ps.uniform_square_pdf(3.0, 0.05)
        m = (3.0) ** 2 / (2 * math.pi)
        assert ps.shannon_entropy(f) == pytest.approx(math.log(m), rel=1e-9)

    def test_delta_and_uniform_sit_at_the_origin(self):
        # each density centered at the origin inside two empty rings
        f = ps.delta_pdf(0.1)
        assert f.origin == (-0.2, -0.2) and f.size == 5 and f.values[2, 2] == f.values.sum()
        f = ps.uniform_square_pdf(3.0, 0.05)
        assert f.size == 60 + 4 and f.origin == (-(f.size - 1) / 2 * 0.05,) * 2
        assert f.boundary_ring_mass() == 0.0 and f.values[2:-2, 2:-2].min() > 0

    def test_gaussian_tag(self):
        f = ps.gaussian_pdf(0.6, center=(0.3, -0.2))
        assert f.gaussian == (0.6, (0.3, -0.2))
        assert f.normalized().gaussian == f.gaussian
        t, (cx, cy) = displaced(f, (0.35, -1.07)).gaussian
        assert (t, cx, cy) == (0.6, 0.3 + 0.35, -0.2 - 1.07)
        assert ps.delta_pdf(0.1).gaussian is None

    def test_derived_densities_drop_the_tag(self, tmp_path):
        f = ps.gaussian_pdf(0.6)
        assert ps.classical_heat_flow(untagged(f), 0.2).gaussian is None
        assert ps.classical_convolution(f, ps.gaussian_pdf(0.3, spacing=f.spacing)).gaussian is None
        path = tmp_path / "f.gridpdf"
        ps.save_gridpdf(f, path)
        assert ps.load_gridpdf(path).gaussian is None

    def test_heat_flow_moves_the_tag(self):
        f = ps.gaussian_pdf(0.6, center=(0.3, -0.2))
        assert ps.classical_heat_flow(f, 0.2).gaussian == (0.6 + 0.2, (0.3, -0.2))
        assert ps.classical_heat_flow(f, 0.0).gaussian == f.gaussian

    def test_delta_entropy(self):
        f = ps.delta_pdf(0.1)
        assert ps.shannon_entropy(f) == pytest.approx(math.log(0.1 ** 2 / (2 * math.pi)))

    def test_displacement_entropy_bit_identical(self):
        f = ps.gaussian_pdf(0.6)
        shifted = displaced(f, (0.35, -1.07))
        assert ps.shannon_entropy(shifted) == ps.shannon_entropy(f)

    def test_mixture_covariance(self):
        c = 0.9
        f = gaussian_mixture([0.5, 0.5], [1.0, 1.0], [(c, 0.0), (-c, 0.0)], 0.1, 9.5)
        _, cov = ps.moments(f)
        expected = np.eye(2) + np.array([[c ** 2, 0.0], [0.0, 0.0]])
        assert np.allclose(cov, expected, atol=1e-6)


class TestConvolution:
    def test_gaussian_identity(self):
        s, t = 0.6, 0.9
        out = ps.classical_convolution(ps.gaussian_pdf(s, spacing=0.1), ps.gaussian_pdf(t, spacing=0.1))
        xs, ys = out.axes()
        rsq = xs[:, None] ** 2 + ys[None, :] ** 2
        exact = np.exp(-rsq / (2 * (s + t))) / (s + t)
        assert np.abs(out.values - exact).max() <= 1e-6
        assert out.mass() == pytest.approx(1.0, abs=1e-12)

    def test_covariances_add(self):
        g = gaussian_mixture([0.7, 0.3], [0.4, 0.8], [(0.5, 0), (-0.3, 0.2)], 0.1, 8.0)
        f = ps.gaussian_pdf(0.5, spacing=0.1)
        out = ps.classical_convolution(g, f)
        _, cg = ps.moments(g)
        _, cf = ps.moments(f)
        _, cout = ps.moments(out)
        assert np.allclose(cout, cg + cf, atol=1e-6)

    def test_near_delta_neutral(self):
        f = ps.gaussian_pdf(0.5, spacing=0.1)
        out = ps.classical_convolution(f, ps.delta_pdf(0.1))
        assert ps.shannon_entropy(out) == pytest.approx(ps.shannon_entropy(f), abs=1e-12)

    def test_spacing_mismatch(self):
        with pytest.raises(SpacingMismatchError):
            ps.classical_convolution(ps.gaussian_pdf(0.5, spacing=0.1), ps.gaussian_pdf(0.5, spacing=0.11))


# grid pairs the corpus convolves: the three classical-epi entries, the
# Fisher ladder of isoperimetric[classical] (1221 x 1221 by the 139 x 139
# kernel of its step h0 = 0.01) and a scaling[register] label under heat flow
CORPUS_PAIRS = {
    "gauss-gauss": lambda: (ps.gaussian_pdf(0.6, spacing=0.12), ps.gaussian_pdf(0.9, spacing=0.12)),
    "gauss-uniform": lambda: (ps.gaussian_pdf(0.4, spacing=0.05), ps.uniform_square_pdf(3.0, 0.05)),
    "near-delta": lambda: (ps.delta_pdf(0.05), ps.gaussian_pdf(0.5, spacing=0.05)),
    "fisher-ladder": lambda: (ps.gaussian_pdf(0.8, spacing=0.0125), ps.gaussian_pdf(0.01, spacing=0.0125)),
    "register-label": lambda: (ps.gaussian_pdf(0.5, center=(0.4, 0.0), spacing=0.1),
                               ps.gaussian_pdf(5.0, spacing=0.1)),
}


class TestConvolutionBackend:
    @pytest.mark.parametrize("name", sorted(CORPUS_PAIRS))
    def test_matches_fftconvolve_bit_for_bit(self, name):
        from scipy.signal import fftconvolve

        g, f = CORPUS_PAIRS[name]()
        vals = fftconvolve(g.values, f.values, mode="full") * g.cell_weight
        np.maximum(vals, 0.0, out=vals)
        origin = (g.origin[0] + f.origin[0], g.origin[1] + f.origin[1])
        expected = ps.GridPdf(origin, g.spacing, vals).normalized()
        out = ps.classical_convolution(g, f)
        assert out.origin == expected.origin
        assert np.array_equal(out.values, expected.values)

    @staticmethod
    def _fresh_interpreter(code: str) -> list:
        """Output lines of `code` run in a new interpreter that imports epi_lab from the tree."""
        src = str(Path(ps.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return out.stdout.splitlines()

    def test_cli_import_leaves_scipy_signal_out(self):
        # scipy.signal costs most of the command's start-up; a fresh
        # interpreter must not load it
        code = "import sys, epi_lab.cli; print('scipy.signal' in sys.modules)"
        assert self._fresh_interpreter(code) == ["False"]

    def test_cli_start_up_and_fock_commands_load_no_scipy(self):
        # start-up, the beam splitter, the Fock damping channel and the
        # Gaussian noise on a two-mode state run on numpy alone; only
        # `classical_convolution` imports scipy.fft
        code = (
            "import contextlib, io, sys\n"
            "import epi_lab.cli as cli\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.run(argv) for argv in (\n"
            "        ['bs-epi', '--state', 'thermal:0.5', '--cutoff', '32'],\n"
            "        ['qou', '--state', 'fock:1', '--cutoff', '20'],\n"
            "        ['epi', '--state', 'tmsv:0.5', '--noise', 'gauss:0.3', '--cutoff', '24'])]\n"
            "print(codes, scipy())\n"
        )
        assert self._fresh_interpreter(code) == ["[]", "[0, 0, 0] []"]

class TestHeatFlow:
    def test_zero_time(self):
        f = ps.gaussian_pdf(0.5)
        out = ps.classical_heat_flow(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_gaussian_flows_to_gaussian(self):
        out = ps.classical_heat_flow(ps.gaussian_pdf(0.5, spacing=0.1), 0.7)
        assert ps.shannon_entropy(out) == pytest.approx(1.0 + math.log(1.2), abs=1e-8)

    @pytest.mark.parametrize("t,spacing,tau", [(0.5, 0.1, 0.7), (0.8, 0.0125, 0.0025),
                                               (0.3, 0.1, 5.0), (0.8, 0.05, 0.05)])
    def test_tagged_gaussian_matches_convolution(self, t, spacing, tau):
        # the closed form against the FFT convolution of the untagged copy
        f = ps.gaussian_pdf(t, center=(0.37, -0.81), spacing=spacing)
        closed = ps.classical_heat_flow(f, tau)
        fft = ps.classical_convolution(untagged(f), ps.gaussian_pdf(tau, spacing=spacing))
        assert closed.gaussian == (t + tau, (0.37, -0.81)) and fft.gaussian is None
        assert abs(ps.shannon_entropy(closed) - ps.shannon_entropy(fft)) <= 1e-12
        a, b = shared_cells(closed, fft)
        assert a.shape == closed.values.shape
        assert np.abs(a - b).max() <= 1e-12

    def test_semigroup(self):
        f = gaussian_mixture([0.6, 0.4], [0.5, 1.1], [(0.4, -0.2), (-0.6, 0.5)], 0.1, 9.0)
        one = ps.classical_heat_flow(ps.classical_heat_flow(f, 0.3), 0.5)
        two = ps.classical_heat_flow(f, 0.8)
        pad = (one.size - two.size) // 2
        inner = one.values[pad : pad + two.size, pad : pad + two.size] if pad > 0 else one.values
        assert np.abs(inner - two.values).max() <= 1e-6

    def test_entropy_nondecreasing(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            ts = rng.uniform(0.3, 1.2, size=2)
            cs = rng.uniform(-0.8, 0.8, size=(2, 2))
            f = gaussian_mixture([0.5, 0.5], ts, [tuple(c) for c in cs], 0.1, 10.0)
            s_prev = ps.shannon_entropy(f)
            for t in (0.2, 0.5, 1.0):
                s_t = ps.shannon_entropy(ps.classical_heat_flow(f, t))
                assert s_t >= s_prev - 1e-12
                s_prev = s_t

    def test_negative_time(self):
        with pytest.raises(NegativeTimeError):
            ps.classical_heat_flow(ps.gaussian_pdf(0.5), -1.0)


class TestClassicalEpi:
    def test_randomized_mixtures(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            ts = rng.uniform(0.3, 1.0, size=4)
            cs = rng.uniform(-0.7, 0.7, size=(4, 2))
            g = gaussian_mixture([0.5, 0.5], ts[:2], [tuple(c) for c in cs[:2]], 0.1, 9.0)
            f = gaussian_mixture([0.4, 0.6], ts[2:], [tuple(c) for c in cs[2:]], 0.1, 9.0)
            out = ps.classical_convolution(g, f)
            margin = (
                math.exp(ps.shannon_entropy(out))
                - math.exp(ps.shannon_entropy(g))
                - math.exp(ps.shannon_entropy(f))
            )
            assert margin >= -1e-3

    def test_scaling_bound(self):
        f = gaussian_mixture([0.5, 0.5], [0.6, 1.0], [(0.5, 0.0), (-0.5, 0.3)], 0.15, 9.0)
        _, cov = ps.moments(f)
        sigma_sq = float(np.linalg.eigvalsh(cov).max())
        for t in (10.0, 50.0):
            s = ps.shannon_entropy(ps.classical_heat_flow(f, t))
            assert abs(s - math.log(t) - 1.0) <= math.log1p(sigma_sq / t) + 0.02


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        f = ps.gaussian_pdf(0.37, center=(0.21, -0.83), spacing=0.09)
        path = tmp_path / "noise.grid"
        ps.save_gridpdf(f, path)
        g = ps.load_gridpdf(path)
        assert g.origin == f.origin
        assert g.spacing == f.spacing
        assert np.array_equal(g.values, f.values)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("something else\n")
        with pytest.raises(DomainError):
            ps.load_gridpdf(path)

    @pytest.mark.parametrize("header", [
        "origin 0.0\nspacing 0.1\nsize 1\n",  # one origin coordinate
        "origin 0.0 0.0\nspacing x\nsize 1\n",  # not a number
        "\nspacing 0.1\nsize 1\n",  # a blank line
        "origin 0.0 0.0\nspacing 0.1\n",  # no size line: the first value row takes its place
    ])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.grid"
        path.write_text(f"gridpdf 1\n{header}1.0\n")
        with pytest.raises(DomainError, match="malformed gridpdf header"):
            ps.load_gridpdf(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "short.grid"
        path.write_text("gridpdf 1\norigin 0.0 0.0\nspacing 0.1\nsize 3\n1 2 3\n4 5 6\n")
        with pytest.raises(DomainError):
            ps.load_gridpdf(path)


class TestInvariants:
    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            ps.GridPdf((0.0, 0.0), 0.1, -np.ones((3, 3)))

    def test_boundary_tail_flagged(self):
        vals = np.ones((5, 5))
        f = ps.GridPdf((0.0, 0.0), 0.1, vals).normalized()
        with pytest.raises(GridTooSmallError):
            f.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        vals = ps.gaussian_pdf(0.5, spacing=0.1).values.copy()
        vals[10, 12] = bad
        with pytest.raises(DomainError, match="must be finite"):
            ps.GridPdf((0.0, 0.0), 0.1, vals)


# every grid that fits the cap: t = 3 at spacing 0.0125 needs side 2359
FACTORED = [(t, s) for t, s in itertools.product((0.05, 0.8, 3.0), (None, 0.1, 0.0125))
            if (t, s) != (3.0, 0.0125)]


class TestFactoredStorage:
    @pytest.mark.parametrize("t,spacing", FACTORED)
    def test_readers_match_the_dense_oracle(self, t, spacing):
        f = ps.gaussian_pdf(t, center=(0.37, -0.81), spacing=spacing)
        dense = untagged(f)
        assert f.factor is not None and dense.factor is None
        for read in (ps.shannon_entropy, ps.energy, ps.GridPdf.mass, ps.GridPdf.boundary_ring_mass):
            assert read(f) == pytest.approx(read(dense), rel=1e-13, abs=0)
        (mean, cov), (mean_d, cov_d) = ps.moments(f), ps.moments(dense)
        np.testing.assert_allclose(mean, mean_d, rtol=1e-13, atol=0)
        np.testing.assert_allclose(cov, cov_d, rtol=1e-13, atol=1e-13 * t)
        norm = f.normalized()
        assert norm.factor is not None and norm.gaussian == f.gaussian
        np.testing.assert_allclose(norm.values, dense.normalized().values, rtol=1e-13, atol=0)

    def test_values_are_the_outer_product(self):
        f = ps.gaussian_pdf(0.6, center=(0.2, 0.1), spacing=0.1)
        assert f.size == f.factor.size and f.values.shape == (f.size, f.size)
        assert np.array_equal(f.values, np.outer(f.factor, f.factor))
        assert not f.values.flags.writeable
        assert f.mass() == pytest.approx(1.0, abs=1e-14)
        still = ps.classical_heat_flow(f, 0.0)
        assert still.factor is not None and still.factor is not f.factor
        assert np.array_equal(still.factor, f.factor) and still.gaussian == f.gaussian

    def test_fisher_ladder_builds_no_grid(self):
        # the 1221 x 1221 grid alone is 11.9 MB, so a ladder that built it would fail
        tracemalloc.start()
        try:
            j = ms.fisher(ps.gaussian_pdf(0.8, spacing=0.0125))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert j.value == pytest.approx(1.25, rel=1e-6)
        assert peak < 1e6

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_factor_refused_as_values_are(self, bad):
        a = ps.gaussian_pdf(0.5, spacing=0.1).factor
        a = np.where(a == a.max(), bad, a)
        with pytest.raises(DomainError):
            ps.GridPdf((0.0, 0.0), 0.1, factor=a)
        with pytest.raises(DomainError):
            ps.GridPdf((0.0, 0.0), 0.1, np.outer(a, a))

    def test_factor_over_the_cap_refused(self):
        side = ps.MAX_GRID + 1
        with pytest.raises(GridTooSmallError):
            ps.GridPdf((0.0, 0.0), 0.1, factor=np.ones(side))
        with pytest.raises(GridTooSmallError):
            ps.GridPdf((0.0, 0.0), 0.1, np.broadcast_to(1.0, (side, side)))

    def test_factor_must_be_one_dimensional_and_alone(self):
        a = ps.gaussian_pdf(0.5, spacing=0.1).factor
        with pytest.raises(DomainError):
            ps.GridPdf((0.0, 0.0), 0.1, factor=np.outer(a, a))
        with pytest.raises(DomainError):
            ps.GridPdf((0.0, 0.0), 0.1, np.outer(a, a), factor=a)
        with pytest.raises(DomainError):
            ps.GridPdf((0.0, 0.0), 0.1)
