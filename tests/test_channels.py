import math
import tracemalloc

import numpy as np
import pytest

from epi_lab import channels as ch
from epi_lab import fock as fk
from epi_lab import gaussian as ga
from epi_lab import measures as ms
from epi_lab import phase_space as ps
from epi_lab.errors import (
    DomainError,
    DriftError,
    NegativeTimeError,
    ParameterError,
    QuadratureError,
    TailError,
    UnsupportedFamilyError,
)
from oracles import (
    beam_splitter_dense,
    diagonal_map,
    displace_state,
    displaced,
    mean_energy,
    sector_tensor_expm,
    shared_cells,
    superoperator_output,
    untagged,
)


class TestClassicalNoiseChannel:
    def test_near_delta_is_identity(self):
        rho = fk.coherent(0.5, 20)
        f = ps.gaussian_pdf(1e-6, spacing=2.5e-4)
        out = ch.classical_noise_channel(f, rho)
        assert fk.trace_norm_distance(out, rho) <= 1e-4

    def test_vacuum_becomes_thermal(self):
        t = 0.3
        out = ch.classical_noise_channel(ps.gaussian_pdf(t), fk.vacuum(40))
        assert fk.von_neumann_entropy(out) == pytest.approx(ga.g_function(t), abs=1e-4)
        assert fk.trace_norm_distance(out, fk.thermal(t, 40)) <= 1e-4

    def test_moment_bookkeeping(self):
        rho = fk.coherent(0.4 + 0.2j, 40)
        f = ps.gaussian_pdf(0.3, center=(0.5, -0.25))
        out = ch.classical_noise_channel(f, rho)
        m_in, c_in = fk.moments_of_state(rho)
        m_f, c_f = ps.moments(f)
        m_out, c_out = fk.moments_of_state(out)
        assert np.abs(m_out - (m_in + m_f)).max() <= 1e-4
        assert np.abs(c_out - (c_in + c_f)).max() <= 1e-4

    def test_quadrature_guard(self):
        f = ps.gaussian_pdf(0.05, spacing=0.12)
        with pytest.raises(QuadratureError):
            ch.classical_noise_channel(f, fk.vacuum(30))
        # the default grid sits exactly on the resolving spacing
        t = 0.2
        f = ps.gaussian_pdf(t)
        assert f.spacing == ps.resolving_spacing(t)
        ch.classical_noise_channel(f, fk.vacuum(16))
        with pytest.raises(QuadratureError):
            ch.classical_noise_channel(ps.gaussian_pdf(t, spacing=1.01 * f.spacing), fk.vacuum(16))

    def test_tail_guard(self):
        with pytest.raises(TailError):
            ch.classical_noise_channel(ps.gaussian_pdf(1.0), fk.vacuum(25))

    def test_drift_guard(self):
        # a cutoff this small leaks trace through the truncated displacements
        from epi_lab.errors import DriftError
        with pytest.raises(DriftError):
            ch.classical_noise_channel(ps.gaussian_pdf(1.0), fk.vacuum(6))

    def test_trace_and_positivity(self):
        rho = fk.random_mixed(3, 40, seed=2, support=12)
        out = ch.classical_noise_channel(ps.gaussian_pdf(0.4), rho)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        assert fk.eigenvalues(out).min() >= -1e-9

    def test_displacement_compatibility(self):
        # (f * rho) displaced by xi1 + xi2 equals f^(xi1) * rho^(xi2)
        rho = fk.coherent(0.3, 30)
        f = ps.gaussian_pdf(0.2)
        xi1 = (2 * f.spacing, -3 * f.spacing)
        xi2 = (0.4, 0.7)
        lhs = displace_state(
            ch.classical_noise_channel(f, rho), (xi1[0] + xi2[0], xi1[1] + xi2[1])
        )
        rhs = ch.classical_noise_channel(displaced(f, xi1), displace_state(rho, xi2))
        assert fk.trace_norm_distance(lhs, rhs) <= 1e-4

    def test_heat_semigroup_compatibility(self):
        # N(t1+t2)(f * rho) = N_cl(t1) f * N(t2) rho
        rho = fk.fock(1, 24)
        f = ps.gaussian_pdf(0.2, spacing=0.1)
        t1, t2 = 0.15, 0.1
        lhs = ch.quantum_heat_flow_fock(ch.classical_noise_channel(f, rho), t1 + t2)
        rhs = ch.classical_noise_channel(
            ps.classical_heat_flow(f, t1), ch.quantum_heat_flow_fock(rho, t2)
        )
        assert fk.trace_norm_distance(lhs, rhs) <= 1e-4


class TestHeatFlowFock:
    def test_zero_time(self):
        rho = fk.thermal(0.5, 20)
        out = ch.quantum_heat_flow_fock(rho, 0.0)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_entropy_value(self):
        out = ch.quantum_heat_flow_fock(fk.vacuum(40), 0.5)
        assert fk.von_neumann_entropy(out) == pytest.approx(ga.g_function(0.5), abs=1e-4)

    @pytest.mark.parametrize("rho", [fk.thermal(0.4, 20), fk.two_mode_squeezed_vacuum(0.3, 12)],
                             ids=["thermal", "tmsv"])
    def test_multi_is_the_noise_channel_on_the_shared_grid(self, rho):
        ts = [0.0, 0.05, 0.1]
        spacing, extent = ps.resolving_spacing(0.05), 8.5 * math.sqrt(0.1)
        outs = ch.quantum_heat_flow_fock_multi(rho, ts, target="A")
        for t, out in zip(ts[1:], outs[1:]):
            f = ps.gaussian_pdf(t, spacing=spacing, extent=extent)
            single = ch.classical_noise_channel(f, rho, "A")
            assert np.array_equal(out.matrix, single.matrix)
            assert out.trace_drift == single.trace_drift

    def test_multi_matches_single(self):
        rho = fk.thermal(0.4, 30)
        outs = ch.quantum_heat_flow_fock_multi(rho, [0.0, 0.1, 0.2])
        assert np.array_equal(outs[0].matrix, rho.matrix)
        single = ch.quantum_heat_flow_fock(rho, 0.2)
        assert fk.trace_norm_distance(outs[2], single) <= 2e-5

    def test_gaussian_oracle_two_mode(self):
        tm = fk.two_mode_squeezed_vacuum(0.4, 20)
        out = ch.quantum_heat_flow_fock(tm, 0.3, target="A")
        gs = ga.gaussian_heat_flow(ga.tmsv_state(0.4), 0.3, "A")
        mean, cov = fk.moments_of_state(out)
        assert np.abs(cov - gs.cov).max() <= 1e-4
        assert np.abs(mean).max() <= 1e-6


ORACLE_STATES = {
    "vacuum": lambda: fk.vacuum(60),
    "fock1": lambda: fk.fock(1, 48),
    "cat2": lambda: fk.cat(2.0, 48),
    "thermal": lambda: fk.thermal(0.8, 48),
}
# every state at every time unshifted, plus shifted cases whose output still
# fits below the cutoff
ORACLE_CASES = [(name, t, (0.0, 0.0)) for name in ORACLE_STATES for t in (0.0025, 0.01, 0.2, 0.5, 1.0)] + [
    ("vacuum", 1.0, (2.5, 1.0)), ("fock1", 0.5, (2.5, 1.0)), ("fock1", 0.0025, (0.5, 0.0)),
    ("cat2", 0.5, (-1.0, 2.0)), ("thermal", 1.0, (0.5, 0.0)), ("thermal", 0.01, (2.5, 1.0))]


class TestGaussianNoiseChannel:
    """The exact core against the displacement quadrature, its oracle."""

    @pytest.mark.parametrize("name,t,center", ORACLE_CASES)
    def test_matches_quadrature(self, name, t, center):
        rho = ORACLE_STATES[name]()
        exact = ch.gaussian_noise_channel(rho, t, center)
        quad = ch.classical_noise_channel(ps.gaussian_pdf(t, center=center), rho)
        assert np.abs(exact.matrix - quad.matrix).max() <= 1e-12

    @pytest.mark.parametrize("t,center", [(0.2, (0.0, 0.0)), (0.3, (0.5, -0.4))])
    @pytest.mark.parametrize("target", ["A", "M"])
    def test_two_mode_matches_quadrature(self, target, t, center):
        tm = fk.two_mode_squeezed_vacuum(0.66, 40)
        exact = ch.gaussian_noise_channel(tm, t, center, target)
        quad = ch.classical_noise_channel(ps.gaussian_pdf(t, center=center), tm, target)
        assert np.abs(exact.matrix - quad.matrix).max() <= 1e-12

    def test_register_matches_quadrature(self):
        reg = ch.Register([0.4, 0.6], [fk.fock(1, 48), fk.cat(2.0, 48)])
        noise = ch.Register([0.4, 0.6], [ps.gaussian_pdf(t, center=c, spacing=0.1)
                                              for t, c in ((0.3, (0.5, 0.0)), (0.7, (-0.4, 0.3)))])
        out = ch.extended_channel(noise, reg)
        assert ch.channel_path(noise) == "exact"
        for f, s, o in zip(noise.parts, reg.parts, out.parts):
            assert np.abs(o.matrix - ch.classical_noise_channel(f, s).matrix).max() <= 1e-12

    def test_time_zero_and_negative(self):
        rho = fk.thermal(0.5, 20)
        assert np.array_equal(ch.gaussian_noise_channel(rho, 0.0).matrix, rho.matrix)
        with pytest.raises(NegativeTimeError):
            ch.gaussian_noise_channel(rho, -0.1)

    def test_guards_match_quadrature(self):
        with pytest.raises(TailError):
            ch.gaussian_noise_channel(fk.vacuum(25), 1.0)
        with pytest.raises(DriftError):
            ch.gaussian_noise_channel(fk.vacuum(6), 1.0)

    def test_shifted_padding_respects_the_dense_cap(self, monkeypatch):
        # at cutoff 16 the dense two-mode matrix takes 1 MiB, its copy padded
        # by CENTER_PAD levels on A 4 MiB
        monkeypatch.setattr(fk, "MAX_DENSE_BYTES", 2 ** 21)
        tm = fk.two_mode_squeezed_vacuum(0.3, 16)
        assert fk.densify(tm).dim == 256
        with pytest.raises(DomainError, match=r"cutoffs \(32, 16\)"):
            ch.gaussian_noise_channel(tm, 0.3, (0.1, 0.0))

    def test_untagged_density_takes_quadrature(self):
        f = ps.gaussian_pdf(0.3)
        assert ch.channel_path(f) == "exact"
        assert ch.channel_path(ps.classical_heat_flow(f, 0.1)) == "exact"
        assert ch.channel_path(ps.GridPdf(f.origin, f.spacing, f.values)) == "quadrature"
        mixed = ch.Register([0.5, 0.5], [f, ps.GridPdf(f.origin, f.spacing, f.values)])
        assert ch.channel_path(mixed) == "quadrature"


# every cutoff at three times, plus the extreme times at the largest cutoff
KRAUS_CASES = [(d, t) for d in (1, 2, 5, 40, 72, 128) for t in (1e-4, 0.37, 5.0)] + [
    (128, 1e-12), (128, 50.0)]


class TestKrausNoise:
    """The Kraus tables of the exact core against the entrywise per-diagonal
    matrix, and the one-mode Kraus sums against the per-diagonal path."""

    @pytest.mark.parametrize("d,t", KRAUS_CASES)
    def test_diagonal_maps_match_the_entrywise_matrix(self, d, t):
        maps = ch._diagonal_maps(d, t)
        assert max(np.abs(maps(q) - diagonal_map(d, q, t)).max() for q in range(d)) <= 1e-14

    @pytest.mark.parametrize("d,t", KRAUS_CASES)
    def test_kraus_sums_match_the_diagonal_maps(self, d, t):
        g = np.random.default_rng(4).standard_normal((d, 3, 2)) @ [1.0, 1j]
        x = g @ g.conj().T / np.vdot(g, g).real  # full support on cutoff d
        ref = fk.map_diagonals(fk.FockState((d,), x), ch._diagonal_maps(d, t)).matrix
        out = ch._kraus_sums(x, t)
        assert np.isfinite(out).all() and np.abs(out - ref).max() <= 1e-14

    @pytest.mark.parametrize("t,center", [(0.05, (0.0, 0.0)), (0.3, (0.0, 0.0)), (0.3, (0.3, -0.2)),
                                          (0.0, (0.4, 0.1))])
    def test_one_mode_matches_the_two_mode_path(self, t, center):
        # the dense product with a memory that is no phase-covariant state
        # runs the per-diagonal maps with M as a batch; traced over M it is
        # the one-mode output
        rho = fk.random_mixed(3, 40, seed=6, support=8)
        joint = fk.tensor_product(rho, fk.cat(1.1, 16), labels=("A", "M"))
        out = ch.gaussian_noise_channel(rho, t, center)
        ref = fk.partial_trace(ch.gaussian_noise_channel(joint, t, center), "A")
        assert np.abs(out.matrix - ref.matrix).max() <= 1e-13


class TestExtendedChannel:
    def test_single_label_register_reduces(self):
        rho = fk.fock(1, 30)
        f = ps.gaussian_pdf(0.3)
        out = ch.extended_channel(ch.Register([1.0], [f]), ch.Register([1.0], [rho]))
        direct = ch.classical_noise_channel(f, rho)
        assert fk.trace_norm_distance(out.parts[0], direct) <= 1e-12
        # independent noise goes straight to its channel: the exact one for a
        # Gaussian-tagged density, the quadrature for the same grid untagged
        exact = ch.gaussian_noise_channel(rho, 0.3)
        assert fk.trace_norm_distance(ch.extended_channel(f, rho), exact) == 0.0
        assert fk.trace_norm_distance(out.parts[0], exact) == 0.0
        untagged = ps.GridPdf(f.origin, f.spacing, f.values)
        assert fk.trace_norm_distance(ch.extended_channel(untagged, rho), direct) == 0.0

    def test_rejects_uncertified_family(self):
        # a bare quantum state carries no noise, so there is nothing to extend
        with pytest.raises(UnsupportedFamilyError):
            ch.extended_channel(fk.two_mode_squeezed_vacuum(0.4, 20), fk.vacuum(8))

    def test_rejects_mismatched_pair(self):
        f, rho = ps.gaussian_pdf(0.3), fk.fock(1, 30)
        with pytest.raises(UnsupportedFamilyError):
            ch.extended_channel(f, ch.Register([1.0], [rho]))
        with pytest.raises(UnsupportedFamilyError):
            ch.extended_channel(ch.Register([1.0], [f]), rho)

    def test_rejects_unequal_probs(self):
        f, rho = ps.gaussian_pdf(0.3), fk.fock(1, 30)
        noise = ch.Register([0.5, 0.5], [f, f])
        with pytest.raises(DomainError):
            ch.extended_channel(noise, ch.Register([0.4, 0.6], [rho, rho]))


# full and truncated sectors, mode A's cutoff above, below and equal to B's; one-level
# modes, and odd and even min(dims), which set the padded half size of the sector blocks
SECTOR_DIMS = [(1, 1), (1, 9), (9, 1), (2, 5), (5, 2), (12, 12), (17, 17), (30, 17), (28, 11),
               (40, 24), (24, 40), (64, 64)]


class TestBeamSplitter:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.84])
    @pytest.mark.parametrize("dims", SECTOR_DIMS, ids="{0[0]}x{0[1]}".format)
    def test_unitary_orthogonal(self, dims, lam):
        U = ch.beam_splitter_unitary(dims, lam)
        assert np.abs(U @ U.T - np.eye(dims[0] * dims[1])).max() <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("dims", SECTOR_DIMS, ids="{0[0]}x{0[1]}".format)
    def test_sector_tensor_matches_the_matrix_exponential(self, dims, lam):
        # one batched SVD of the padded half-size generators against one expm per sector
        assert np.abs(ch._sector_tensor(dims, lam) - sector_tensor_expm(dims, lam)).max() <= 2e-12

    @pytest.mark.parametrize("dims", SECTOR_DIMS, ids="{0[0]}x{0[1]}".format)
    def test_sector_tensor_is_the_identity_at_full_transmission(self, dims):
        # G[j, b, k] = <j, b|k, j + b - k> = delta_jk, bit for bit
        d1, d2 = dims
        identity = np.broadcast_to(np.eye(d1)[:, None, :], (d1, d2, d1))
        assert np.array_equal(ch._sector_tensor(dims, 1.0), identity)

    def test_sector_tensor_makes_one_factorization(self, monkeypatch):
        # every sector in one batched call, so no per-sector loop, and one
        # call per cutoffs: the factorization does not depend on theta
        ch._sector_factors.cache_clear()
        calls = []

        def counted(solver):
            def call(*args, **kwargs):
                calls.append(solver.__name__)
                return solver(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        ch._sector_tensor((40, 40), 0.5)
        assert calls == ["svd"]
        ch._sector_tensor((40, 40), 0.2)
        assert calls == ["svd"]

    def test_cached_factors_are_read_only(self):
        for x in ch._sector_factors(12, 9):
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 1.0

    def test_sector_tensor_peak_memory(self):
        # the padded blocks and the gather index stay within a few copies of G
        tracemalloc.start()
        try:
            G = ch._sector_tensor((128, 128), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * G.nbytes

    def test_identity_and_swap(self):
        a, b = fk.coherent(0.7, 16), fk.thermal(0.4, 16, label="B")
        keep_all = ch.beam_splitter(a, b, 1.0)
        assert fk.trace_norm_distance(keep_all, fk.coherent(0.7, 16)) <= 1e-12
        swapped = ch.beam_splitter(a, b, 0.0)
        assert fk.trace_norm_distance(swapped, fk.thermal(0.4, 16, label="A")) <= 1e-6

    def test_thermal_mixing(self):
        out = ch.beam_splitter(fk.vacuum(30), fk.thermal(1.0, 30, label="B"), 0.4)
        assert fk.trace_norm_distance(out, fk.thermal(0.6, 30)) <= 1e-6

    def test_parameter_domain(self):
        with pytest.raises(ParameterError):
            ch.beam_splitter(fk.vacuum(8), fk.vacuum(8), 1.2)

    @pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("pair", [
        lambda: (fk.coherent(0.6 - 0.8j, 20), fk.cat(1.1j, 20)),
        lambda: (fk.random_mixed(3, 20, 7, support=14), fk.coherent(0.5 + 0.5j, 20)),
        lambda: (fk.thermal(1.0, 30), fk.thermal(0.5, 30)),
        lambda: (fk.random_mixed(3, 20, 7, support=14), ch.qou_environment(1.0, 0.5)),
        lambda: (fk.fock(1, 20), fk.vacuum(20)),
        lambda: (fk.coherent(0.6 - 0.8j, 20), fk.thermal(0.5, 20)),
        lambda: (fk.thermal(0.5, 20), fk.coherent(0.6 - 0.8j, 20)),
    ], ids=["coherent-cat", "random-coherent", "thermal-thermal", "unequal-cutoffs", "fock-vacuum",
            "coherent-thermal", "thermal-coherent"])
    def test_matches_dense_dilation(self, pair, lam):
        # a B without coherences runs the per-diagonal maps, any other B the
        # factored path (pure B here, and A of full rank in thermal-coherent)
        a, b = pair()
        out = ch.beam_splitter(a, b, lam)
        expected = beam_splitter_dense(fk.tensor_product(a, b, labels=("A", "B")), lam)
        assert out.mode_dims == a.mode_dims and out.mode_labels == a.mode_labels
        assert np.abs(out.matrix - expected.matrix).max() <= 1e-13

    def test_pure_inputs_at_cutoff_128(self):
        # beyond the dense oracle, whose joint state would need 4 GiB:
        # |1> against the vacuum splits into lam |1><1| + (1 - lam) |0><0|
        out = ch.beam_splitter(fk.fock(1, 128), fk.vacuum(128), 0.4)
        expected = 0.4 * fk.fock(1, 128).matrix + 0.6 * fk.vacuum(128).matrix
        assert np.abs(out.matrix - expected).max() <= 1e-13

    def test_two_mode_input_rejected(self):
        with pytest.raises(DomainError):
            ch.beam_splitter(fk.tensor_product(fk.vacuum(8), fk.vacuum(8)), fk.vacuum(8), 0.5)


class TestQouChannel:
    def test_fixed_point(self):
        omega = ch.qou_environment(1.0, 0.5)
        omega = fk.FockState(omega.mode_dims, omega.matrix, ("A",))
        out = ch.qou_channel_fock(omega, 1.3, 1.0, 0.5)
        assert fk.trace_norm_distance(out, omega) <= 1e-6

    def test_zero_time(self):
        rho = fk.fock(1, 18)
        out = ch.qou_channel_fock(rho, 0.0, 1.0, 0.5)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_semigroup(self):
        rho = fk.fock(1, 25)
        one = ch.qou_channel_fock(ch.qou_channel_fock(rho, 0.3, 1.0, 0.5), 0.7, 1.0, 0.5)
        two = ch.qou_channel_fock(rho, 1.0, 1.0, 0.5)
        assert fk.trace_norm_distance(one, two) <= 1e-5

    def test_gaussian_moment_flow(self):
        rho = fk.thermal(1.2, 34)
        out = ch.qou_channel_fock(rho, 0.6, 1.0, 0.5)
        eta = math.exp(-0.75 * 0.6)
        expected = eta * 1.7 + (1 - eta) * (ga.qou_mean_photon(1.0, 0.5) + 0.5)
        _, cov = fk.moments_of_state(out)
        assert cov[0, 0] == pytest.approx(expected, abs=1e-6)

    def test_two_mode_kernel_matches_gaussian(self):
        tm = fk.two_mode_squeezed_vacuum(0.5, 20)
        out = ch.qou_channel_fock(tm, 0.8, 1.0, 0.5)
        gs = ga.gaussian_qou_evolution(ga.tmsv_state(0.5), 0.8, 1.0, 0.5)
        mean, cov = fk.moments_of_state(out)
        assert np.abs(cov - gs.cov).max() <= 1e-4
        assert np.abs(mean - gs.mean).max() <= 1e-8

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            ch.qou_channel_fock(fk.vacuum(8), 1.0, 0.5, 0.5)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("make", [
        lambda: fk.fock(1, 30),
        lambda: fk.random_mixed(3, 20, 7, support=14),
        lambda: fk.cat(1.1, 20),
    ], ids=["fock1", "random", "cat"])
    def test_one_mode_matches_beam_splitter(self, make, t):
        # the damping channel against its dense dilation: the input and the
        # thermal fixed point meet on a beam splitter
        rho = make()
        joint = fk.tensor_product(rho, ch.qou_environment(1.0, 0.5), labels=("A", "B"))
        expected = beam_splitter_dense(joint, math.exp(-0.75 * t))
        out = ch.qou_channel_fock(rho, t, 1.0, 0.5)
        assert out.mode_dims == rho.mode_dims and out.mode_labels == rho.mode_labels
        assert np.abs(out.matrix - expected.matrix).max() <= 1e-13

    @pytest.mark.parametrize("make", [
        lambda: fk.fock(1, 30),
        lambda: fk.random_mixed(3, 20, 7, support=14),
        lambda: fk.cat(1.1, 20),
    ], ids=["fock1", "random", "cat"])
    def test_one_mode_matches_the_superoperator(self, make):
        rho = make()
        expected = superoperator_output(ch.qou_superoperator(rho.dim, 0.8, 1.0, 0.5), rho)
        out = ch.qou_channel_fock(rho, 0.8, 1.0, 0.5)
        assert np.abs(out.matrix - expected).max() <= 1e-13

    def test_two_mode_matches_the_superoperator(self):
        tm = fk.two_mode_squeezed_vacuum(0.5, 20)
        expected = ch.apply_one_mode_kernel(ch.qou_superoperator(20, 0.8, 1.0, 0.5), tm, "A")
        out = ch.qou_channel_fock(tm, 0.8, 1.0, 0.5)
        assert isinstance(out, fk.PhaseCovariantState)
        assert np.abs(out.matrix - expected).max() <= 1e-13


# every entry point that takes a time, with the error a NaN time must raise there
NAN_TIME_CALLS = {
    "gaussian_noise_channel": (NegativeTimeError, lambda: ch.gaussian_noise_channel(fk.vacuum(8), math.nan)),
    "gaussian_heat_flow": (NegativeTimeError, lambda: ga.gaussian_heat_flow(ga.vacuum_state(), math.nan)),
    "gaussian_qou_evolution": (NegativeTimeError,
                               lambda: ga.gaussian_qou_evolution(ga.vacuum_state(), math.nan, 1.0, 0.5)),
    "qou_channel_fock": (NegativeTimeError, lambda: ch.qou_channel_fock(fk.vacuum(8), math.nan, 1.0, 0.5)),
    "classical_heat_flow": (NegativeTimeError, lambda: ps.classical_heat_flow(ps.delta_pdf(0.1), math.nan)),
    "quantum_heat_flow_fock": (NegativeTimeError, lambda: ch.quantum_heat_flow_fock(fk.vacuum(8), math.nan)),
    "quantum_heat_flow_fock_multi": (NegativeTimeError,
                                     lambda: ch.quantum_heat_flow_fock_multi(fk.vacuum(8), [0.1, math.nan])),
    "gaussian_pdf": (DomainError, lambda: ps.gaussian_pdf(math.nan)),
}


@pytest.mark.parametrize("entry", sorted(NAN_TIME_CALLS))
def test_nan_time_is_refused(entry):
    # NaN fails every comparison, so a `t < 0` test would let it through
    error, call = NAN_TIME_CALLS[entry]
    with pytest.raises(error, match="nan"):
        call()


class TestCQStateMachinery:
    def test_register_validation(self):
        with pytest.raises(DomainError):
            ch.Register([0.7, 0.7], [fk.vacuum(8), fk.vacuum(8)])
        with pytest.raises(DomainError):
            ch.Register([1.0], [])

    def test_register_refuses_unequal_cutoffs(self):
        with pytest.raises(DomainError, match="share their dims"):
            ch.Register([0.5, 0.5], [fk.vacuum(8), fk.vacuum(9)])

    @pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan]])
    def test_register_refuses_nan_probabilities(self, probs):
        with pytest.raises(DomainError):
            ch.Register(probs, [fk.vacuum(8), fk.vacuum(8)])

    def test_register_noise_labels_keep_their_own_grids(self):
        # mixed spacings and an off-lattice center: each label is on its own grid
        f = ps.gaussian_pdf(0.4, spacing=0.1)
        pdfs = [f, ps.gaussian_pdf(0.6, spacing=0.05), displaced(f, (0.05, 0.0))]
        noise = ch.Register([0.2, 0.3, 0.5], pdfs)
        expected = sum(p * ps.shannon_entropy(g) for p, g in zip([0.2, 0.3, 0.5], pdfs))
        assert ms.entropy(noise) == pytest.approx(expected, abs=1e-14)

    def test_register_heat_flows(self):
        noise = ch.Register(
            [0.5, 0.5], [ps.gaussian_pdf(0.4, spacing=0.1), ps.gaussian_pdf(0.6, spacing=0.1)])
        heated_r = ms.heat_flow(noise, 0.5)
        assert ps.moments(heated_r.parts[0])[1][0, 0] == pytest.approx(0.9, abs=1e-6)
        reg = ch.Register([0.5, 0.5], [fk.fock(1, 24), fk.vacuum(24)])
        heated_a = ms.heat_flow(reg, 0.2)
        assert mean_energy(heated_a.parts[1]) == pytest.approx(0.2, abs=1e-6)

    def test_register_of_tagged_labels_flows_in_closed_form(self):
        # each label against the FFT convolution of its untagged copy
        noise = ch.Register([0.4, 0.6], [ps.gaussian_pdf(0.5, center=(0.5, 0.0), spacing=0.1),
                                         ps.gaussian_pdf(1.2, center=(-0.4, 0.3), spacing=0.05)])
        closed = ms.heat_flow(noise, 0.7)
        fft = ch.Register(noise.probs, [
            ps.classical_convolution(untagged(f), ps.gaussian_pdf(0.7, spacing=f.spacing)) for f in noise.parts])
        assert [f.gaussian for f in closed.parts] == [(0.5 + 0.7, (0.5, 0.0)), (1.2 + 0.7, (-0.4, 0.3))]
        assert abs(ms.entropy(closed) - ms.entropy(fft)) <= 1e-12
        for f, g in zip(closed.parts, fft.parts):
            a, b = shared_cells(f, g)
            assert np.abs(a - b).max() <= 1e-12


class TestConditionalEntropyUnderHeat:
    def test_fock_conditional_entropy_increases(self):
        tm = fk.two_mode_squeezed_vacuum(0.4, 20)
        values = []
        for out in ch.quantum_heat_flow_fock_multi(tm, [0.0, 0.1, 0.3], target="A"):
            values.append(fk.conditional_entropy(out, "A", "M"))
        assert values[0] < values[1] < values[2]
