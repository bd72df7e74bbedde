import math

import numpy as np
import pytest

from epi_lab import channels as ch
from epi_lab import fock as fk
from epi_lab import gaussian as ga
from epi_lab import phase_space as ps
from epi_lab.errors import (
    DimensionMismatchError,
    DomainError,
    NegativeEigenvalueError,
    TailError,
)
from oracles import (
    displace_state,
    displacement_operator,
    displacement_operator_expm,
    mean_energy,
    tmsv_dense,
    untagged,
)


class TestConstructors:
    def test_vacuum(self):
        st = fk.vacuum(20)
        assert fk.von_neumann_entropy(st) == 0.0
        assert mean_energy(st) == 0.0

    def test_thermal_entropy_matches_g(self):
        st = fk.thermal(1.0, 60)
        assert fk.von_neumann_entropy(st) == pytest.approx(ga.g_function(1.0), abs=1e-7)
        assert mean_energy(st) == pytest.approx(1.0, abs=1e-10)

    def test_thermal_tail_error(self):
        with pytest.raises(TailError):
            fk.thermal(5.0, 10)

    def test_fock_levels(self):
        st = fk.fock(3, 12)
        assert mean_energy(st) == pytest.approx(3.0)
        with pytest.raises(TailError):
            fk.fock(11, 12)
        with pytest.raises(DomainError):
            fk.fock(-1, 12)

    def test_coherent_moments(self):
        alpha = 1.0 + 0.5j
        st = fk.coherent(alpha, 60)
        assert mean_energy(st) == pytest.approx(abs(alpha) ** 2, abs=1e-10)
        mean, cov = fk.moments_of_state(st)
        assert mean == pytest.approx([math.sqrt(2) * 1.0, math.sqrt(2) * 0.5], abs=1e-10)
        assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-10)

    def test_two_mode_mean_energy_per_mode(self):
        st = fk.tensor_product(fk.fock(2, 8), fk.vacuum(6), labels=("A", "M"))
        assert (mean_energy(st), mean_energy(st, "M")) == (2.0, 0.0)
        tm = fk.two_mode_squeezed_vacuum(0.5, 40)
        for mode in ("A", "M"):
            assert mean_energy(tm, mode) == pytest.approx(math.sinh(0.5) ** 2, abs=1e-10)

    def test_cat_is_pure_even(self):
        st = fk.cat(2.0, 40)
        assert fk.von_neumann_entropy(st) == pytest.approx(0.0, abs=1e-10)
        pops = np.real(np.diag(st.matrix))
        assert pops[1::2] == pytest.approx(0.0, abs=1e-15)

    def test_tmsv_marginal_thermal(self):
        r = 0.6
        st = fk.two_mode_squeezed_vacuum(r, 30)
        red = fk.partial_trace(st, "M")
        n_avg = math.sinh(r) ** 2
        assert fk.trace_norm_distance(red, fk.thermal(n_avg, 30, label="M")) <= 1e-7
        assert fk.conditional_entropy(st, "A", "M") == pytest.approx(
            -ga.g_function(n_avg), abs=1e-7
        )

    def test_dense_size_capped_before_allocation(self):
        assert 16 * 90 ** 4 <= fk.MAX_DENSE_BYTES < 16 * 91 ** 4
        # a TMSV is built in the diagonal storage; only its dense form is capped
        for d in (91, 128):
            st = fk.two_mode_squeezed_vacuum(0.66, d)
            with pytest.raises(DomainError):
                fk.densify(st)
        with pytest.raises(DomainError):
            fk.tensor_product(fk.vacuum(100), fk.vacuum(100))

    def test_tmsv_cutoff_checked_first(self):
        # rejected before the storage is allocated
        for d in (-3, 0, fk.MAX_CUTOFF + 1):
            with pytest.raises(DomainError):
                fk.two_mode_squeezed_vacuum(0.5, d)

    def test_tmsv_covariance(self):
        st = fk.two_mode_squeezed_vacuum(0.6, 30)
        mean, cov = fk.moments_of_state(st)
        assert np.allclose(mean, 0.0, atol=1e-12)
        assert np.allclose(cov, ga.tmsv_covariance(0.6), atol=1e-7)

    def test_random_mixed_deterministic(self):
        a = fk.random_mixed(3, 16, seed=5)
        b = fk.random_mixed(3, 16, seed=5)
        c = fk.random_mixed(3, 16, seed=6)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)
        assert fk.eigenvalues(a).min() >= -1e-12

    def test_maximally_mixed(self):
        st = fk.FockState((8,), np.eye(8) / 8.0)
        assert fk.von_neumann_entropy(st) == pytest.approx(math.log(8), rel=1e-12)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.allclose(displacement_operator((0.0, 0.0), 15), np.eye(15))

    def test_matches_matrix_exponential(self):
        d = 40
        for xi in ((0.7, -1.1), (1.5, 0.4)):
            D1 = displacement_operator(xi, d)
            D2 = displacement_operator_expm(xi, d)
            assert np.abs(D1 - D2)[: d // 2, : d // 2].max() <= 1e-10

    def test_displacement_property(self):
        for xi in ((1.2, -0.8), (2.0, 0.0), (0.0, 2.0)):
            st = displace_state(fk.vacuum(60), xi)
            mean, cov = fk.moments_of_state(st)
            assert mean == pytest.approx(list(xi), abs=1e-6)
            assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-6)

    def test_composition_phase(self):
        # BCH from the generator fixes the +i/2 sign of the cocycle
        d = 50
        xi, eta = np.array([0.7, -0.4]), np.array([-0.3, 0.9])
        phase = np.exp(0.5j * (xi[1] * eta[0] - xi[0] * eta[1]))
        lhs = displacement_operator(xi, d) @ displacement_operator(eta, d)
        rhs = phase * displacement_operator(xi + eta, d)
        assert np.abs(lhs - rhs)[: d // 2, : d // 2].max() <= 1e-6

    def test_unitary_on_interior(self):
        d = 60
        for xi in ((2.0, 0.0), (1.1, -1.3)):
            D = displacement_operator(xi, d)
            dev = np.abs(D.conj().T @ D - np.eye(d))[: d // 2, : d // 2].max()
            assert dev <= 1e-6

    def test_entropy_invariance(self):
        st = fk.thermal(1.0, 60)
        for xi in ((0.5, 0.5), (2.0, 0.0)):
            moved = displace_state(st, xi)
            assert abs(fk.von_neumann_entropy(moved) - fk.von_neumann_entropy(st)) <= 1e-6

    def test_two_mode_target(self):
        st = fk.two_mode_squeezed_vacuum(0.4, 16)
        out = displace_state(st, (0.6, -0.2), target="M")
        mean, _ = fk.moments_of_state(out)
        assert mean == pytest.approx([0.0, 0.0, 0.6, -0.2], abs=1e-8)

    @pytest.mark.parametrize("target", ["A", "M"])
    def test_two_mode_matches_einsum(self, target):
        st = fk.tensor_product(fk.random_mixed(3, 16, seed=5), fk.cat(1.1, 16), labels=("A", "M"))
        xi = (0.6, -0.2)
        D = displacement_operator(xi, 16)
        spec = "xa,ambn,yb->xmyn" if target == "A" else "xm,ambn,yn->axby"
        ref = np.einsum(spec, D, st.tensor(), D.conj()).reshape(st.dim, st.dim)
        out = displace_state(st, xi, target=target)
        assert np.abs(out.matrix - 0.5 * (ref + ref.conj().T)).max() <= 1e-15

    def test_rectangular_conjugation_projects(self):
        st = fk.coherent(0.5, 30)
        D = displacement_operator((0.4, 0.3), 30)
        out = fk.conjugate_mode(D[:20], st, 0)
        assert out.mode_dims == (20,)
        assert np.abs(out.matrix - (D @ st.matrix @ D.conj().T)[:20, :20]).max() <= 1e-15

    def test_rectangular_conjugation_on_the_memory_mode(self):
        st = fk.tensor_product(fk.random_mixed(3, 12, seed=5), fk.cat(1.1, 16), labels=("A", "M"))
        D = displacement_operator((0.4, 0.3), 16)[:10]
        ref = np.einsum("xm,ambn,yn->axby", D, st.tensor(), D.conj()).reshape(120, 120)
        out = fk.conjugate_mode(D, st, 1)
        assert out.mode_dims == (12, 10) and out.mode_labels == ("A", "M")
        assert np.abs(out.matrix - ref).max() <= 1e-15


class TestSpectralFunctionals:
    def test_pure_entropy_zero(self):
        assert fk.von_neumann_entropy(fk.coherent(0.8j, 30)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_eigenvalue_raises(self):
        mat = np.diag([1.1, -0.1] + [0.0] * 6)
        st = fk.FockState((8,), mat)
        with pytest.raises(NegativeEigenvalueError):
            fk.von_neumann_entropy(st)

    def test_relative_entropy_self(self):
        st = fk.thermal(0.7, 30)
        assert fk.relative_entropy(st, st) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_closed_form(self):
        # D(|1><1| || omega) for the diagonal fixed point with q = 1/4
        q = 0.25
        omega = fk.thermal(q / (1 - q), 40)
        val = fk.relative_entropy(fk.fock(1, 40), omega)
        assert val == pytest.approx(-math.log(1 - q) - math.log(q), rel=1e-12)

    def test_relative_entropy_infinite(self):
        sigma = fk.FockState((10,), np.diag([0.5, 0.5] + [0.0] * 8))
        assert fk.relative_entropy(fk.fock(2, 10), sigma) == math.inf

    def test_relative_entropy_nonnegative(self):
        rng_seeds = (1, 2, 3)
        for s in rng_seeds:
            rho = fk.random_mixed(4, 14, seed=s)
            sigma = fk.random_mixed(5, 14, seed=100 + s)
            assert fk.relative_entropy(rho, sigma) >= -1e-10

    def test_relative_entropy_zero_iff_equal(self):
        rho = fk.random_mixed(4, 12, seed=8)
        sigma = fk.random_mixed(4, 12, seed=9)
        assert fk.relative_entropy(rho, sigma) > 1e-3
        assert fk.trace_norm_distance(rho, sigma) > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fk.relative_entropy(fk.vacuum(8), fk.vacuum(9))


def _tmsv40():
    return fk.two_mode_squeezed_vacuum(0.66, 40)


class TestBlockedSpectrum:
    @pytest.mark.parametrize(
        "state",
        [
            _tmsv40,
            lambda: ch.classical_noise_channel(ps.gaussian_pdf(0.5), _tmsv40(), target="A"),
            lambda: ch.gaussian_noise_channel(_tmsv40(), 0.5),
        ],
        ids=["tmsv", "tmsv-noise-on-A", "tmsv-gaussian-noise-on-A"],
    )
    def test_blocked_matches_dense(self, state):
        st = state()
        assert fk.spectral_path(st)["eigensolve"] == "blocked"
        assert np.abs(fk.eigenvalues(st) - np.linalg.eigvalsh(st.matrix)).max() <= 1e-12
        # a dense matrix packs into the diagonal storage entry for entry
        assert np.array_equal(fk.eigenvalues(fk.densify(st)), fk.eigenvalues(st))

    def test_one_mode_takes_the_dense_path(self):
        st = fk.thermal(1.0, 60)
        assert fk.spectral_path(st) == {"eigensolve": "dense", "off_block_norm": None, "storage": "dense"}
        assert np.array_equal(fk.eigenvalues(st), np.linalg.eigvalsh(st.matrix))

    def test_off_block_perturbation_takes_the_dense_path(self):
        st = fk.densify(_tmsv40())
        # (0,0) and (1,0) lie in different n_A - n_M sectors
        i, j = 0, 40
        st.matrix[i, j] += 1e-9
        st.matrix[j, i] += 1e-9
        path = fk.spectral_path(st)
        assert path["eigensolve"] == "dense"
        assert path["off_block_norm"] == pytest.approx(math.sqrt(2) * 1e-9, rel=1e-6)
        assert np.abs(fk.eigenvalues(st) - np.linalg.eigvalsh(st.matrix)).max() <= 1e-12

    def test_negative_eigenvalue_in_a_sector_raises(self):
        # |0,0> and |1,1> share the n_A - n_M = 0 sector; their 2x2 block
        # has positive diagonal and eigenvalues 0.6 + 1e-8 and -1e-8
        mat = np.diag(np.full(64, 0.4 / 62))
        mat[0, 0] = mat[9, 9] = 0.3
        mat[0, 9] = mat[9, 0] = 0.3 + 1e-8
        st = fk.FockState((8, 8), mat)
        assert fk.spectral_path(st)["eigensolve"] == "blocked"
        with pytest.raises(NegativeEigenvalueError):
            fk.von_neumann_entropy(st)

    def test_trace_norm_distance_of_blocked_states(self):
        rho = fk.two_mode_squeezed_vacuum(0.5, 30)
        sigma = ch.classical_noise_channel(ps.gaussian_pdf(0.3), rho, target="A")
        dense = np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum()
        assert fk.spectral_path(sigma)["eigensolve"] == "blocked"
        assert fk.trace_norm_distance(rho, sigma) == pytest.approx(dense, abs=1e-12)

    def test_unequal_cutoffs_take_the_dense_path(self):
        st = fk.tensor_product(fk.thermal(1.0, 30), fk.thermal(0.5, 20))
        assert fk.spectral_path(st) == {"eigensolve": "dense", "off_block_norm": None, "storage": "dense"}
        assert np.array_equal(fk.eigenvalues(st), np.linalg.eigvalsh(st.matrix))


class TestPartialTrace:
    def test_product(self):
        joint = fk.tensor_product(fk.thermal(0.5, 20), fk.coherent(0.4, 20), labels=("A", "M"))
        red = fk.partial_trace(joint, "A")
        assert fk.trace_norm_distance(red, fk.thermal(0.5, 20)) <= 1e-12

    def test_trace_preserved(self):
        st = fk.two_mode_squeezed_vacuum(0.5, 14)
        assert fk.partial_trace(st, "A").trace() == pytest.approx(1.0, abs=1e-10)

    def test_conditional_entropy_product(self):
        joint = fk.tensor_product(fk.thermal(1.0, 30), fk.thermal(0.5, 20), labels=("A", "M"))
        assert fk.conditional_entropy(joint, "A", "M") == pytest.approx(
            fk.von_neumann_entropy(fk.thermal(1.0, 30)), abs=1e-9
        )


class TestCrossRepresentation:
    @pytest.mark.parametrize(
        "state,gauss",
        [
            (lambda: fk.vacuum(40), lambda: ga.vacuum_state()),
            (lambda: fk.thermal(1.0, 60), lambda: ga.thermal_state(1.0)),
            (
                lambda: fk.coherent(1 + 0.5j, 60),
                lambda: ga.GaussianState([math.sqrt(2), math.sqrt(2) / 2], 0.5 * np.eye(2)),
            ),
        ],
    )
    def test_single_mode(self, state, gauss):
        st, gs = state(), gauss()
        assert fk.von_neumann_entropy(st) == pytest.approx(ga.gaussian_entropy(gs), abs=1e-6)
        mean, cov = fk.moments_of_state(st)
        assert np.abs(mean - gs.mean).max() <= 1e-6
        assert np.abs(cov - gs.cov).max() <= 1e-6

    def test_copy_keeps_trace_drift(self):
        st = fk.thermal(1.0, 30)
        st.trace_drift = 3e-9
        dup = st.copy()
        assert dup.trace_drift == 3e-9
        assert dup.matrix is not st.matrix
        assert np.array_equal(dup.matrix, st.matrix)

    def test_tail_accounting(self):
        st = fk.thermal(1.0, 60)
        assert st.tail_mass() <= 1e-8
        st.check_tail()


# (squeezing, cutoff) with the top level inside TAIL_TOL
DIAGONAL_CASES = [(0.2, 12), (0.4, 20), (0.66, 40)]


def _noise_core(rho, t):
    """The exact Gaussian noise on A, renormalized but not tail-checked: at
    cutoffs 12 and 20 the outputs at t = 1 exceed TAIL_TOL."""
    d = rho.mode_dims[0]
    out = fk.map_diagonals(rho, lambda q: ch._diagonal_map(d, q, t))
    return fk.renormalized(out, out.trace())


class TestDiagonalStorage:
    @pytest.mark.parametrize("r,d", DIAGONAL_CASES)
    def test_constructor_matches_the_dense_outer_product(self, r, d):
        st = fk.two_mode_squeezed_vacuum(r, d)
        assert isinstance(st, fk.PhaseCovariantState)
        assert st.diagonals.size == d ** 3 - d * (d * d - 1) // 3
        assert np.abs(st.matrix - tmsv_dense(r, d).matrix).max() <= 1e-13

    @pytest.mark.parametrize("t", [0.2, 1.0])
    @pytest.mark.parametrize("r,d", DIAGONAL_CASES)
    def test_noise_on_a_matches_the_dense_core(self, r, d, t):
        # twice, so the second pass maps full slabs, not the diagonal ones of a TMSV
        out = _noise_core(_noise_core(fk.two_mode_squeezed_vacuum(r, d), t), 0.3)
        ref = _noise_core(_noise_core(tmsv_dense(r, d), t), 0.3)
        assert isinstance(out, fk.PhaseCovariantState)
        assert np.abs(out.matrix - ref.matrix).max() <= 1e-13
        assert out.trace_drift == pytest.approx(ref.trace_drift, abs=1e-13)
        assert abs(fk.von_neumann_entropy(out) - fk.von_neumann_entropy(ref)) <= 1e-12
        assert abs(fk.conditional_entropy(out, "A", "M") - fk.conditional_entropy(ref, "A", "M")) <= 1e-12
        for keep in ("A", "M"):
            assert np.abs(fk.partial_trace(out, keep).matrix - fk.partial_trace(ref, keep).matrix).max() <= 1e-12
        for x, y in zip(fk.moments_of_state(out), fk.moments_of_state(ref)):
            assert np.abs(x - y).max() <= 1e-12
        assert abs(out.tail_mass() - ref.tail_mass()) <= 1e-12
        assert np.abs(fk.eigenvalues(out) - np.linalg.eigvalsh(ref.matrix)).max() <= 1e-12

    @pytest.mark.parametrize("t", [0.2, 1.0])
    def test_channel_stays_in_the_diagonal_storage(self, t):
        st = fk.two_mode_squeezed_vacuum(0.66, 40)
        out = ch.gaussian_noise_channel(st, t)
        ref = ch.gaussian_noise_channel(fk.densify(st), t)
        assert isinstance(out, fk.PhaseCovariantState) and not isinstance(ref, fk.PhaseCovariantState)
        assert np.abs(out.matrix - ref.matrix).max() <= 1e-13
        assert out.trace_drift == pytest.approx(ref.trace_drift, abs=1e-13)

    @pytest.mark.parametrize(
        "channel",
        [
            lambda st: ch.gaussian_noise_channel(st, 0.3, center=(0.4, -0.2)),
            lambda st: ch.gaussian_noise_channel(st, 0.3, target="M"),
            lambda st: ch.classical_noise_channel(untagged(ps.gaussian_pdf(0.3)), st),
        ],
        ids=["shifted-center", "target-M", "file-noise"],
    )
    def test_fallbacks_run_the_dense_path_on_the_converted_state(self, channel):
        st = fk.two_mode_squeezed_vacuum(0.4, 20)
        out, ref = channel(st), channel(fk.densify(st))
        assert not isinstance(out, fk.PhaseCovariantState)
        assert np.array_equal(out.matrix, ref.matrix)

    def test_qou_stays_in_the_diagonal_storage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("densify ran")

        st = fk.two_mode_squeezed_vacuum(0.4, 20)
        ref = ch.qou_channel_fock(fk.densify(st), 0.5, 1.0, 0.5)
        with monkeypatch.context() as m:
            m.setattr(fk, "densify", refuse)
            out = ch.qou_channel_fock(st, 0.5, 1.0, 0.5)
        assert isinstance(out, fk.PhaseCovariantState) and not isinstance(ref, fk.PhaseCovariantState)
        assert np.abs(out.matrix - ref.matrix).max() <= 1e-13

    def test_dense_only_functionals_convert(self):
        st = fk.two_mode_squeezed_vacuum(0.4, 20)
        sigma = ch.classical_noise_channel(ps.gaussian_pdf(0.3), fk.densify(st))
        assert fk.trace_norm_distance(st, sigma) == fk.trace_norm_distance(fk.densify(st), sigma)
        assert fk.relative_entropy(st, sigma) == fk.relative_entropy(fk.densify(st), sigma)
        assert np.array_equal(st.tensor(), fk.densify(st).tensor())

    def test_spectral_path_reads_the_layout(self):
        st = fk.two_mode_squeezed_vacuum(0.66, 40)
        assert fk.spectral_path(st) == {"eigensolve": "blocked", "off_block_norm": 0.0,
                                        "storage": "diagonals"}
        assert fk.spectral_path(fk.densify(st))["storage"] == "dense"

    def test_storage_is_independent_of_its_dense_form(self):
        st = fk.two_mode_squeezed_vacuum(0.4, 12)
        with pytest.raises(ValueError):
            st.matrix[0, 0] = 0.0  # read-only: the write would not reach the storage
        dup = st.copy()
        dup.diagonals[:] = 0.0
        assert st.trace() == pytest.approx(1.0, abs=1e-14)
        dense = fk.densify(st)
        assert fk.densify(dense) is dense

    def test_storage_size_is_checked(self):
        with pytest.raises(DimensionMismatchError):
            fk.PhaseCovariantState(4, np.zeros(10))
