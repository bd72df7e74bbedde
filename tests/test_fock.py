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
from oracles import displace_state, displacement_operator, displacement_operator_expm, mean_energy


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
        with pytest.raises(DomainError):
            fk.two_mode_squeezed_vacuum(0.66, 91)
        with pytest.raises(DomainError):
            fk.tensor_product(fk.vacuum(100), fk.vacuum(100))

    def test_tmsv_cutoff_checked_first(self):
        # rejected before the (d*d)^2 outer product is allocated
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
        out = fk.conjugate_mode(D[:20], st.tensor(), 0)
        assert np.abs(out - (D @ st.matrix @ D.conj().T)[:20, :20]).max() <= 1e-15


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
        ],
        ids=["tmsv", "tmsv-noise-on-A"],
    )
    def test_blocked_matches_dense(self, state):
        st = state()
        assert fk.spectral_path(st)["eigensolve"] == "blocked"
        assert np.abs(fk.eigenvalues(st) - np.linalg.eigvalsh(st.matrix)).max() <= 1e-12

    def test_one_mode_takes_the_dense_path(self):
        st = fk.thermal(1.0, 60)
        assert fk.spectral_path(st) == {"eigensolve": "dense", "off_block_norm": None}
        assert np.array_equal(fk.eigenvalues(st), np.linalg.eigvalsh(st.matrix))

    def test_off_block_perturbation_takes_the_dense_path(self):
        st = _tmsv40()
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
