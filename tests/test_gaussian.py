import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from epi_lab import gaussian as ga
from epi_lab import phase_space as ps
from epi_lab.errors import (
    DomainError,
    LabelError,
    NegativeTimeError,
    NonPositiveError,
    ParameterError,
    PhysicalityError,
)


def random_physical_state(rng, n_modes=2):
    # cov >= I/2 in matrix order implies physicality
    g = rng.standard_normal((2 * n_modes, 2 * n_modes))
    cov = 0.5 * np.eye(2 * n_modes) + 0.5 * g @ g.T
    mean = rng.standard_normal(2 * n_modes)
    labels = ("A", "M")[:n_modes]
    return ga.GaussianState(mean, cov, labels)


class TestSymplecticEigenvalues:
    def test_isotropic_single_mode(self):
        assert ga.symplectic_eigenvalues(0.7 * np.eye(2)) == pytest.approx([0.7])

    def test_tightness_matrix_is_pure(self):
        nus = ga.symplectic_eigenvalues(ga.tightness_covariance(2.0))
        assert nus == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_heated_tightness_matrix(self):
        # independent oracle: closed-form nu_pm at k=2, t=1
        k, t = 2.0, 1.0
        expected = [
            0.5 * math.sqrt(4 * k * k * t + s * 2 * t * math.sqrt(4 * k * k * t + t * t + 1) + 2 * t * t + 1)
            for s in (+1, -1)
        ]
        assert expected == pytest.approx([2.6213203435596424, 1.6213203435596426], abs=1e-12)
        cov = ga.tightness_covariance(2.0)
        cov[:2, :2] += np.eye(2)
        assert ga.symplectic_eigenvalues(cov) == pytest.approx(expected, abs=1e-10)

    def test_two_thermal_modes(self):
        cov = np.diag([1.0, 1.0, 4.0, 4.0])
        assert ga.symplectic_eigenvalues(cov) == pytest.approx([4.0, 1.0])

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        state = random_physical_state(rng)
        th1, th2 = 0.6, -1.1
        rot = np.zeros((4, 4))
        for k, th in enumerate((th1, th2)):
            rot[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [
                [math.cos(th), math.sin(th)],
                [-math.sin(th), math.cos(th)],
            ]
        before = ga.symplectic_eigenvalues(state.cov)
        after = ga.symplectic_eigenvalues(rot @ state.cov @ rot.T)
        assert after == pytest.approx(before, abs=1e-9)

    def test_not_positive_definite(self):
        with pytest.raises(NonPositiveError):
            ga.symplectic_eigenvalues(np.diag([1.0, -0.1]))

    def test_not_symmetric(self):
        with pytest.raises(DomainError):
            ga.symplectic_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_williamson_spectra(self, n):
        # cov = S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T with the symplectic
        # S = expm(Delta H), H symmetric: Williamson's theorem with known nu
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            g = rng.standard_normal((2 * n, 2 * n))
            h = 0.8 * rng.random() * (g + g.T) / np.linalg.norm(g + g.T, 2)
            sym = expm(ga.symplectic_form(n) @ h)
            nus = np.sort(0.5 + 3.0 * rng.random(n))[::-1]
            cov = sym @ np.diag(np.repeat(nus, 2)) @ sym.T
            found = ga.symplectic_eigenvalues(0.5 * (cov + cov.T))
            assert np.abs(found - nus).max() <= 1e-12 * nus.max()

    @pytest.mark.parametrize("k", [2, 4, 8, 16, 24, 32, 40])
    def test_tightness_range(self, k):
        # the rounded TMSV covariance drifts off the vacuum bound like eps k^4
        nus = ga.symplectic_eigenvalues(ga.tightness_state(k).cov)
        assert np.abs(nus - 0.5).max() <= 1e-9


class TestGFunction:
    def test_values(self):
        assert ga.g_function(0.0) == 0.0
        assert ga.g_function(1.0) == pytest.approx(2 * math.log(2), rel=1e-14)
        assert ga.g_function(1.5) == pytest.approx(1.6825291675231413, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            ga.g_function(-0.1)

    @given(st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_positive(self, n):
        assert ga.g_function(n) > 0
        assert ga.g_function(n + 0.5) > ga.g_function(n)


class TestEntropy:
    def test_vacuum(self):
        assert ga.gaussian_entropy(ga.vacuum_state()) == 0.0

    def test_thermal(self):
        state = ga.GaussianState(np.zeros(2), 1.5 * np.eye(2), ("A",))
        assert ga.gaussian_entropy(state) == pytest.approx(ga.g_function(1.0), rel=1e-12)

    @pytest.mark.parametrize("k", [1.0, 2.0, 5.0, 10.0])
    def test_tightness_family_is_pure(self, k):
        assert ga.gaussian_entropy(ga.tightness_state(k)) <= 1e-8

    def test_mean_does_not_matter(self):
        cov = 2.0 * np.eye(2)
        s0 = ga.gaussian_entropy(ga.GaussianState(np.zeros(2), cov, ("A",)))
        s1 = ga.gaussian_entropy(ga.GaussianState([3.0, -1.0], cov, ("A",)))
        assert s0 == s1


class TestConditionalEntropy:
    def test_product_additivity(self):
        cov = np.diag([1.5, 1.5, 2.5, 2.5])
        state = ga.GaussianState(np.zeros(4), cov, ("A", "M"))
        assert ga.gaussian_conditional_entropy(state, "A", "M") == pytest.approx(
            ga.g_function(1.0), rel=1e-12
        )

    def test_tightness_value(self):
        state = ga.tightness_state(2.0)
        expected = -ga.g_function(3.5)
        assert expected == pytest.approx(-2.3836778957594458, rel=1e-12)
        assert ga.gaussian_conditional_entropy(state, "A", "M") == pytest.approx(expected, abs=1e-9)

    def test_large_k_limit(self):
        # S(A|M) after unit-time heat flow approaches 1 + log(1) = 1
        devs = []
        for k in (2, 4, 8, 16):
            state = ga.gaussian_heat_flow(ga.tightness_state(k), 1.0, "A")
            devs.append(abs(ga.gaussian_conditional_entropy(state, "A", "M") - 1.0))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-3

    def test_reads_the_blocks_of_the_named_modes(self):
        # a thermal mode B sits between A and M and enters neither block
        pair = ga.tightness_covariance(2.0)
        idx = [0, 1, 4, 5]
        cov = 1.5 * np.eye(6)
        cov[np.ix_(idx, idx)] = pair
        state = ga.GaussianState(np.zeros(6), cov, ("A", "B", "M"))
        expected = ga.gaussian_conditional_entropy(ga.tightness_state(2.0), "A", "M")
        assert ga.gaussian_conditional_entropy(state, "A", "M") == expected
        assert ga.gaussian_conditional_entropy(state, "B", "M") == pytest.approx(ga.g_function(1.0), rel=1e-12)

    def test_unknown_label(self):
        for target, memory in (("A", "B"), ("A", "A")):
            with pytest.raises(LabelError):
                ga.gaussian_conditional_entropy(ga.tightness_state(2.0), target, memory)


class TestHeatFlow:
    def test_vacuum_becomes_thermal(self):
        out = ga.gaussian_heat_flow(ga.vacuum_state(), 0.7)
        assert np.allclose(out.cov, 1.2 * np.eye(2))

    def test_zero_time_identity(self):
        state = ga.tightness_state(2.0)
        out = ga.gaussian_heat_flow(state, 0.0, "A")
        assert np.array_equal(out.cov, state.cov)

    def test_matches_printed_family_matrix(self):
        k, t = 3.0, 0.8
        out = ga.gaussian_heat_flow(ga.tightness_state(k), t, "A")
        c = math.sqrt(k ** 4 - 0.25)
        expected = np.array(
            [
                [k ** 2 + t, 0, c, 0],
                [0, k ** 2 + t, 0, -c],
                [c, 0, k ** 2, 0],
                [0, -c, 0, k ** 2],
            ]
        )
        assert np.allclose(out.cov, expected, atol=1e-12)

    def test_semigroup_exact(self):
        state = ga.tightness_state(2.0)
        one = ga.gaussian_heat_flow(ga.gaussian_heat_flow(state, 0.3, "A"), 0.5, "A")
        two = ga.gaussian_heat_flow(state, 0.8, "A")
        assert np.array_equal(one.cov, two.cov)

    def test_negative_time(self):
        with pytest.raises(NegativeTimeError):
            ga.gaussian_heat_flow(ga.vacuum_state(), -0.1)

    def test_entropy_monotone_and_physical(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = random_physical_state(rng)
            entropies = []
            for t in (0.0, 0.2, 0.5, 1.0, 2.0):
                out = ga.gaussian_heat_flow(state, t, "A")
                assert ga.symplectic_eigenvalues(out.cov).min() >= 0.5 - 1e-9
                entropies.append(ga.gaussian_entropy(out))
            assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))


class TestTightnessFamily:
    def test_noise_entropy_is_b(self):
        _, f, _ = ga.tightness_family(2.0, 1.0, 1.0)
        assert ps.shannon_entropy(f) == pytest.approx(1.0, abs=1e-9)

    def test_output_block(self):
        rho_am, _, rho_cm = ga.tightness_family(2.0, 1.0, 1.0)
        shift = math.exp(0.0) + math.exp(0.0)
        assert np.allclose(rho_cm.cov[:2, :2], rho_am.cov[:2, :2] + math.exp(0.0) * np.eye(2))
        assert rho_cm.cov[0, 0] == pytest.approx(4.0 + shift)

    def test_entropy_power_limit(self):
        gaps = []
        for k in (2, 4, 8, 16):
            _, _, rho_cm = ga.tightness_family(k, 1.0, 1.0)
            s = ga.gaussian_conditional_entropy(rho_cm, "A", "M")
            gaps.append(abs(math.exp(s) - 2 * math.e))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.01

    def test_negative_a_regime(self):
        _, _, rho_cm = ga.tightness_family(16.0, -1.0, 0.0)
        s = ga.gaussian_conditional_entropy(rho_cm, "A", "M")
        assert abs(math.exp(s) - (math.exp(-1) + 1.0)) <= 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            ga.tightness_family(0.5, 1.0, 1.0)

    def test_k_to_r_domains(self):
        # one formula, two domains: the TMSV needs 2 k^2 >= 1, the family k >= 1
        assert ga.tmsv_r_for_k(math.sqrt(0.5)) == pytest.approx(0.0, abs=1e-7)
        assert ga.tmsv_covariance(ga.tmsv_r_for_k(0.9))[0, 0] == pytest.approx(0.81, abs=1e-12)
        with pytest.raises(DomainError):
            ga.tmsv_r_for_k(0.7)
        with pytest.raises(DomainError):
            ga.tightness_covariance(0.9)
        assert np.array_equal(ga.tightness_covariance(2.0), ga.tmsv_covariance(ga.tmsv_r_for_k(2.0)))

    def test_coherent_state(self):
        gs = ga.coherent_state(1.0 + 0.5j)
        assert gs.mean == pytest.approx([math.sqrt(2), 0.5 * math.sqrt(2)], abs=0)
        assert np.array_equal(gs.cov, 0.5 * np.eye(2)) and gs.mode_labels == ("A",)


class TestQouEvolution:
    def test_fixed_point_invariant(self):
        omega = ga.GaussianState(np.zeros(2), ga.qou_steady_covariance(1.0, 0.5), ("A",))
        out = ga.gaussian_qou_evolution(omega, 1.7, 1.0, 0.5)
        assert np.allclose(out.cov, omega.cov, atol=1e-14)

    def test_zero_time(self):
        state = ga.tmsv_state(0.7)
        out = ga.gaussian_qou_evolution(state, 0.0, 1.0, 0.5)
        assert np.allclose(out.cov, state.cov)

    def test_long_time_limit(self):
        state = ga.GaussianState([2.0, -1.0], 4.0 * np.eye(2), ("A",))
        out = ga.gaussian_qou_evolution(state, 80.0, 1.0, 0.5)
        assert np.allclose(out.cov, ga.qou_steady_covariance(1.0, 0.5), atol=1e-12)
        assert np.allclose(out.mean, 0.0, atol=1e-12)

    def test_semigroup(self):
        state = ga.tmsv_state(0.8)
        one = ga.gaussian_qou_evolution(
            ga.gaussian_qou_evolution(state, 0.4, 1.0, 0.5), 0.6, 1.0, 0.5
        )
        two = ga.gaussian_qou_evolution(state, 1.0, 1.0, 0.5)
        assert np.allclose(one.cov, two.cov, atol=1e-14)

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            ga.gaussian_qou_evolution(ga.vacuum_state(), 1.0, 0.5, 1.0)


class TestRelativeEntropyToThermalProduct:
    def test_fixed_point_product_is_zero(self):
        cov = np.zeros((4, 4))
        cov[:2, :2] = ga.qou_steady_covariance(1.0, 0.5)
        cov[2:, 2:] = 2.0 * np.eye(2)
        state = ga.GaussianState(np.zeros(4), cov, ("A", "M"))
        assert ga.relative_entropy_to_thermal_product(state, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_single_mode_thermal_value(self):
        state = ga.thermal_state(1.0)
        expected = -ga.g_function(1.0) - math.log(0.75) - math.log(0.25)
        assert expected == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)
        assert ga.relative_entropy_to_thermal_product(state, 1.0, 0.5) == pytest.approx(expected)

    def test_tmsv_positive_and_decaying(self):
        state = ga.tightness_state(2.0)
        d0 = ga.relative_entropy_to_thermal_product(state, 1.0, 0.5)
        assert d0 > 0
        rate = 1.0 - 0.25
        for t in (0.5, 1.0, 2.0):
            out = ga.gaussian_qou_evolution(state, t, 1.0, 0.5)
            dt = ga.relative_entropy_to_thermal_product(out, 1.0, 0.5)
            assert dt <= math.exp(-rate * t) * d0 + 1e-8

    def test_random_states_decay(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            state = random_physical_state(rng)
            d0 = ga.relative_entropy_to_thermal_product(state, 1.2, 0.4)
            out = ga.gaussian_qou_evolution(state, 0.7, 1.2, 0.4)
            dt = ga.relative_entropy_to_thermal_product(out, 1.2, 0.4)
            assert dt <= math.exp(-(1.2 ** 2 - 0.4 ** 2) * 0.7) * d0 + 1e-8


class TestStateValidation:
    def test_unphysical_rejected(self):
        with pytest.raises(PhysicalityError):
            ga.GaussianState(np.zeros(2), 0.4 * np.eye(2), ("A",))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_covariance_rejected(self, bad):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            ga.symplectic_eigenvalues(cov)

    def test_nan_thermal_occupation_rejected(self):
        with pytest.raises(DomainError):
            ga.thermal_state(float("nan"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ga.GaussianState([bad, 0.0], 0.5 * np.eye(2))

    def test_label_count(self):
        with pytest.raises(LabelError):
            ga.GaussianState(np.zeros(4), np.eye(4), ("A",))


class TestSymplecticForm:
    def test_invariants(self):
        for n in (1, 2, 3):
            delta = ga.symplectic_form(n)
            assert np.array_equal(delta.T, -delta)
            assert np.array_equal(delta @ delta, -np.eye(2 * n))


class TestTightnessZeroTargets:
    def test_a_and_b_zero(self):
        _, _, rho_cm = ga.tightness_family(16.0, 0.0, 0.0)
        s = ga.gaussian_conditional_entropy(rho_cm, "A", "M")
        assert abs(math.exp(s) - 2.0) <= 0.01
