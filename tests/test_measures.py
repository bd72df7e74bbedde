import math

import numpy as np
import pytest

from epi_lab import channels as ch
from epi_lab import fock as fk
from epi_lab import gaussian as ga
from epi_lab import measures as ms
from epi_lab import phase_space as ps
from epi_lab.errors import DomainError, NegativeTimeError, QuadratureError


def small_register(spacing=0.1, d=24):
    return ch.RegisterState(
        [0.4, 0.6],
        [fk.fock(1, d), fk.thermal(0.5, d)],
        [
            ps.gaussian_pdf(0.5, center=(0.5, 0.0), spacing=spacing),
            ps.gaussian_pdf(1.2, center=(-0.4, 0.3), spacing=spacing),
        ],
    )


class TestConditionalEntropyRM:
    def test_independent_product(self):
        f = ps.gaussian_pdf(0.7)
        state = ch.CQState(f, fk.thermal(0.5, 20))
        assert ms.cq_conditional_entropy_R_given_M(state) == pytest.approx(
            ps.shannon_entropy(f), abs=1e-12
        )

    def test_register_matches_per_label_form(self):
        reg = small_register()
        lhs = ms.cq_conditional_entropy_R_given_M(reg)
        rhs = sum(p * ps.shannon_entropy(f) for p, f in zip(reg.probs, reg.pdfs))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_heat_flow_raises_value(self):
        reg = small_register()
        base = ms.cq_conditional_entropy_R_given_M(reg)
        prev = base
        for t in (0.2, 0.5, 1.0):
            cur = ms.cq_conditional_entropy_R_given_M(ch.register_heat_flow_R(reg, t))
            assert cur >= prev - 1e-12
            prev = cur

    def test_conditioning_reduces_entropy(self):
        # correlated cell-dependent conditionals: S(R|M) < S(R)
        f = ps.gaussian_pdf(0.5, spacing=0.25, extent=6.1)
        conds = []
        for x, y in f.points():
            conds.append(fk.coherent(0.2 * (x + 1j * y), 24) if x >= 0 else fk.vacuum(24))
        state = ch.CQState(f, conds)
        assert ms.cq_conditional_entropy_R_given_M(state) < ps.shannon_entropy(f) - 0.01


class TestIntegralFisher:
    def test_zero_time(self):
        assert ms.integral_fisher_R_given_M(small_register(), 0.0) == 0.0

    def test_negative_time(self):
        with pytest.raises(NegativeTimeError):
            ms.integral_fisher_R_given_M(small_register(), -0.5)

    def test_independent_gaussian_closed_form(self):
        s = 0.6
        state = ch.CQState(ps.gaussian_pdf(s, spacing=0.1), fk.vacuum(6))
        for t in (0.3, 0.8):
            val = ms.integral_fisher_R_given_M(state, t)
            assert val == pytest.approx(math.log((s + t) / s), abs=1e-7)

    def test_monotone_and_concave(self):
        reg = small_register()
        ts = [0.25 * i for i in range(1, 9)]
        deltas = [ms.integral_fisher_R_given_M(reg, t) for t in ts]
        assert all(b >= a - 1e-9 for a, b in zip(deltas, deltas[1:]))
        for i in range(1, len(deltas) - 1):
            assert deltas[i] >= 0.5 * (deltas[i - 1] + deltas[i + 1]) - 1e-6


class TestFisherEstimates:
    def test_classical_gaussian(self):
        s = 0.8
        state = ch.CQState(ps.gaussian_pdf(s, spacing=0.0125), fk.vacuum(4))
        est = ms.fisher_R_given_M(state)
        assert est.value == pytest.approx(1.0 / s, rel=1e-4)
        assert est.uncertainty <= 0.05 * est.value

    def test_gaussian_thermal(self):
        nu = 2.0
        est = ms.fisher_A_given_M(ga.thermal_state(nu - 0.5))
        assert est.value == pytest.approx(math.log((nu + 0.5) / (nu - 0.5)), abs=1e-7)

    def test_fock_thermal_matches_gaussian(self):
        est_f = ms.fisher_A_given_M(fk.thermal(1.5, 50))
        est_g = ms.fisher_A_given_M(ga.thermal_state(1.5))
        assert est_f.value == pytest.approx(est_g.value, abs=1e-5)

    def test_memory_decouples_for_products(self):
        cov = np.zeros((4, 4))
        cov[:2, :2] = 2.0 * np.eye(2)
        cov[2:, 2:] = 1.2 * np.eye(2)
        joint = ga.GaussianState(np.zeros(4), cov, ("A", "M"))
        est_joint = ms.fisher_A_given_M(joint)
        est_alone = ms.fisher_A_given_M(ga.GaussianState(np.zeros(2), 2.0 * np.eye(2), ("A",)))
        assert est_joint.value == pytest.approx(est_alone.value, abs=1e-10)

    def test_step_halving_stability(self):
        est1 = ms.fisher_A_given_M(ga.thermal_state(1.5), h0=1e-2)
        est2 = ms.fisher_A_given_M(ga.thermal_state(1.5), h0=5e-3)
        assert abs(est1.value - est2.value) <= 2 * max(est1.uncertainty, est2.uncertainty)

    def test_register_fisher(self):
        reg = small_register(spacing=0.0125, d=30)
        est = ms.fisher_R_given_M(reg)
        expected = 0.4 / 0.5 + 0.6 / 1.2
        assert est.value == pytest.approx(expected, rel=1e-3)

    def test_coarse_grid_rejected(self):
        state = ch.CQState(ps.gaussian_pdf(0.8, spacing=0.1), fk.vacuum(4))
        with pytest.raises(QuadratureError):
            ms.fisher_R_given_M(state)

    def test_unsupported_type(self):
        with pytest.raises(DomainError):
            ms.fisher_A_given_M("not a state")


PAIRS = {
    "thermal": (lambda: fk.thermal(0.8, 40), lambda: ga.thermal_state(0.8)),
    "tmsv": (lambda: fk.two_mode_squeezed_vacuum(0.3, 16), lambda: ga.tmsv_state(0.3)),
}


class TestEntropyAndHeatFlowA:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_fock_matches_gaussian(self, name):
        st, gs = (build() for build in PAIRS[name])
        assert ms.entropy_A_given_M(st) == pytest.approx(ms.entropy_A_given_M(gs), abs=1e-4)
        assert ms.fisher_A_given_M(st).value == pytest.approx(ms.fisher_A_given_M(gs).value, abs=1e-4)

    def test_heat_flow_matches_gaussian(self):
        outs_f = ms.heat_flow_A(fk.thermal(0.8, 40), [0.0, 0.2])
        outs_g = ms.heat_flow_A(ga.thermal_state(0.8), [0.0, 0.2])
        for f, g in zip(outs_f, outs_g):
            assert ms.entropy_A_given_M(f) == pytest.approx(ms.entropy_A_given_M(g), abs=1e-4)

    def test_one_label_register_is_its_state(self):
        st = fk.thermal(0.8, 40)
        reg = ch.RegisterState([1.0], [st])
        assert ms.entropy_A_given_M(reg) == ms.entropy_A_given_M(st)
        assert ms.fisher_A_given_M(reg) == ms.fisher_A_given_M(st)
        (out_reg,), (out,) = ms.heat_flow_A(reg, [0.3]), ms.heat_flow_A(st, [0.3])
        assert np.array_equal(out_reg.states[0].matrix, out.matrix)

    def test_unsupported_type(self):
        with pytest.raises(DomainError):
            ms.entropy_A_given_M(ps.gaussian_pdf(0.5))


class TestConditionalMutualInformation:
    def test_register_is_zero(self):
        assert ms.conditional_mutual_information(small_register()) == pytest.approx(0.0, abs=1e-8)

    def test_marginalized_register_is_positive(self):
        val = ms.conditional_mutual_information(small_register(), memory="trivial")
        assert val > 0.01

    def test_identical_labels_uncorrelated(self):
        f = ps.gaussian_pdf(0.5, spacing=0.1)
        reg = ch.RegisterState(
            [0.5, 0.5], [fk.fock(1, 16), fk.fock(1, 16)], [f, f]
        )
        assert ms.conditional_mutual_information(reg, memory="trivial") == pytest.approx(
            0.0, abs=1e-9
        )


class TestDeBruijnConsistency:
    def test_dual_route(self):
        reg = small_register()
        for t in (0.3, 0.9):
            lhs = ms.integral_fisher_R_given_M(reg, t)
            rhs = sum(
                p * (ps.shannon_entropy(ps.classical_heat_flow(f, t)) - ps.shannon_entropy(f))
                for p, f in zip(reg.probs, reg.pdfs)
            )
            assert lhs == pytest.approx(rhs, abs=1e-4)
