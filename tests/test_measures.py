import math
import sys

import numpy as np
import pytest
from scipy.special import xlogy

from epi_lab import channels as ch
from epi_lab import fock as fk
from epi_lab import gaussian as ga
from epi_lab import measures as ms
from epi_lab import phase_space as ps
from epi_lab.errors import (
    ConvergenceError,
    DomainError,
    NegativeTimeError,
    QuadratureError,
    UnsupportedFamilyError,
)
from oracles import untagged


def small_register(d=24):
    """The input A of the small register pair, one state per label."""
    return ch.Register([0.4, 0.6], [fk.fock(1, d), fk.thermal(0.5, d)])


def small_noise(spacing=0.1):
    """The noise R of the small register pair, one density per label."""
    return ch.Register(
        [0.4, 0.6],
        [
            ps.gaussian_pdf(0.5, center=(0.5, 0.0), spacing=spacing),
            ps.gaussian_pdf(1.2, center=(-0.4, 0.3), spacing=spacing),
        ],
    )


class TestConditionalEntropyRM:
    def test_independent_product(self):
        f = ps.gaussian_pdf(0.7)
        assert ms.entropy(f) == pytest.approx(
            ps.shannon_entropy(f), abs=1e-12
        )

    def test_register_matches_per_label_form(self):
        # the chain rule S(M|R) + S(R) - S(M) on the labels' common 0.1
        # lattice, with the label posterior of every cell, against the
        # program's label average
        s = 0.1
        reg = small_noise(s)
        origins = np.array([f.origin for f in reg.parts])
        offsets = (origins - origins.min(axis=0)) / s
        assert np.abs(offsets - np.round(offsets)).max() < 1e-9
        offsets = np.round(offsets).astype(int)
        side = max(int(o.max()) + f.size for o, f in zip(offsets, reg.parts))
        joint = np.zeros((len(reg.parts), side, side))
        for m, ((i, j), f) in enumerate(zip(offsets, reg.parts)):
            joint[m, i : i + f.size, j : j + f.size] = reg.probs[m] * f.values
        cell = s * s / (2 * math.pi)
        mix = joint.sum(axis=0)
        live = mix > 0
        posterior = joint[:, live] / mix[live]
        s_m_given_r = -float((mix[live] * xlogy(posterior, posterior).sum(axis=0)).sum()) * cell
        s_r = -float(xlogy(mix, mix).sum()) * cell
        s_m = -float(xlogy(reg.probs, reg.probs).sum())
        assert ms.entropy(reg) == pytest.approx(
            s_m_given_r + s_r - s_m, abs=1e-12)

    def test_heat_flow_raises_value(self):
        reg = small_noise()
        base = ms.entropy(reg)
        prev = base
        for t in (0.2, 0.5, 1.0):
            cur = ms.entropy(ms.heat_flow(reg, t))
            assert cur >= prev - 1e-12
            prev = cur


SIDES = {
    "gaussian-1": lambda: ga.thermal_state(0.5),
    "gaussian-2": lambda: ga.tmsv_state(0.4),
    "fock-1": lambda: fk.thermal(0.5, 20),
    "fock-2": lambda: fk.two_mode_squeezed_vacuum(0.3, 12),
    "fock-2-dense": lambda: fk.densify(fk.two_mode_squeezed_vacuum(0.3, 12)),
    "grid-tagged": lambda: ps.gaussian_pdf(0.5, spacing=0.1),
    "grid-untagged": lambda: untagged(ps.gaussian_pdf(0.5, spacing=0.1)),
    "fock-register": small_register,
}


class TestIntegralFisher:
    def test_zero_time(self):
        assert ms.entropy_gain(small_noise(), 0.0) == 0.0

    @pytest.mark.parametrize("side", sorted(SIDES))
    def test_heat_flow_owns_the_time_domain(self, side):
        x = SIDES[side]()
        with pytest.raises(NegativeTimeError):
            ms.entropy_gain(x, -0.5)
        assert ms.entropy_gain(x, 0.0) == 0.0  # t = 0 flows to an exact copy

    def test_negative_time(self):
        with pytest.raises(NegativeTimeError):
            ms.entropy_gain(small_noise(), -0.5)

    def test_independent_gaussian_closed_form(self):
        s = 0.6
        state = ps.gaussian_pdf(s, spacing=0.1)
        for t in (0.3, 0.8):
            val = ms.entropy_gain(state, t)
            assert val == pytest.approx(math.log((s + t) / s), abs=1e-7)

    def test_monotone_and_concave(self):
        reg = small_noise()
        ts = [0.25 * i for i in range(1, 9)]
        deltas = [ms.entropy_gain(reg, t) for t in ts]
        assert all(b >= a - 1e-9 for a, b in zip(deltas, deltas[1:]))
        for i in range(1, len(deltas) - 1):
            assert deltas[i] >= 0.5 * (deltas[i - 1] + deltas[i + 1]) - 1e-6


class TestFisherEstimates:
    def test_classical_gaussian(self):
        s = 0.8
        est = ms.fisher(ps.gaussian_pdf(s, spacing=0.0125))
        assert est.value == pytest.approx(1.0 / s, rel=1e-4)
        assert est.uncertainty <= 0.05 * est.value

    def test_gaussian_thermal(self):
        nu = 2.0
        est = ms.fisher(ga.thermal_state(nu - 0.5))
        assert est.value == pytest.approx(math.log((nu + 0.5) / (nu - 0.5)), abs=1e-7)

    def test_fock_thermal_matches_gaussian(self):
        est_f = ms.fisher(fk.thermal(1.5, 50))
        est_g = ms.fisher(ga.thermal_state(1.5))
        assert est_f.value == pytest.approx(est_g.value, abs=1e-5)

    def test_memory_decouples_for_products(self):
        cov = np.zeros((4, 4))
        cov[:2, :2] = 2.0 * np.eye(2)
        cov[2:, 2:] = 1.2 * np.eye(2)
        joint = ga.GaussianState(np.zeros(4), cov, ("A", "M"))
        est_joint = ms.fisher(joint)
        est_alone = ms.fisher(ga.GaussianState(np.zeros(2), 2.0 * np.eye(2), ("A",)))
        assert est_joint.value == pytest.approx(est_alone.value, abs=1e-10)

    def test_step_halving_stability(self):
        est1 = ms.fisher(ga.thermal_state(1.5), h0=1e-2)
        est2 = ms.fisher(ga.thermal_state(1.5), h0=5e-3)
        assert abs(est1.value - est2.value) <= 2 * max(est1.uncertainty, est2.uncertainty)

    def test_register_fisher(self):
        reg = small_noise(spacing=0.0125)
        est = ms.fisher(reg)
        expected = 0.4 / 0.5 + 0.6 / 1.2
        assert est.value == pytest.approx(expected, rel=1e-3)

    def test_register_with_one_coarse_label_rejected(self):
        # an untagged density (as from a file) cannot be resampled
        fine = ps.gaussian_pdf(0.5, spacing=0.0125)
        reg = ch.Register([0.4, 0.6], [fine, untagged(ps.gaussian_pdf(1.2, spacing=0.1))])
        with pytest.raises(QuadratureError):
            ms.fisher(reg)

    def test_coarse_grid_rejected(self):
        with pytest.raises(QuadratureError):
            ms.fisher(untagged(ps.gaussian_pdf(0.8, spacing=0.1)))
        # the limit is the grid that resolves the smallest step h0/4
        h0 = 0.16
        spacing = ps.resolving_spacing(h0 / 4)
        ms.fisher(untagged(ps.gaussian_pdf(0.8, spacing=spacing)), h0)
        coarse = untagged(ps.gaussian_pdf(0.8, spacing=1.01 * spacing))
        with pytest.raises(QuadratureError):
            ms.fisher(coarse, h0)

    def test_coarse_gaussian_flows_in_closed_form(self):
        # a tagged Gaussian, alone or as one label, needs no fine grid: its
        # heat flow samples no kernel, so J is that of the density built on
        # the grid that resolves h0/4
        fine = ps.resolving_spacing(1e-2 / 4)
        coarse, built = (ps.gaussian_pdf(0.8, center=(0.3, -0.1), spacing=s) for s in (0.1, fine))
        assert abs(ms.fisher(coarse).value - ms.fisher(built).value) <= 1e-12
        label = ps.gaussian_pdf(0.5, spacing=fine)
        coarse = ch.Register([0.4, 0.6], [label, ps.gaussian_pdf(1.2, (0.2, 0.1), spacing=0.1)])
        built = ch.Register([0.4, 0.6], [label, ps.gaussian_pdf(1.2, (0.2, 0.1), spacing=fine)])
        assert abs(ms.fisher(coarse).value - ms.fisher(built).value) <= 1e-12

    def test_unsupported_type(self):
        with pytest.raises(DomainError):
            ms.fisher("not a state")

    def test_unresolved_estimate_raises_convergence_error(self):
        # a delta has J = infinity: its ladder reads 3696 +/- 469, over the 5 % guard
        for f in (ps.delta_pdf(0.0125), ps.uniform_square_pdf(1.0, 0.0125)):
            with pytest.raises(ConvergenceError):
                ms.fisher(f)
        with pytest.raises(ConvergenceError):
            ms.FisherEstimate(float("inf"), 0.0)


PAIRS = {
    "thermal": (lambda: fk.thermal(0.8, 40), lambda: ga.thermal_state(0.8)),
    "tmsv": (lambda: fk.two_mode_squeezed_vacuum(0.3, 16), lambda: ga.tmsv_state(0.3)),
}


class TestEntropyAndHeatFlowA:
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_fock_matches_gaussian(self, name):
        st, gs = (build() for build in PAIRS[name])
        assert ms.entropy(st) == pytest.approx(ms.entropy(gs), abs=1e-4)
        assert ms.fisher(st).value == pytest.approx(ms.fisher(gs).value, abs=1e-4)

    def test_heat_flow_matches_gaussian(self):
        outs_f = [ms.heat_flow(fk.thermal(0.8, 40), t) for t in (0.0, 0.2)]
        outs_g = [ms.heat_flow(ga.thermal_state(0.8), t) for t in (0.0, 0.2)]
        for f, g in zip(outs_f, outs_g):
            assert ms.entropy(f) == pytest.approx(ms.entropy(g), abs=1e-4)

    def test_one_label_register_is_its_state(self):
        st = fk.thermal(0.8, 40)
        reg = ch.Register([1.0], [st])
        assert ms.entropy(reg) == ms.entropy(st)
        assert ms.fisher(reg) == ms.fisher(st)
        out_reg, out = ms.heat_flow(reg, 0.3), ms.heat_flow(st, 0.3)
        assert np.array_equal(out_reg.parts[0].matrix, out.matrix)

    def test_unsupported_type(self):
        # a density is a side too (the noise R), so only a non-side is refused
        with pytest.raises(DomainError):
            ms.entropy("not a state")
        with pytest.raises(DomainError):
            ms.heat_flow("not a state", 0.1)


# (module, name, a call that must reach that module attribute): the
# implementations behind the entropy and heat-flow registrations
BY_NAME = {
    "shannon_entropy": (ms, lambda: ms.entropy(ps.gaussian_pdf(0.3))),
    "gaussian_entropy": (ms, lambda: ms.entropy(ga.thermal_state(0.8))),
    "classical_heat_flow": (ch, lambda: ms.heat_flow(ps.gaussian_pdf(0.3), 0.1)),
    "gaussian_heat_flow": (ch, lambda: ms.heat_flow(ga.thermal_state(0.8), 0.1)),
    "gaussian_noise_channel": (ch, lambda: ms.heat_flow(fk.thermal(0.8, 40), 0.1)),
}

# one part of each register kind, with the array that holds it
PARTS = {
    "fock": (lambda: fk.thermal(0.8, 40), lambda x: x.matrix),
    "grid": (lambda: ps.gaussian_pdf(0.3, center=(0.2, -0.1), spacing=0.0125), lambda x: x.values),
}


class TestOneVocabulary:
    @pytest.mark.parametrize("kind", sorted(PARTS))
    def test_one_label_register_is_its_part(self, kind):
        build, array = PARTS[kind]
        x = build()
        reg = ch.Register([1.0], [x])
        assert ms.entropy(reg) == ms.entropy(x)
        assert ms.entropy_gain(reg, 0.3) == ms.entropy_gain(x, 0.3)
        assert ms.fisher(reg) == ms.fisher(x)
        (out_reg,), out = ms.heat_flow(reg, 0.3).parts, ms.heat_flow(x, 0.3)
        assert np.array_equal(array(out_reg), array(out))

    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_registrations_call_by_module_name(self, monkeypatch, name):
        # a wrapper on every module attribute bound to the implementation, as
        # perfbench's tracer installs its spans, sees the call; a registration
        # that holds the function object itself would bypass it
        module, call = BY_NAME[name]
        orig, calls = getattr(module, name), []

        def counting(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)

        for mod in [m for n, m in list(sys.modules.items()) if n.partition(".")[0] == "epi_lab"]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counting)
        call()
        assert calls == [name]

    def test_provenance_of_each_side(self):
        st, other = fk.fock(1, 40), fk.thermal(0.8, 40)
        f, g = ps.gaussian_pdf(0.3, spacing=0.05), ps.gaussian_pdf(0.5, spacing=0.1)
        assert ms.provenance(ga.tmsv_state(0.3)) == {}
        assert ms.provenance(other) == {"tail_mass": other.tail_mass()}
        assert ms.provenance(f) == {"grid": f.size, "spacing": 0.05}
        # a register: the largest tail of its labels, or lists of their grids
        assert st.tail_mass() < other.tail_mass()
        assert ms.provenance(ch.Register([0.5, 0.5], [st, other])) == {"tail_mass": other.tail_mass()}
        assert ms.provenance(ch.Register([0.5, 0.5], [f, g])) == {"grid": [f.size, g.size],
                                                                  "spacing": [0.05, 0.1]}

    def test_mixed_or_quantum_noise_parts_refused(self):
        with pytest.raises(UnsupportedFamilyError):
            ch.Register([0.5, 0.5], [fk.vacuum(8), ps.gaussian_pdf(0.5)])
        with pytest.raises(UnsupportedFamilyError):
            ch.Register([1.0], [ga.thermal_state(0.5)])
        # a register of states is an input A, never the noise R
        states = ch.Register([1.0], [fk.vacuum(8)])
        with pytest.raises(UnsupportedFamilyError):
            ch.extended_channel(states, states)
        with pytest.raises(UnsupportedFamilyError):
            ms.conditional_mutual_information(states, states)

class TestConditionalMutualInformation:
    def test_register_is_zero(self):
        val = ms.conditional_mutual_information(small_register(), small_noise())
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_registers_must_match(self):
        other = ch.Register([0.5, 0.5], small_noise().parts)
        with pytest.raises(DomainError):
            ms.conditional_mutual_information(small_register(), other)


class TestDeBruijnConsistency:
    def test_dual_route(self):
        reg = small_noise()
        for t in (0.3, 0.9):
            lhs = ms.entropy_gain(reg, t)
            rhs = sum(
                p * (ps.shannon_entropy(ps.classical_heat_flow(f, t)) - ps.shannon_entropy(f))
                for p, f in zip(reg.probs, reg.parts)
            )
            assert lhs == pytest.approx(rhs, abs=1e-4)
