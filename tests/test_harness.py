import json
import math

import numpy as np
import pytest

from epi_lab import channels as ch
from epi_lab import fock as fk
from epi_lab import gaussian as ga
from epi_lab import harness as hn
from epi_lab import phase_space as ps
from epi_lab.errors import DomainError, UnsupportedFamilyError


def gauss_noise(t):
    return lambda spacing=None: (ps.gaussian_pdf(t, spacing=spacing),)


def small_f1():
    return hn.Instance(
        {"family": "F1", "instance": "tmsv-small", "t": 0.3},
        lambda: fk.two_mode_squeezed_vacuum(0.4, 24), gauss_noise(0.3),
        gaussian=lambda: ga.tmsv_state(0.4), noise_t=0.3,
    )


def small_register():
    return hn.Instance(
        {"family": "F2", "labels": 2, "instance": "small"},
        lambda: [fk.fock(1, 30), fk.thermal(0.4, 30)],
        lambda spacing=None: (ps.gaussian_pdf(0.3, spacing=spacing or 0.1),
                              ps.gaussian_pdf(0.5, center=(0.4, -0.2), spacing=spacing or 0.1)),
        probs=[0.5, 0.5],
    )


class TestCheckReport:
    def test_pass_iff_margin_within_tolerance(self):
        r1 = hn.make_report("x", {}, 1.0, 1.0, -0.5e-3, 1e-3)
        r2 = hn.make_report("x", {}, 1.0, 1.0, -2e-3, 1e-3)
        assert r1.passed and not r2.passed

    def test_roundtrip(self):
        rep = hn.make_report("demo", {"t": 0.5, "k": [1, 2]}, 1.0, 0.5, 0.5, 1e-9, {"cells": 10})
        back = hn.CheckReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert back == rep

    def test_numpy_params_become_plain(self):
        rep = hn.make_report("demo", {"v": np.float64(0.5), "l": np.arange(2)}, 0, 0, 0, 0)
        assert json.dumps(rep.params)  # serializable
        assert rep.params["l"] == [0, 1]


class TestConditionalEpiChecks:
    def test_f1_dual_path(self):
        reports = hn.check_conditional_epi(small_f1())
        assert len(reports) == 3
        assert all(r.passed for r in reports)
        paths = {r.params.get("path") for r in reports if r.check_name == "cond-epi"}
        assert paths == {"gaussian", "fock"}
        agree = [r for r in reports if r.check_name == "cond-epi-path-agreement"][0]
        assert agree.margin >= 0

    def test_register(self):
        reports = hn.check_conditional_epi(small_register())
        (rep,) = reports
        assert rep.passed
        assert rep.diagnostics["tail_mass"] <= 1e-8

    def test_trivial_memory(self):
        inst = hn.Instance({"family": "trivial-M", "instance": "thermal", "t": 0.4},
                           lambda: fk.thermal(0.8, 40), gauss_noise(0.4),
                           gaussian=lambda: ga.thermal_state(0.8), noise_t=0.4)
        reports = hn.check_conditional_epi(inst)
        assert all(r.passed for r in reports)

    def test_unsupported(self):
        # cell-dependent conditionals certify no conditional independence
        f = ps.gaussian_pdf(0.5, spacing=0.25, extent=6.1)
        inst = hn.Instance({"family": "F1", "instance": "cells"},
                           lambda: [fk.coherent(0.2 * (x + 1j * y), 24) if x >= 0 else fk.vacuum(24)
                                    for x, y in f.points()],
                           lambda spacing=None: (f,))
        with pytest.raises(UnsupportedFamilyError):
            hn.check_conditional_epi(inst)


class TestLinearEpi:
    def test_endpoints_use_zero_convention(self):
        inst = small_f1()
        for lam in (0.0, 1.0, 0.5, "optimal"):
            rep = hn.check_linear_epi(inst, lam)
            assert rep.passed

    def test_optimal_matches_exponential_form(self):
        inst = small_f1()
        rep_lin = hn.check_linear_epi(inst, "optimal")
        s_a, s_r, s_c, _ = inst.entropies("gaussian")
        log_form = s_c - math.log(math.exp(s_a) + math.exp(s_r))
        assert rep_lin.margin == pytest.approx(log_form, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            hn.check_linear_epi(small_f1(), 1.2)


class TestScalingAndTightness:
    def test_scaling_independent_exact(self):
        state = ch.CQState(ps.gaussian_pdf(1.0), fk.vacuum(4))
        rep = hn.check_scaling(state, [5.0, 20.0], 1.0, "gauss-1")
        assert rep.passed
        devs = rep.diagnostics["deviations"]
        assert devs[0] == pytest.approx(math.log(1 + 1 / 5.0), abs=1e-6)

    def test_tightness_report(self):
        rep = hn.check_tightness(1.0, 1.0, [2, 4, 8])
        gaps = rep.diagnostics["gaps"]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_tightness_epi_margins(self):
        for k in (2, 16):
            assert hn.check_tightness_epi(1.0, 1.0, k).margin >= 0


class TestQouChecks:
    def test_fock_path(self):
        rep = hn.check_qou_decay(fk.fock(1, 25), 1.0, 0.5, [0.5, 1.0], bipartite=False)
        assert rep.passed and rep.params["path"] == "fock"

    def test_gaussian_path(self):
        rep = hn.check_qou_decay(ga.tmsv_state(0.8), 1.0, 0.5, [0.5, 1.0], bipartite=True)
        assert rep.passed and rep.margin >= 0

    def test_fixed_point_and_semigroup(self):
        assert hn.check_qou_fixed_point(1.0, 0.5, 0.7).passed
        assert hn.check_qou_semigroup(fk.fock(1, 20), 1.0, 0.5, 0.2, 0.5).passed


class TestCapacity:
    def test_value_against_closed_form(self):
        f = ps.gaussian_pdf(0.5)
        val = hn.capacity_bound(1.0, f)
        expected = ga.g_function(1.5) - math.log(math.exp(-ga.g_function(1.0)) + math.e / 2)
        assert val == pytest.approx(expected, abs=1e-9)

    def test_monotone(self):
        assert hn.check_capacity_monotone([0.5, 1.0, 2.0], 0.5).passed

    def test_domain(self):
        with pytest.raises(DomainError):
            hn.capacity_bound(-1.0, ps.gaussian_pdf(0.5))


class TestBackgroundEpis:
    def test_beam_splitter_epi(self):
        rep = hn.check_beam_splitter_epi(fk.thermal(1.0, 30), fk.thermal(0.5, 30), 0.5, "tt")
        assert rep.passed and rep.margin >= 0

    def test_beam_splitter_identity_equality(self):
        rep = hn.check_beam_splitter_epi(fk.thermal(1.0, 30), fk.thermal(0.5, 30), 1.0, "id")
        assert abs(rep.margin) <= 1e-6

    def test_classical_epi_equality(self):
        rep = hn.check_classical_epi(
            ps.gaussian_pdf(0.6, spacing=0.12), ps.gaussian_pdf(0.9, spacing=0.12), "gg"
        )
        assert rep.passed and abs(rep.margin) <= 1e-3


class TestSerializationAndDeterminism:
    def test_payload_roundtrip(self):
        reports = [hn.make_report("a", {"x": 1}, 1, 0, 1, 0, {"runtime_ms": 3.5})]
        payload = hn.suite_payload(reports, seed=7)
        text = hn.payload_to_json(payload)
        back = json.loads(text)
        assert hn.CheckReport.from_dict(back["reports"][0]).check_name == "a"

    def test_canonical_strips_volatile(self):
        reports = [hn.make_report("a", {}, 1, 0, 1, 0, {"runtime_ms": 3.5, "cells": 7})]
        payload = hn.suite_payload(reports, seed=7)
        canon = hn.canonical_payload(payload)
        assert "created" not in canon
        assert canon["reports"][0]["diagnostics"] == {"cells": 7}

    def test_csv_header(self):
        reports = [hn.make_report("a", {"t": 0.5}, 1, 0, 1, 0)]
        text = hn.reports_to_csv(reports)
        assert text.splitlines()[0] == "check_name,t,lhs,rhs,margin,tolerance,pass"

    def test_check_is_bit_reproducible(self):
        a = hn.check_convolution_oracle(0.2, cutoff=30)
        b = hn.check_convolution_oracle(0.2, cutoff=30)
        assert a.lhs == b.lhs and a.margin == b.margin

    def test_suite_entries_have_unique_names(self):
        names = [name for name, _ in hn.default_suite(7)]
        assert len(names) == len(set(names))


class TestReportRevalidation:
    def test_reread_report_reproduces_pass_flag(self):
        reports = [
            hn.make_report("a", {"t": 0.1}, 1.0, 0.9, 0.1, 1e-9),
            hn.make_report("b", {}, 0.0, 1.0, -1.0, 1e-3),
        ]
        payload = json.loads(hn.payload_to_json(hn.suite_payload(reports, seed=1)))
        for rep in payload["reports"]:
            back = hn.CheckReport.from_dict(rep)
            assert back.passed == (back.margin >= -back.tolerance)
            assert back.passed == rep["pass"]
