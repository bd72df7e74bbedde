import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

from epi_lab import channels as ch
from epi_lab import cli
from epi_lab import fock as fk
from epi_lab import gaussian as ga
from epi_lab import harness as hn
from epi_lab import measures as ms
from epi_lab import phase_space as ps
from epi_lab.errors import DomainError
from oracles import untagged


def gauss_noise(t):
    return lambda: ps.gaussian_pdf(t)


def small_f1():
    return hn.Instance(
        {"family": "F1", "instance": "tmsv-small", "t": 0.3},
        lambda: fk.two_mode_squeezed_vacuum(0.4, 24), gauss_noise(0.3),
        gaussian=lambda: (ga.tmsv_state(0.4), 0.3),
    )


def small_register():
    return hn.Instance(
        {"family": "F2", "labels": 2, "instance": "small"},
        lambda: ch.Register([0.5, 0.5], [fk.fock(1, 30), fk.thermal(0.4, 30)]),
        lambda: ch.Register(
            [0.5, 0.5], [ps.gaussian_pdf(0.3, spacing=0.1),
                         ps.gaussian_pdf(0.5, center=(0.4, -0.2), spacing=0.1)]),
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

    def test_fock_path_records_cutoff(self):
        one_mode = hn.Instance({"family": "trivial-M", "instance": "cq"},
                               lambda: fk.thermal(0.8, 40), gauss_noise(0.4))
        for inst, cutoff in ((one_mode, 40), (small_register(), 30)):
            (rep,) = hn.check_conditional_epi(inst)
            assert rep.params["path"] == "fock"
            assert rep.diagnostics["cutoff"] == cutoff

    def test_trivial_memory(self):
        inst = hn.Instance({"family": "trivial-M", "instance": "thermal", "t": 0.4},
                           lambda: fk.thermal(0.8, 40), gauss_noise(0.4),
                           gaussian=lambda: (ga.thermal_state(0.8), 0.4))
        reports = hn.check_conditional_epi(inst)
        assert all(r.passed for r in reports)


class TestExactChannelRouting:
    def test_gaussian_noise_runs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the displacement quadrature ran")

        monkeypatch.setattr(ch, "_noise_outputs", refuse)
        for inst in (small_f1(), small_register()):
            reports = hn.check_conditional_epi(inst)
            assert all(r.passed for r in reports)
            (fock_rep,) = [r for r in reports if r.params.get("path") == "fock"]
            assert fock_rep.diagnostics["channel"] == "exact"
        (stam,) = hn.check_stam(small_register())
        assert stam.diagnostics["channel"] == "exact"
        out = ms.heat_flow(fk.thermal(0.8, 60), 0.2)
        assert fk.von_neumann_entropy(out) == pytest.approx(ga.g_function(1.0), abs=1e-8)

    def test_gaussian_densities_run_no_convolution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid convolution ran")

        monkeypatch.setattr(ps, "classical_convolution", refuse)
        entries = dict(hn.default_suite(7))
        for name in ("fisher-isoperimetric[classical]", "isoperimetric[classical]", "scaling[register]",
                     "debruijn-regularity[register]", "stam[register]"):
            assert all(r.passed for r in entries[name]()), name
        with pytest.raises(AssertionError, match="grid convolution ran"):
            ms.heat_flow(untagged(ps.gaussian_pdf(0.5)), 0.1)

    def test_file_noise_runs_quadrature(self, tmp_path):
        f = ps.gaussian_pdf(0.3)
        path = tmp_path / "noise.gridpdf"
        ps.save_gridpdf(f, path)
        inst = hn.Instance({"family": "trivial-M", "instance": "cq"}, lambda: fk.thermal(0.8, 30),
                           lambda: ps.load_gridpdf(path))
        (rep,) = hn.check_conditional_epi(inst)
        assert rep.diagnostics["channel"] == "quadrature"

    def test_convolution_oracle_records_the_channel(self):
        rep = hn.check_convolution_oracle(0.2, cutoff=30)
        assert rep.passed and rep.diagnostics["channel"] == "exact"


class TestDiagonalStorageRouting:
    def test_tmsv_entries_never_densify(self, monkeypatch):
        def refuse(rho):
            raise AssertionError("a state was converted to its dense matrix")

        monkeypatch.setattr(fk, "densify", refuse)
        entries = dict(hn.default_suite(7))
        for name in ("oracle-crossrep[tmsv]", "cond-epi[f1,t=0.2]", "cond-epi[f1,t=0.5]",
                     "cond-epi[f1,t=1.0]"):
            assert all(r.passed for r in entries[name]()), name
        tight = entries["cond-epi[tightness,k=2]"]()
        assert len(tight) == 6 and all(r.passed and r.margin >= 0 for r in tight)
        assert {r.diagnostics["cutoff"] for r in tight if r.params.get("path") == "fock"} == {80, 104}
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.run(["stam", "--state", "tmsv:0.66"]) == 0
        assert json.loads(out.getvalue())["reports"][0]["pass"]

    def test_crossrep_tmsv_stays_small(self):
        # the dense cutoff-75 TMSV alone is 506 MB
        tracemalloc.start()
        try:
            rep = hn.check_crossrep("tmsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.diagnostics["storage"] == "diagonals"
        assert peak < 64 * 2 ** 20


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
        rep = hn.check_scaling(ps.gaussian_pdf(1.0), [5.0, 20.0], 1.0, "gauss-1")
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
        rep = hn.check_qou_decay(fk.fock(1, 25), 1.0, 0.5, [0.5, 1.0])
        assert rep.passed and rep.params["path"] == "fock" and rep.params["bipartite"] is False

    def test_gaussian_path(self):
        rep = hn.check_qou_decay(ga.tmsv_state(0.8), 1.0, 0.5, [0.5, 1.0])
        assert rep.passed and rep.margin >= 0
        assert rep.params["path"] == "gaussian" and rep.params["bipartite"] is True

    def test_fixed_point_and_semigroup(self):
        assert hn.check_qou_fixed_point(1.0, 0.5, 0.7).passed
        assert hn.check_qou_semigroup(fk.fock(1, 20), 1.0, 0.5, 0.2, 0.5).passed

    def test_checks_run_no_superoperator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a superoperator or the dense unitary ran")

        for name in ("qou_superoperator", "beam_splitter_unitary", "apply_one_mode_kernel"):
            monkeypatch.setattr(ch, name, refuse)
        assert hn.check_qou_decay(fk.fock(1, 25), 1.0, 0.5, [0.5, 1.0]).passed
        assert hn.check_qou_fixed_point(1.0, 0.5, 0.7).passed
        assert hn.check_qou_semigroup(fk.fock(1, 20), 1.0, 0.5, 0.2, 0.5).passed
        assert hn.check_qou_gaussian_fock_agreement(0.5, 0.8, 1.0, 0.5).passed

    def test_tail_mass_covers_the_outputs(self):
        # the input's top level is empty; the evolved states' are not
        state, t_list = fk.random_mixed(3, 20, 7, support=14), [0.5, 1.0, 2.0]
        rep = hn.check_qou_decay(state, 1.0, 0.5, t_list)
        tails = [ch.qou_channel_fock(state, t, 1.0, 0.5).tail_mass() for t in t_list]
        assert state.tail_mass() == 0.0 < max(tails)
        assert rep.diagnostics["tail_mass"] == max(tails)


class TestDeBruijnConsistency:
    def test_an_error_in_the_gain_fails(self, monkeypatch):
        reg = hn._corpus_register_epi().r()
        assert hn.check_debruijn_consistency(reg, 0.5).passed
        # the Fisher side never calls entropy_gain, so an error there shows as a gap
        gain = ms.entropy_gain
        monkeypatch.setattr(ms, "entropy_gain", lambda x, t: gain(x, t) + 2e-4)
        rep = hn.check_debruijn_consistency(reg, 0.5)
        assert not rep.passed and rep.diagnostics["gap"] > 1e-4


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
