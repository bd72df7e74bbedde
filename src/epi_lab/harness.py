"""Executable verification of the theorem-level statements: entropy power
inequalities (classical, beam splitter, convolution, conditional), the Stam
inequality, universal scaling, the saturating family, isoperimetric and
concavity inequalities, the capacity bound, and damping-semigroup decay.

Every check produces a CheckReport; the built-in suite bundles a fixed corpus
of instances. Margins are oriented so that >= 0 means the statement holds
outright; a report passes iff margin >= -tolerance.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import channels as ch
from . import fock as fk
from . import gaussian as ga
from . import measures as ms
from . import phase_space as ps
from .errors import DomainError

GAUSS_TOL = 1e-9
FOCK_TOL = 1e-3
PATH_AGREEMENT_TOL = 1e-4


@dataclass
class CheckReport:
    """Result of one inequality or identity verification."""

    check_name: str
    params: dict
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        return cls(
            check_name=d["check_name"],
            params=d["params"],
            lhs=d["lhs"],
            rhs=d["rhs"],
            margin=d["margin"],
            tolerance=d["tolerance"],
            passed=d["pass"],
            diagnostics=d.get("diagnostics", {}),
        )


def make_report(name, params, lhs, rhs, margin, tolerance, diagnostics=None) -> CheckReport:
    tolerance = float(tolerance)
    margin = float(margin)
    return CheckReport(
        check_name=name,
        params={k: _plain(v) for k, v in params.items()},
        lhs=float(lhs),
        rhs=float(rhs),
        margin=margin,
        tolerance=tolerance,
        passed=bool(margin >= -tolerance),
        diagnostics={k: _plain(v) for k, v in (diagnostics or {}).items()},
    )


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_plain(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


# ---------------------------------------------------------------------------
# instances


@dataclass
class Instance:
    """An input A with memory M and noise R conditionally independent of A
    given M: the object of the conditional EPI, its linear form and the
    conditional Stam inequality.

    The Fock side is built on demand. `fock()` returns the state, whose
    second mode (if any) is M, or with `probs` set the per-label states of a
    classical register M. `noise(spacing)` returns the noise densities, one
    per label or one shared by the state; `spacing=None` keeps the grid of the
    noise spec. `gaussian()` builds the matched Gaussian input and `noise_t`
    is its isotropic noise variance; both are None without a Gaussian twin.
    `params` identify the instance in reports, and `fock_diagnostics` is added
    to the diagnostics of its Fock path.
    """

    params: dict
    fock: Callable
    noise: Callable
    probs: tuple = None
    gaussian: Callable = None
    noise_t: float = None
    fock_diagnostics: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.params["instance"]

    def paths(self) -> tuple:
        return ("gaussian", "fock") if self.gaussian else ("fock",)

    def pair(self, spacing: float = None):
        """The Fock-side joint state: a register, or a classical-quantum state."""
        noise = self.noise(spacing)
        if self.probs is None:
            return ch.CQState(noise[0], self.fock())
        return ch.RegisterState(self.probs, self.fock(), noise)

    def _channel(self, path):
        """(A with its memory, its channel output, S(R|M), diagnostics)."""
        if path == "gaussian":
            a = self.gaussian()
            return a, ms.heat_flow_A(a, [self.noise_t])[0], 1.0 + math.log(self.noise_t), {}
        pair = self.pair()
        out = ch.extended_channel(pair)
        if self.probs is None:
            a = pair.conditionals
            s_r, tail = ps.shannon_entropy(pair.grid), max(a.tail_mass(), out.tail_mass())
        else:
            a, s_r, tail = pair, ms.cq_conditional_entropy_R_given_M(pair), out.tail_mass()
        return a, out, s_r, {"tail_mass": tail, **self.fock_diagnostics}

    def entropies(self, path: str):
        """(S(A|M), S(R|M), S(C|M), diagnostics) on one path."""
        a, out, s_r, diag = self._channel(path)
        return ms.entropy_A_given_M(a), s_r, ms.entropy_A_given_M(out), diag

    def fishers(self, path: str, h0: float = 1e-2):
        """(J(A|M), J(R|M), J(C|M), diagnostics) on one path; J(R|M) runs on
        a noise grid fine enough for the Fisher step."""
        a, out, _, diag = self._channel(path)
        fine = ms.fisher_spacing(h0)
        if self.probs is None:
            # independent noise: J(R|M) = J(R), whatever the quantum side
            r = ch.CQState(self.noise(fine)[0], fk.vacuum(4))
        else:
            r = self.pair(fine)
        return ms.fisher_A_given_M(a, h0), ms.fisher_R_given_M(r, h0), ms.fisher_A_given_M(out, h0), diag


PATH_TOL = {"gaussian": GAUSS_TOL, "fock": FOCK_TOL}


# ---------------------------------------------------------------------------
# conditional entropy power inequality


def _epi_report(name, params, s_a, s_r, s_c, tol, diagnostics=None):
    lhs = math.exp(s_c)
    rhs = math.exp(s_a) + math.exp(s_r)
    diag = dict(diagnostics or {})
    diag.update({"S_A_given_M": s_a, "S_R_given_M": s_r, "S_C_given_M": s_c})
    return make_report(name, params, lhs, rhs, lhs - rhs, tol, diag)


def check_conditional_epi(instance: Instance) -> list:
    """Conditional entropy power inequality exp S(C|M) >= exp S(A|M) + exp S(R|M).

    For instances with a Gaussian representation both evaluation paths run:
    the closed-form path must hold outright (1e-9) and the Fock path must
    agree with it within 1e-4.
    """
    reports, s_c = [], {}
    for path in instance.paths():
        s_a, s_r, s_c[path], diag = instance.entropies(path)
        reports.append(_epi_report("cond-epi", {**instance.params, "path": path},
                                   s_a, s_r, s_c[path], PATH_TOL[path], diag))
    if len(s_c) == 2:
        fc, gc = s_c["fock"], s_c["gaussian"]
        reports.append(make_report("cond-epi-path-agreement", instance.params, fc, gc,
                                   PATH_AGREEMENT_TOL - abs(fc - gc), 0.0,
                                   {"tail_mass": diag["tail_mass"]}))
    return reports


def check_linear_epi(instance: Instance, lam) -> CheckReport:
    """Linear form S(C|M) >= lam S(A|M) + (1-lam) S(R|M) + binary entropy of lam,
    on the Gaussian path when the instance has one.

    lam="optimal" picks the maximizer exp S(A|M) / (exp S(A|M) + exp S(R|M)),
    where the linear margin equals the log form of the exponential inequality.
    """
    path = instance.paths()[0]
    s_a, s_r, s_c, diag = instance.entropies(path)
    if lam == "optimal":
        lam_val = math.exp(s_a) / (math.exp(s_a) + math.exp(s_r))
    else:
        lam_val = float(lam)
    if not 0.0 <= lam_val <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam_val}")
    h = 0.0
    for x in (lam_val, 1.0 - lam_val):
        if x > 0.0:
            h -= x * math.log(x)
    lhs = s_c
    rhs = lam_val * s_a + (1.0 - lam_val) * s_r + h
    diag.update({"lambda": lam_val, "S_A_given_M": s_a, "S_R_given_M": s_r, "S_C_given_M": s_c})
    params = {"instance": instance.name, "lambda": lam if lam == "optimal" else lam_val, "path": path}
    return make_report("linear-epi", params, lhs, rhs, lhs - rhs, PATH_TOL[path], diag)


# ---------------------------------------------------------------------------
# Stam inequality


def check_stam(instance: Instance, h0: float = 1e-2) -> list:
    """Reciprocal-form Stam inequality 1/J(C|M) >= 1/J(A|M) + 1/J(R|M).

    Fisher informations come from the forward-difference derivative of the
    conditional entropy under heat flow, on the Gaussian path when the
    instance has one; the tolerance budgets both the relative slack and three
    times the propagated estimate uncertainties.
    """
    j_a, j_r, j_c, diag = instance.fishers(instance.paths()[0], h0)
    lhs = 1.0 / j_c.value
    rhs = 1.0 / j_a.value + 1.0 / j_r.value
    sigma = (
        j_c.uncertainty / j_c.value ** 2
        + j_a.uncertainty / j_a.value ** 2
        + j_r.uncertainty / j_r.value ** 2
    )
    tol = max(1e-2 * rhs, 3.0 * sigma)
    diag.update(
        {
            "J_C": j_c.value, "J_A": j_a.value, "J_R": j_r.value,
            "fisher_uncertainties": [j_c.uncertainty, j_a.uncertainty, j_r.uncertainty],
        }
    )
    return [make_report("stam", {"instance": instance.name}, lhs, rhs, lhs - rhs, tol, diag)]


def stam_matched_equality_report(stam_report: CheckReport) -> CheckReport:
    """Matched Gaussian instances approach Stam equality; the relative gap
    must stay below 2e-2."""
    rel = abs(stam_report.margin) / stam_report.rhs
    return make_report(
        "stam-matched-equality", dict(stam_report.params), rel, 2e-2, 2e-2 - rel, 0.0,
        {"stam_margin": stam_report.margin, "stam_rhs": stam_report.rhs},
    )


# ---------------------------------------------------------------------------
# universal scaling


def check_scaling(state, t_list, sigma_sq: float, name: str) -> CheckReport:
    """|S(R|M)(t) - log t - 1| must fall below log(1 + sigma^2/t) + 0.02 at the
    largest time and decrease along t_list."""
    devs = []
    for t in t_list:
        s = ms.cq_conditional_entropy_R_given_M(ms.heat_R(state, t))
        devs.append(abs(s - math.log(t) - 1.0))
    bound = math.log1p(sigma_sq / t_list[-1]) + 0.02
    margins = [devs[i] - devs[i + 1] for i in range(len(devs) - 1)]
    margin = min([bound - devs[-1]] + margins)
    return make_report(
        "scaling", {"instance": name, "t_list": list(t_list)},
        devs[-1], bound, margin, 0.0,
        {"deviations": devs, "sigma_sq": sigma_sq},
    )


# ---------------------------------------------------------------------------
# saturating family


def check_tightness(a: float, b: float, k_list) -> CheckReport:
    """The gap |exp S(C|M) - (e^a + e^b)| must shrink along k_list and close
    below 0.01 at the final k."""
    target = math.exp(a) + math.exp(b)
    gaps = []
    for k in k_list:
        _, _, rho_cm = ga.tightness_family(k, a, b)
        s_c = ga.gaussian_conditional_entropy(rho_cm, "A", "M")
        gaps.append(abs(math.exp(s_c) - target))
    margins = [gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1)]
    margin = min([0.01 - gaps[-1]] + margins)
    return make_report(
        "tightness", {"a": a, "b": b, "k_list": list(k_list)},
        gaps[-1], 0.01, margin, 0.0, {"gaps": gaps, "target": target},
    )


def check_tightness_noise_entropy(b: float) -> CheckReport:
    """The sampled noise density must reproduce S(R|M) = b to 1e-9."""
    f = ps.gaussian_pdf(math.exp(b - 1.0))
    dev = abs(ps.shannon_entropy(f) - b)
    return make_report(
        "tightness-noise-entropy", {"b": b}, dev, 1e-9, 1e-9 - dev, 0.0,
        {"spacing": f.spacing, "grid": f.size},
    )


def check_tightness_epi(a: float, b: float, k: float) -> CheckReport:
    """Each finite-k member of the family itself satisfies the conditional EPI."""
    rho_am, f, rho_cm = ga.tightness_family(k, a, b)
    s_a = ga.gaussian_conditional_entropy(rho_am, "A", "M")
    s_r = ps.shannon_entropy(f)
    s_c = ga.gaussian_conditional_entropy(rho_cm, "A", "M")
    return _epi_report(
        "tightness-epi", {"a": a, "b": b, "k": k, "path": "gaussian"}, s_a, s_r, s_c, GAUSS_TOL
    )


# ---------------------------------------------------------------------------
# isoperimetric inequalities


def check_isoperimetric(instance, name: str, h0: float = 1e-2) -> CheckReport:
    """(1/n) J(X|M) exp S(X|M) >= e, with a 1e-2 relative slack, where X is
    the noise R of a register or classical-quantum state, and A otherwise."""
    if isinstance(instance, (ch.CQState, ch.RegisterState)):
        j = ms.fisher_R_given_M(instance, h0=h0)
        s = ms.cq_conditional_entropy_R_given_M(instance)
        diag = {}
    else:
        j = ms.fisher_A_given_M(instance, h0=h0)
        s = ms.entropy_A_given_M(instance)
        diag = {} if isinstance(instance, ga.GaussianState) else {"tail_mass": instance.tail_mass()}
    lhs = j.value * math.exp(s)
    diag.update({"J": j.value, "S": s, "fisher_uncertainty": j.uncertainty,
                 "ratio_to_e": lhs / math.e})
    return make_report(
        "isoperimetric", {"instance": name}, lhs, math.e, lhs - math.e, 1e-2 * math.e, diag
    )


def check_isoperimetric_saturation(instance, name: str, h0: float = 1e-2) -> CheckReport:
    """Classical Gaussian instances saturate J exp(S) = e within 1e-2."""
    rep = check_isoperimetric(instance, name, h0=h0)
    gap = abs(rep.lhs - math.e)
    return make_report(
        "isoperimetric-saturation", {"instance": name}, gap, 1e-2, 1e-2 - gap, 0.0,
        rep.diagnostics,
    )


def check_isoperimetric_ratio_monotone(nus) -> CheckReport:
    """For thermal states the ratio J exp(S) / e decreases towards 1."""
    ratios = []
    for nu in nus:
        j = ms.fisher_A_given_M(ga.thermal_state(nu - 0.5))
        s = ga.g_function(nu - 0.5)
        ratios.append(j.value * math.exp(s) / math.e)
    margins = [ratios[i] - ratios[i + 1] for i in range(len(ratios) - 1)]
    margin = min(margins + [ratios[-1] - 1.0])
    return make_report(
        "isoperimetric-ratio-monotone", {"nu_list": list(nus)}, ratios[-1], 1.0, margin,
        GAUSS_TOL, {"ratios": ratios},
    )


def check_fisher_isoperimetric(instance, name: str, h: float = 0.05, h0: float = 1e-2) -> CheckReport:
    """d/dt [1/J(t)] >= 1 at t = 0 along the heat flow: on the noise R of a
    classical-quantum state, and on A otherwise."""

    def inv_j(t):
        if isinstance(instance, ch.CQState):
            est = ms.fisher_R_given_M(ms.heat_R(instance, t) if t else instance, h0=h0)
        else:
            est = ms.fisher_A_given_M(ms.heat_flow_A(instance, [t])[0] if t else instance, h0=h0)
        return 1.0 / est.value, est.uncertainty / est.value ** 2

    f0, u0 = inv_j(0.0)
    f1, u1 = inv_j(h)
    f2, u2 = inv_j(h / 2)
    d1 = (f1 - f0) / h
    d2 = (f2 - f0) / (h / 2)
    val = 2 * d2 - d1
    uncertainty = abs(val - d2) + (u0 + max(u1, u2)) / (h / 2)
    tol = 3.0 * uncertainty
    return make_report(
        "fisher-isoperimetric", {"instance": name, "h": h}, val, 1.0, val - 1.0, tol,
        {"inv_J": [f0, f2, f1], "uncertainty": uncertainty},
    )


# ---------------------------------------------------------------------------
# concavity of the entropy power along heat flow


def check_concavity_entropy_power(instance, t_grid, name: str) -> CheckReport:
    """Second difference quotient of exp S(A|M)(t) must stay below 1e-3."""
    t_grid = list(t_grid)
    h = t_grid[1] - t_grid[0]
    outs = ms.heat_flow_A(instance, t_grid)
    powers = [math.exp(ms.entropy_A_given_M(o)) for o in outs]
    diag = {} if isinstance(instance, ga.GaussianState) else {"tail_mass": outs[-1].tail_mass()}
    quotients = [
        (powers[i + 1] - 2 * powers[i] + powers[i - 1]) / h ** 2 for i in range(1, len(powers) - 1)
    ]
    worst = max(quotients)
    diag.update({"powers": powers, "h": h})
    return make_report(
        "concavity", {"instance": name, "t_grid": t_grid}, worst, 0.0, -worst, 1e-3, diag
    )


# ---------------------------------------------------------------------------
# integral Fisher regularity


def check_debruijn_regularity(state, t_list, name: str) -> CheckReport:
    """Delta(t) must be nonnegative, nondecreasing, and midpoint-concave."""
    deltas = [ms.integral_fisher_R_given_M(state, t) for t in t_list]
    slack = 1e-6
    margins = [deltas[0] + slack]
    margins += [deltas[i + 1] - deltas[i] + slack for i in range(len(deltas) - 1)]
    margins += [
        deltas[i] - 0.5 * (deltas[i - 1] + deltas[i + 1]) + slack
        for i in range(1, len(deltas) - 1)
    ]
    margin = min(margins)
    return make_report(
        "debruijn-regularity", {"instance": name, "t_list": list(t_list)},
        min(deltas), 0.0, margin, 0.0, {"delta": deltas, "slack": slack},
    )


def check_debruijn_consistency(reg: ch.RegisterState, t: float) -> CheckReport:
    """The chain-rule entropy difference must match the mutual-information
    form evaluated label by label."""
    lhs = ms.integral_fisher_R_given_M(reg, t)
    rhs = sum(
        p * (ps.shannon_entropy(ps.classical_heat_flow(f, t)) - ps.shannon_entropy(f))
        for p, f in zip(reg.probs, reg.pdfs)
    )
    gap = abs(lhs - rhs)
    return make_report(
        "debruijn-consistency", {"t": t}, lhs, rhs, 1e-4 - gap, 0.0, {"gap": gap}
    )


# ---------------------------------------------------------------------------
# capacity bound


def capacity_bound(E: float, f: ps.GridPdf) -> float:
    """Entanglement-assisted capacity bound g(E + E0) - log(e^{-g(E)} + e^{S0})
    with E0 = energy(f)/2 and S0 the noise entropy (single mode)."""
    if E <= 0:
        raise DomainError("energy budget must be positive")
    e0 = ps.energy(f) / 2.0
    s0 = ps.shannon_entropy(f)
    return ga.g_function(E + e0) - math.log(math.exp(-ga.g_function(E)) + math.exp(s0))


def check_capacity_value(E: float, noise_t: float, expected: float) -> CheckReport:
    f = ps.gaussian_pdf(noise_t)
    val = capacity_bound(E, f)
    dev = abs(val - expected)
    return make_report(
        "capacity-value", {"E": E, "noise_t": noise_t}, val, expected, 1e-6 - dev, 0.0,
        {"E0": ps.energy(f) / 2.0, "S0": ps.shannon_entropy(f)},
    )


def check_capacity_monotone(E_list, noise_t: float) -> CheckReport:
    f = ps.gaussian_pdf(noise_t)
    vals = [capacity_bound(E, f) for E in E_list]
    margins = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return make_report(
        "capacity-monotone", {"E_list": list(E_list), "noise_t": noise_t},
        vals[-1], vals[0], min(margins), GAUSS_TOL, {"values": vals},
    )


# ---------------------------------------------------------------------------
# damping semigroup decay


def check_qou_decay(state, mu: float, lam: float, t_list, bipartite: bool = False) -> CheckReport:
    """Relative entropy against the fixed-point product must decay at least
    exponentially with rate mu^2 - lam^2."""
    rate = mu ** 2 - lam ** 2
    if bipartite:
        d0 = ga.relative_entropy_to_thermal_product(state, mu, lam)
        ds = [
            ga.relative_entropy_to_thermal_product(
                ga.gaussian_qou_evolution(state, t, mu, lam), mu, lam
            )
            for t in t_list
        ]
        tol, diag, path = GAUSS_TOL, {}, "gaussian"
    else:
        omega = ch.qou_environment(mu, lam, state.mode_dims[0])
        omega = fk.FockState(omega.mode_dims, omega.matrix, state.mode_labels)
        d0 = fk.relative_entropy(state, omega)
        ds = []
        for t in t_list:
            out = ch.qou_channel_fock(state, t, mu, lam)
            ds.append(fk.relative_entropy(out, omega))
        tol, diag, path = 1e-4, {"tail_mass": state.tail_mass()}, "fock"
    margins = [math.exp(-rate * t) * d0 - d for t, d in zip(t_list, ds)]
    diag.update({"D0": d0, "D_t": ds, "rate": rate})
    return make_report(
        "qou-decay",
        {"mu": mu, "lambda": lam, "t_list": list(t_list), "path": path,
         "bipartite": bool(bipartite)},
        min(ds), d0, min(margins), tol, diag,
    )


def check_qou_fixed_point(mu: float, lam: float, t: float, cutoff: int = None) -> CheckReport:
    omega = ch.qou_environment(mu, lam, cutoff)
    omega = fk.FockState(omega.mode_dims, omega.matrix, ("A",))
    dist = fk.trace_norm_distance(ch.qou_channel_fock(omega, t, mu, lam), omega)
    return make_report(
        "qou-fixed-point", {"mu": mu, "lambda": lam, "t": t}, dist, 1e-5, 1e-5 - dist, 0.0,
        {"cutoff": omega.mode_dims[0], "tail_mass": omega.tail_mass()},
    )


def check_qou_semigroup(state: fk.FockState, mu: float, lam: float, s: float, t: float) -> CheckReport:
    two_step = ch.qou_channel_fock(ch.qou_channel_fock(state, s, mu, lam), t, mu, lam)
    one_step = ch.qou_channel_fock(state, s + t, mu, lam)
    dist = fk.trace_norm_distance(two_step, one_step)
    return make_report(
        "qou-semigroup", {"mu": mu, "lambda": lam, "s": s, "t": t}, dist, 1e-5, 1e-5 - dist,
        0.0, {"tail_mass": one_step.tail_mass()},
    )


def check_qou_gaussian_fock_agreement(r: float, t: float, mu: float, lam: float, cutoff: int = 20) -> CheckReport:
    """Two-mode damping evolution: Fock moments must track the Gaussian rule."""
    tm = fk.two_mode_squeezed_vacuum(r, cutoff)
    out = ch.qou_channel_fock(tm, t, mu, lam, target="A")
    mean_f, cov_f = fk.moments_of_state(out)
    gs_out = ga.gaussian_qou_evolution(ga.tmsv_state(r), t, mu, lam, "A")
    dev = max(np.abs(cov_f - gs_out.cov).max(), np.abs(mean_f - gs_out.mean).max())
    return make_report(
        "qou-gaussian-fock-agreement", {"r": r, "t": t, "mu": mu, "lambda": lam},
        dev, 1e-4, 1e-4 - dev, 0.0, {"tail_mass": out.tail_mass(), "cutoff": cutoff},
    )


# ---------------------------------------------------------------------------
# background entropy power inequalities


def check_beam_splitter_epi(rho_a: fk.FockState, rho_b: fk.FockState, lam: float, name: str) -> CheckReport:
    """exp S(C) >= lam exp S(A) + (1 - lam) exp S(B) for product inputs."""
    joint = fk.tensor_product(rho_a, rho_b, labels=("A", "B"))
    out = ch.beam_splitter(joint, lam)
    lhs = math.exp(fk.von_neumann_entropy(out))
    rhs = lam * math.exp(fk.von_neumann_entropy(rho_a)) + (1 - lam) * math.exp(
        fk.von_neumann_entropy(rho_b)
    )
    return make_report(
        "bs-epi", {"instance": name, "lambda": lam}, lhs, rhs, lhs - rhs, 1e-4,
        {"tail_mass": out.tail_mass()},
    )


def check_classical_epi(g: ps.GridPdf, f: ps.GridPdf, name: str) -> CheckReport:
    """exp S(g * f) >= exp S(g) + exp S(f) for the plain two-dimensional sum."""
    out = ps.classical_convolution(g, f)
    lhs = math.exp(ps.shannon_entropy(out))
    rhs = math.exp(ps.shannon_entropy(g)) + math.exp(ps.shannon_entropy(f))
    return make_report(
        "classical-epi", {"instance": name}, lhs, rhs, lhs - rhs, FOCK_TOL,
        {"spacing": g.spacing},
    )


# ---------------------------------------------------------------------------
# cross-representation and convolution oracles


def check_crossrep(name: str) -> CheckReport:
    """Fock-path entropies, conditional entropies and moments must match the
    Gaussian closed forms for the Gaussian constructor states."""
    if name == "vacuum":
        st = fk.vacuum(60)
        gs = ga.vacuum_state()
        devs = _crossrep_devs_single(st, gs)
    elif name == "thermal":
        st = fk.thermal(1.0, 60)
        gs = ga.thermal_state(1.0)
        devs = _crossrep_devs_single(st, gs)
    elif name == "coherent":
        alpha = 1.0 + 0.5j
        st = fk.coherent(alpha, 60)
        gs = ga.GaussianState(
            [math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag], 0.5 * np.eye(2), ("A",)
        )
        devs = _crossrep_devs_single(st, gs)
    elif name == "tmsv":
        # at the stated two-mode default (40) the k = 2 pair violates the
        # truncation budget; the cutoff is raised until tail <= 1e-8 and the
        # 1e-6 moment accuracy holds
        cutoff = 75
        st = fk.two_mode_squeezed_vacuum(fk.tmsv_r_for_k(2.0), cutoff)
        gs = ga.tightness_state(2.0)
        devs = {
            "entropy": abs(fk.von_neumann_entropy(st) - ga.gaussian_entropy(gs)),
            "conditional_entropy": abs(
                fk.conditional_entropy(st, "A", "M") - ga.gaussian_conditional_entropy(gs, "A", "M")
            ),
        }
        mean_f, cov_f = fk.moments_of_state(st)
        devs["moments"] = max(
            np.abs(mean_f - gs.mean).max(), np.abs(cov_f - gs.cov).max()
        )
    else:
        raise DomainError(f"unknown crossrep state {name!r}")
    worst = max(devs.values())
    st_tail = st.tail_mass()
    return make_report(
        "oracle-crossrep", {"state": name, "cutoff": st.mode_dims},
        worst, 1e-6, 1e-6 - worst, 0.0, {**devs, "tail_mass": st_tail},
    )


def _crossrep_devs_single(st: fk.FockState, gs: ga.GaussianState) -> dict:
    mean_f, cov_f = fk.moments_of_state(st)
    return {
        "entropy": abs(fk.von_neumann_entropy(st) - ga.gaussian_entropy(gs)),
        "moments": max(np.abs(mean_f - gs.mean).max(), np.abs(cov_f - gs.cov).max()),
    }


def check_convolution_oracle(t: float, cutoff: int = 60) -> CheckReport:
    """vacuum * f_{Z,t} must reproduce the thermal entropy g(t) within 1e-4."""
    start = time.perf_counter()
    f = ps.gaussian_pdf(t)
    out = ch.classical_noise_channel(f, fk.vacuum(cutoff))
    s = fk.von_neumann_entropy(out)
    dev = abs(s - ga.g_function(t))
    elapsed = (time.perf_counter() - start) * 1000.0
    return make_report(
        "conv-vacuum-entropy", {"t": t, "cutoff": cutoff}, s, ga.g_function(t), 1e-4 - dev, 0.0,
        {"tail_mass": out.tail_mass(), "grid": f.size, "spacing": f.spacing,
         "trace_drift": out.trace_drift, "channel_ms": elapsed},
    )


# ---------------------------------------------------------------------------
# the built-in suite


def _noises(noise_ts, centers, spacing):
    return tuple(ps.gaussian_pdf(t, center=c, spacing=spacing) for t, c in zip(noise_ts, centers))


def _register(label, probs, states, noise_ts, centers) -> Instance:
    """Register instance whose noise grids default to spacing 0.1; `states`
    builds the per-label states."""
    return Instance({"family": "F2", "labels": len(probs), "instance": label}, states,
                    lambda spacing=None: _noises(noise_ts, centers, spacing or 0.1), probs=probs)


def _gauss_noise(t):
    return lambda spacing=None: (ps.gaussian_pdf(t, spacing=spacing),)


def _f1(t: float) -> Instance:
    """Memory family 1: a two-mode squeezed pair (A, M) with noise
    independent of both."""
    return Instance({"family": "F1", "instance": "tmsv-0.66", "t": t},
                    lambda: fk.two_mode_squeezed_vacuum(0.66, 40), _gauss_noise(t),
                    gaussian=lambda: ga.tmsv_state(0.66), noise_t=t, fock_diagnostics={"cutoff": 40})


def _thermal(name: str, n: float, t: float) -> Instance:
    """One-mode thermal input without memory: the conditional statements
    reduce to their unconditioned forms."""
    return Instance({"family": "trivial-M", "instance": name, "t": t}, lambda: fk.thermal(n, 60),
                    _gauss_noise(t), gaussian=lambda: ga.thermal_state(n), noise_t=t)


def _corpus_register_epi(label: str = "register") -> Instance:
    return _register(label, [0.4, 0.6], lambda: [fk.fock(1, 48), fk.cat(2.0, 48)], [0.3, 0.7],
                     [(0.5, 0.0), (-0.4, 0.3)])


def default_suite(seed: int = 7):
    """The acceptance corpus: a list of (name, thunk) pairs; every thunk
    returns one or more CheckReports."""
    entries = []

    def add(name, fn):
        entries.append((name, fn))

    for state in ("vacuum", "thermal", "coherent", "tmsv"):
        add(f"oracle-crossrep[{state}]", lambda s=state: [check_crossrep(s)])
    for t in (0.2, 0.5, 1.0):
        add(f"conv-vacuum-entropy[t={t}]", lambda t=t: [check_convolution_oracle(t)])

    add("tightness[a=1,b=1]", lambda: [check_tightness(1.0, 1.0, [2, 4, 8, 16])])
    add("tightness[a=-1,b=0]", lambda: [check_tightness(-1.0, 0.0, [4, 8, 16])])
    add("tightness-noise-entropy", lambda: [check_tightness_noise_entropy(1.0)])
    for k in (2, 4, 8, 16):
        add(f"tightness-epi[k={k}]", lambda k=k: [check_tightness_epi(1.0, 1.0, k)])

    for t in (0.2, 0.5, 1.0):
        add(f"cond-epi[f1,t={t}]", lambda t=t: check_conditional_epi(_f1(t)))
    add("cond-epi[f2-register]", lambda: check_conditional_epi(_corpus_register_epi("fock1-cat2")))
    add("cond-epi[f2-register-mixed]", lambda: check_conditional_epi(_register(
        "thermal-fock2", [0.3, 0.7], lambda: [fk.thermal(0.5, 48), fk.fock(2, 48)], [0.5, 0.9],
        [(0.0, 0.0), (0.8, -0.6)])))
    add("cond-epi[trivial-M]", lambda: check_conditional_epi(_thermal("thermal-1", 1.0, 0.5)))

    for lam in (0.5, 0.9, "optimal"):
        add(f"linear-epi[lam={lam}]", lambda l=lam: [check_linear_epi(_f1(0.5), l)])
    add("linear-epi[register]", lambda: [check_linear_epi(_corpus_register_epi(), 0.5)])

    def stam_matched():
        reports = check_stam(_thermal("thermal-matched", 1.5, 0.5))
        return reports + [stam_matched_equality_report(reports[0])]

    add("stam[matched]", stam_matched)
    add("stam[register]", lambda: check_stam(_register(
        "register", [0.5, 0.5], lambda: [fk.thermal(0.8, 48), fk.fock(1, 48)], [0.4, 0.6],
        [(0.0, 0.0), (0.3, 0.2)])))

    add("scaling[independent]", lambda: [check_scaling(
        ch.CQState(ps.gaussian_pdf(1.0), fk.vacuum(4)), [5.0, 20.0, 50.0], 1.0, "gauss-1")])
    add("scaling[register]", lambda: [check_scaling(
        ch.RegisterState([0.5, 0.5], [fk.vacuum(8), fk.vacuum(8)],
                         _noises([0.5, 1.5], [(0.4, 0.0), (-0.6, 0.8)], 0.1)),
        [5.0, 20.0, 50.0], 1.5, "register-mixture")])

    for nu in (2.0, 5.0, 10.0):
        add(f"isoperimetric[thermal,nu={nu}]", lambda n=nu: [check_isoperimetric(
            ga.thermal_state(n - 0.5), f"thermal-nu-{n}")])
    add("isoperimetric-ratio-monotone", lambda: [check_isoperimetric_ratio_monotone([2.0, 5.0, 10.0])])
    add("isoperimetric[classical]", lambda: [
        check_isoperimetric(ch.CQState(ps.gaussian_pdf(0.8, spacing=0.0125), fk.vacuum(4)),
                            "classical-gauss-0.8"),
        check_isoperimetric_saturation(
            ch.CQState(ps.gaussian_pdf(0.8, spacing=0.0125), fk.vacuum(4)), "classical-gauss-0.8"),
    ])
    add("isoperimetric[tmsv]", lambda: [check_isoperimetric(
        ga.tmsv_state(0.66), "tmsv-conditional")])
    add("isoperimetric[fock-thermal]", lambda: [check_isoperimetric(fk.thermal(1.0, 60), "fock-thermal-1")])
    add("fisher-isoperimetric[thermal]", lambda: [check_fisher_isoperimetric(
        ga.thermal_state(1.5), "thermal-nu-2")])
    add("fisher-isoperimetric[classical]", lambda: [check_fisher_isoperimetric(
        ch.CQState(ps.gaussian_pdf(0.8, spacing=0.0125), fk.vacuum(4)), "classical-gauss-0.8")])

    t_grid = [round(0.05 * i, 10) for i in range(11)]
    add("concavity[gauss-thermal]", lambda: [check_concavity_entropy_power(
        ga.thermal_state(1.5), t_grid, "gauss-thermal-2")])
    add("concavity[gauss-tmsv]", lambda: [check_concavity_entropy_power(
        ga.tmsv_state(0.66), t_grid, "gauss-tmsv")])
    add("concavity[fock-vacuum]", lambda: [check_concavity_entropy_power(
        fk.vacuum(40), t_grid, "fock-vacuum")])
    add("concavity[register]", lambda: [check_concavity_entropy_power(ch.RegisterState(
        [0.4, 0.6], [fk.fock(1, 48), fk.cat(2.0, 48)]), t_grid, "register")])

    reg_t = [round(0.1 * i, 10) for i in range(1, 21)]
    add("debruijn-regularity[register]", lambda: [check_debruijn_regularity(
        _corpus_register_epi().pair(), reg_t, "register")])
    add("debruijn-regularity[independent]", lambda: [check_debruijn_regularity(
        ch.CQState(ps.gaussian_pdf(0.7), fk.thermal(0.5, 24)), reg_t, "gauss-0.7")])
    add("debruijn-consistency", lambda: [check_debruijn_consistency(_corpus_register_epi().pair(), 0.5)])

    add("qou-decay[fock-1]", lambda: [check_qou_decay(
        fk.fock(1, 30), 1.0, 0.5, [0.5, 1.0, 2.0], bipartite=False)])
    add("qou-decay[tmsv-k2]", lambda: [check_qou_decay(
        ga.tightness_state(2.0), 1.0, 0.5, [0.5, 1.0, 2.0], bipartite=True)])
    # support kept well inside the cutoff so the thermal reference has no
    # numerically-null levels under the state
    add("qou-decay[random]", lambda: [check_qou_decay(
        fk.random_mixed(3, 20, seed, support=14), 1.0, 0.5, [0.5, 1.0, 2.0], bipartite=False)])
    add("qou-fixed-point", lambda: [check_qou_fixed_point(1.0, 0.5, 1.0)])
    add("qou-semigroup", lambda: [check_qou_semigroup(fk.fock(1, 25), 1.0, 0.5, 0.3, 0.7)])
    add("qou-gaussian-fock-agreement", lambda: [check_qou_gaussian_fock_agreement(0.5, 0.8, 1.0, 0.5)])

    expected_capacity = ga.g_function(1.5) - math.log(math.exp(-ga.g_function(1.0)) + math.e / 2.0)
    add("capacity-value", lambda: [check_capacity_value(1.0, 0.5, expected_capacity)])
    add("capacity-monotone", lambda: [check_capacity_monotone([0.5, 1.0, 2.0], 0.5)])

    add("bs-epi[thermal-thermal]", lambda: [check_beam_splitter_epi(
        fk.thermal(1.0, 40), fk.thermal(0.5, 40), 0.5, "thermal1-thermal0.5")])
    add("bs-epi[identity]", lambda: [check_beam_splitter_epi(
        fk.thermal(1.0, 30), fk.thermal(0.5, 30), 1.0, "lambda-1")])
    add("bs-epi[fock-vacuum]", lambda: [check_beam_splitter_epi(
        fk.fock(1, 30), fk.vacuum(30), 0.7, "fock1-vacuum")])

    add("classical-epi[gauss-gauss]", lambda: [check_classical_epi(
        ps.gaussian_pdf(0.6, spacing=0.12), ps.gaussian_pdf(0.9, spacing=0.12), "gauss0.6-gauss0.9")])
    add("classical-epi[gauss-uniform]", lambda: [check_classical_epi(
        ps.gaussian_pdf(0.4, spacing=0.05), ps.uniform_square_pdf(3.0, 0.05), "gauss0.4-uniform3")])
    add("classical-epi[near-delta]", lambda: [check_classical_epi(
        ps.delta_pdf(0.05), ps.gaussian_pdf(0.5, spacing=0.05), "delta-gauss0.5")])

    return entries


def run_suite(seed: int = 7):
    """Run the built-in corpus and return reports sorted by name and params."""
    reports = []
    for name, fn in default_suite(seed):
        start = time.perf_counter()
        group = fn()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        for rep in group:
            rep.diagnostics.setdefault("runtime_ms", round(elapsed_ms, 3))
        reports += group
    reports.sort(key=lambda r: (r.check_name, json.dumps(r.params, sort_keys=True)))
    return reports


# ---------------------------------------------------------------------------
# serialization


VOLATILE_DIAGNOSTICS = ("runtime_ms", "channel_ms")


def suite_payload(reports, seed: int) -> dict:
    return {
        "format": "epi-lab-report/1",
        "seed": seed,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "reports": [r.to_dict() for r in reports],
    }


def payload_to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def canonical_payload(payload: dict) -> dict:
    """Copy of a report payload with volatile fields (timestamp, timings)
    removed; two runs with the same configuration must agree byte for byte
    on this form."""
    out = {k: v for k, v in payload.items() if k != "created"}
    reports = []
    for rep in out.get("reports", []):
        rep = dict(rep)
        rep["diagnostics"] = {
            k: v for k, v in rep.get("diagnostics", {}).items() if k not in VOLATILE_DIAGNOSTICS
        }
        reports.append(rep)
    out["reports"] = reports
    return out


def canonical_json(payload: dict) -> str:
    return payload_to_json(canonical_payload(payload))


def reports_to_csv(reports) -> str:
    """Flatten params into columns for spreadsheet plotting."""
    param_keys = sorted({k for r in reports for k in r.params})
    header = ["check_name"] + param_keys + ["lhs", "rhs", "margin", "tolerance", "pass"]
    lines = [",".join(header)]
    for r in reports:
        row = [r.check_name]
        for k in param_keys:
            v = r.params.get(k, "")
            row.append(json.dumps(v) if isinstance(v, (list, dict)) else str(v))
        row += [repr(r.lhs), repr(r.rhs), repr(r.margin), repr(r.tolerance), str(r.passed).lower()]
        lines.append(",".join(x.replace(",", ";") for x in row))
    return "\n".join(lines) + "\n"
