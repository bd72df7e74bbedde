"""Executable verification of the theorem-level statements: entropy power
inequalities (classical, beam splitter, convolution, conditional), the Stam
inequality, universal scaling, the saturating family, isoperimetric and
concavity inequalities, the capacity bound, and damping-semigroup decay.

Every check produces a CheckReport; the built-in suite bundles a fixed corpus
of instances. Margins are oriented so that >= 0 means the statement holds
outright; a report passes iff margin >= -tolerance.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field, fields
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
_KEY = {"passed": "pass"}  # the one report field whose dict key is not its name


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
        """One key per field, `passed` written as "pass"."""
        return {_KEY.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        """The inverse of `to_dict`: missing diagnostics read as {}, unknown keys are ignored."""
        names = {_KEY.get(f.name, f.name): f.name for f in fields(cls)}
        return cls(**{names[k]: v for k, v in d.items() if k in names})


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


def _within(name, params, dev, bound, diagnostics=None) -> CheckReport:
    """lhs = dev must stay under rhs = bound: margin = bound - dev, tolerance 0."""
    return make_report(name, params, dev, bound, bound - dev, 0.0, diagnostics)


def _agree(name, params, x, ref, bound, diagnostics=None) -> CheckReport:
    """lhs = x must agree with rhs = ref within bound: margin = bound - |x - ref|, tolerance 0."""
    return make_report(name, params, x, ref, bound - abs(x - ref), 0.0, diagnostics)


def _falls(xs) -> list:
    """x_i - x_{i+1} along xs: all >= 0 iff the sequence never rises."""
    return [a - b for a, b in zip(xs, xs[1:])]


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_plain(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# instances


@dataclass
class Instance:
    """An input A with memory M and noise R conditionally independent of A
    given M: the object of the conditional EPI, its linear form and the
    conditional Stam inequality.

    Both sides are built on demand, and the measures of `measures` take
    either. `a()` returns A with its memory: a FockState whose second mode
    (if any) is M, or a `Register` of FockStates whose labels are M. `r()`
    returns R with the same memory: the GridPdf of noise independent of A and
    M, or a `Register` of GridPdfs over the labels of `a()`. `gaussian()`,
    None without a Gaussian twin, returns the matched Gaussian input and its
    isotropic noise variance. `params` identify the instance in reports.
    """

    params: dict
    a: Callable
    r: Callable
    gaussian: Callable = None

    @property
    def name(self) -> str:
        return self.params["instance"]

    def paths(self) -> tuple:
        return ("gaussian", "fock") if self.gaussian else ("fock",)

    def _channel(self, path):
        """(A with its memory, its channel output, S(R|M), diagnostics)."""
        if path == "gaussian":
            a, t = self.gaussian()
            return a, ms.heat_flow(a, t), 1.0 + math.log(t), {}
        a, r = self.a(), self.r()
        out = ch.extended_channel(r, a)
        diag = {"tail_mass": max(ms.provenance(x)["tail_mass"] for x in (a, out)), "cutoff": a.mode_dims[0],
                "channel": ch.channel_path(r)}
        return a, out, ms.entropy(r), diag

    def entropies(self, path: str):
        """(S(A|M), S(R|M), S(C|M), diagnostics) on one path."""
        a, out, s_r, diag = self._channel(path)
        return ms.entropy(a), s_r, ms.entropy(out), diag

    def fishers(self, path: str):
        """(J(A|M), J(R|M), J(C|M), diagnostics) on one path; J(R|M) comes
        first, so noise the Fisher ladder refuses fails before the channel runs."""
        j_r = ms.fisher(self.r())
        a, out, _, diag = self._channel(path)
        return ms.fisher(a), j_r, ms.fisher(out), diag


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
        reports.append(_agree("cond-epi-path-agreement", instance.params, fc, gc, PATH_AGREEMENT_TOL,
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


def check_stam(instance: Instance) -> list:
    """Reciprocal-form Stam inequality 1/J(C|M) >= 1/J(A|M) + 1/J(R|M).

    Fisher informations come from the forward-difference derivative of the
    conditional entropy under heat flow, on the Gaussian path when the
    instance has one; the tolerance budgets both the relative slack and three
    times the propagated estimate uncertainties.
    """
    j_a, j_r, j_c, diag = instance.fishers(instance.paths()[0])
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
    return _within("stam-matched-equality", dict(stam_report.params), rel, 2e-2,
                   {"stam_margin": stam_report.margin, "stam_rhs": stam_report.rhs})


# ---------------------------------------------------------------------------
# universal scaling


def check_scaling(state, t_list, sigma_sq: float, name: str) -> CheckReport:
    """|S(R|M)(t) - log t - 1| must fall below log(1 + sigma^2/t) + 0.02 at the
    largest time and decrease along t_list; `state` is the noise R, a GridPdf
    or a Register of GridPdfs."""
    if not all(t > 0 for t in t_list):
        raise DomainError(f"scaling needs times t > 0, got {list(t_list)}")
    devs = []
    for t in t_list:
        s = ms.entropy(ms.heat_flow(state, t))
        devs.append(abs(s - math.log(t) - 1.0))
    bound = math.log1p(sigma_sq / t_list[-1]) + 0.02
    return make_report("scaling", {"instance": name, "t_list": list(t_list)}, devs[-1], bound,
                       min([bound - devs[-1]] + _falls(devs)), 0.0,
                       {**ms.provenance(state), "deviations": devs, "sigma_sq": sigma_sq})


# ---------------------------------------------------------------------------
# saturating family


def check_tightness(a: float, b: float, k_list) -> CheckReport:
    """The gap |exp S(C|M) - (e^a + e^b)| must shrink along k_list and close
    below 0.01 at the final k."""
    target = math.exp(a) + math.exp(b)
    gaps = [abs(math.exp(ms.entropy(ga.tightness_family(k, a, b)[2])) - target) for k in k_list]
    bound = 0.01
    return make_report("tightness", {"a": a, "b": b, "k_list": list(k_list)}, gaps[-1], bound,
                       min([bound - gaps[-1]] + _falls(gaps)), 0.0, {"gaps": gaps, "target": target})


def check_tightness_noise_entropy(b: float) -> CheckReport:
    """The sampled noise density must reproduce S(R|M) = b to 1e-9."""
    f = ps.gaussian_pdf(math.exp(b - 1.0))
    dev = abs(ps.shannon_entropy(f) - b)
    return _within("tightness-noise-entropy", {"b": b}, dev, 1e-9, ms.provenance(f))


def check_tightness_epi(a: float, b: float, k: float) -> CheckReport:
    """Each finite-k member of the family itself satisfies the conditional EPI."""
    rho_am, f, rho_cm = ga.tightness_family(k, a, b)
    return _epi_report("tightness-epi", {"a": a, "b": b, "k": k, "path": "gaussian"},
                       ms.entropy(rho_am), ms.entropy(f), ms.entropy(rho_cm), GAUSS_TOL)


# ---------------------------------------------------------------------------
# isoperimetric inequalities


def check_isoperimetric(instance, name: str) -> CheckReport:
    """(1/n) J(X|M) exp S(X|M) >= e, with a 1e-2 relative slack, for any side
    X with its memory M."""
    j, s = ms.fisher(instance), ms.entropy(instance)
    lhs = j.value * math.exp(s)
    diag = {**ms.provenance(instance), "J": j.value, "S": s,
            "fisher_uncertainty": j.uncertainty, "ratio_to_e": lhs / math.e}
    return make_report(
        "isoperimetric", {"instance": name}, lhs, math.e, lhs - math.e, 1e-2 * math.e, diag
    )


def check_isoperimetric_saturation(iso_report: CheckReport) -> CheckReport:
    """Classical Gaussian instances saturate J exp(S) = e within 1e-2; reads
    the isoperimetric report of the instance."""
    gap = abs(iso_report.lhs - math.e)
    return _within("isoperimetric-saturation", dict(iso_report.params), gap, 1e-2, iso_report.diagnostics)


def check_isoperimetric_ratio_monotone(nus) -> CheckReport:
    """For thermal states the ratio J exp(S) / e decreases towards 1."""
    ratios = []
    for nu in nus:
        j = ms.fisher(ga.thermal_state(nu - 0.5))
        s = ga.g_function(nu - 0.5)
        ratios.append(j.value * math.exp(s) / math.e)
    limit = 1.0
    return make_report("isoperimetric-ratio-monotone", {"nu_list": list(nus)}, ratios[-1], limit,
                       min(_falls(ratios + [limit])), GAUSS_TOL, {"ratios": ratios})


def check_fisher_isoperimetric(instance, name: str) -> CheckReport:
    """d/dt [1/J(X|M)] >= 1 at t = 0 along the heat flow, from forward
    differences at steps h = 0.05 and h/2, for any side X."""

    def inv_j(t):
        est = ms.fisher(ms.heat_flow(instance, t) if t else instance)
        return 1.0 / est.value, est.uncertainty / est.value ** 2

    h = 0.05
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
        {**ms.provenance(instance), "inv_J": [f0, f2, f1], "uncertainty": uncertainty},
    )


# ---------------------------------------------------------------------------
# concavity of the entropy power along heat flow


# the heat-flow times of the concavity check: 0 to 0.5 in steps of 0.05
CONCAVITY_GRID = tuple(round(0.05 * i, 10) for i in range(11))


def check_concavity_entropy_power(instance, name: str) -> CheckReport:
    """Second difference quotient of exp S(X|M)(t) along CONCAVITY_GRID must stay below 1e-3."""
    h = CONCAVITY_GRID[1] - CONCAVITY_GRID[0]
    outs = [ms.heat_flow(instance, t) for t in CONCAVITY_GRID]
    powers = [math.exp(ms.entropy(o)) for o in outs]
    quotients = [
        (powers[i + 1] - 2 * powers[i] + powers[i - 1]) / h ** 2 for i in range(1, len(powers) - 1)
    ]
    worst = max(quotients)
    prov = ms.provenance(instance)
    if "tail_mass" in prov:  # the last output's tail, but the input's grid
        prov["tail_mass"] = ms.provenance(outs[-1])["tail_mass"]
    return make_report(
        "concavity", {"instance": name, "t_grid": list(CONCAVITY_GRID)}, worst, 0.0, -worst, 1e-3,
        {**prov, "powers": powers, "h": h},
    )


# ---------------------------------------------------------------------------
# integral Fisher regularity


def check_debruijn_regularity(state, t_list, name: str) -> CheckReport:
    """Delta(t), the entropy gain of the noise R (a GridPdf or a Register of
    GridPdfs), must be nonnegative, nondecreasing, and midpoint-concave."""
    deltas = [ms.entropy_gain(state, t) for t in t_list]
    slack = 1e-6
    margins = [deltas[0] + slack] + [x + slack for x in _falls(deltas[::-1])]
    margins += [
        deltas[i] - 0.5 * (deltas[i - 1] + deltas[i + 1]) + slack
        for i in range(1, len(deltas) - 1)
    ]
    margin = min(margins)
    return make_report(
        "debruijn-regularity", {"instance": name, "t_list": list(t_list)},
        min(deltas), 0.0, margin, 0.0, {**ms.provenance(state), "delta": deltas, "slack": slack},
    )


def check_debruijn_consistency(reg: ch.Register, t: float) -> CheckReport:
    """Integral de Bruijn identity: the gain of S(R|M) over [0, t] must match,
    within 1e-4, Simpson's rule over 16 intervals for the integral of J(R|M)
    along the heat flow, each node a Richardson Fisher estimate (gap 1.4e-6
    on the corpus register at t = 0.5; 8 intervals leave 2.3e-5)."""
    lhs = ms.entropy_gain(reg, t)
    nodes = np.linspace(0.0, t, 17)
    weights = np.array([1.0] + [4.0, 2.0] * 7 + [4.0, 1.0]) * (nodes[1] / 3.0)
    rhs = float(weights @ [ms.fisher(ms.heat_flow(reg, s)).value for s in nodes])
    return _agree("debruijn-consistency", {"t": t}, lhs, rhs, 1e-4, {"gap": abs(lhs - rhs)})


# ---------------------------------------------------------------------------
# capacity bound


def capacity_terms(f: ps.GridPdf) -> dict:
    """The noise terms of the capacity bound: E0 = energy(f)/2 and S0 = S(f)."""
    return {"E0": ps.energy(f) / 2.0, "S0": ps.shannon_entropy(f)}


def capacity_bound(E: float, f: ps.GridPdf) -> float:
    """Entanglement-assisted capacity bound g(E + E0) - log(e^{-g(E)} + e^{S0})
    with the noise terms of `capacity_terms` (single mode)."""
    if E <= 0:
        raise DomainError("energy budget must be positive")
    terms = capacity_terms(f)
    return ga.g_function(E + terms["E0"]) - math.log(math.exp(-ga.g_function(E)) + math.exp(terms["S0"]))


def check_capacity_value(E: float, noise_t: float, expected: float) -> CheckReport:
    f = ps.gaussian_pdf(noise_t)
    val = capacity_bound(E, f)
    return _agree("capacity-value", {"E": E, "noise_t": noise_t}, val, expected, 1e-6, capacity_terms(f))


def check_capacity_monotone(E_list, noise_t: float) -> CheckReport:
    f = ps.gaussian_pdf(noise_t)
    vals = [capacity_bound(E, f) for E in E_list]
    return make_report("capacity-monotone", {"E_list": list(E_list), "noise_t": noise_t}, vals[-1], vals[0],
                       min(_falls(vals[::-1])), GAUSS_TOL, {"values": vals})


# ---------------------------------------------------------------------------
# damping semigroup decay


@functools.singledispatch
def _qou_decay(state, mu: float, lam: float, t_list):
    """(D0, D(t) along t_list, tolerance, diagnostics, path) for `check_qou_decay`:
    through the Fock channel, or in closed form for a GaussianState."""
    omega = fk.thermal(ga.qou_mean_photon(mu, lam), state.mode_dims[0])
    d0 = fk.relative_entropy(state, omega)
    outs = [ch.qou_channel_fock(state, t, mu, lam) for t in t_list]
    ds = [fk.relative_entropy(out, omega) for out in outs]
    return d0, ds, 1e-4, {"tail_mass": max(s.tail_mass() for s in [state, *outs])}, "fock"

@_qou_decay.register(ga.GaussianState)
def _(state, mu, lam, t_list):
    d0 = ga.relative_entropy_to_thermal_product(state, mu, lam)
    ds = [ga.relative_entropy_to_thermal_product(ga.gaussian_qou_evolution(state, t, mu, lam), mu, lam)
          for t in t_list]
    return d0, ds, GAUSS_TOL, {}, "gaussian"


def check_qou_decay(state, mu: float, lam: float, t_list) -> CheckReport:
    """Relative entropy against the fixed-point product must decay at least
    exponentially with rate mu^2 - lam^2: in closed form for a Gaussian
    state, through the Fock channel for a Fock state."""
    rate = mu ** 2 - lam ** 2
    d0, ds, tol, diag, path = _qou_decay(state, mu, lam, t_list)
    margins = [ga._qou_transmissivity(t, mu, lam) * d0 - d for t, d in zip(t_list, ds)]
    diag.update({"D0": d0, "D_t": ds, "rate": rate})
    return make_report(
        "qou-decay",
        {"mu": mu, "lambda": lam, "t_list": list(t_list), "path": path, "bipartite": path == "gaussian"},
        min(ds), d0, min(margins), tol, diag,
    )


def check_qou_fixed_point(mu: float, lam: float, t: float) -> CheckReport:
    omega = ch.qou_environment(mu, lam)
    dist = fk.trace_norm_distance(ch.qou_channel_fock(omega, t, mu, lam), omega)
    return _within("qou-fixed-point", {"mu": mu, "lambda": lam, "t": t}, dist, 1e-5,
                   {"cutoff": omega.mode_dims[0], **ms.provenance(omega)})


def check_qou_semigroup(state: fk.FockState, mu: float, lam: float, s: float, t: float) -> CheckReport:
    two_step = ch.qou_channel_fock(ch.qou_channel_fock(state, s, mu, lam), t, mu, lam)
    one_step = ch.qou_channel_fock(state, s + t, mu, lam)
    dist = fk.trace_norm_distance(two_step, one_step)
    return _within("qou-semigroup", {"mu": mu, "lambda": lam, "s": s, "t": t}, dist, 1e-5,
                   ms.provenance(one_step))


def check_qou_gaussian_fock_agreement(r: float, t: float, mu: float, lam: float) -> CheckReport:
    """Two-mode damping evolution at cutoff 20: Fock moments must track the
    Gaussian rule."""
    cutoff = 20
    tm = fk.two_mode_squeezed_vacuum(r, cutoff)
    out = ch.qou_channel_fock(tm, t, mu, lam)
    mean_f, cov_f = fk.moments_of_state(out)
    gs_out = ga.gaussian_qou_evolution(ga.tmsv_state(r), t, mu, lam)
    dev = max(np.abs(cov_f - gs_out.cov).max(), np.abs(mean_f - gs_out.mean).max())
    return _within("qou-gaussian-fock-agreement", {"r": r, "t": t, "mu": mu, "lambda": lam}, dev, 1e-4,
                   {**ms.provenance(out), "cutoff": cutoff})


# ---------------------------------------------------------------------------
# background entropy power inequalities


def check_beam_splitter_epi(rho_a: fk.FockState, rho_b: fk.FockState, lam: float, name: str) -> CheckReport:
    """exp S(C) >= lam exp S(A) + (1 - lam) exp S(B) for product inputs."""
    out = ch.beam_splitter(rho_a, rho_b, lam)
    lhs = math.exp(fk.von_neumann_entropy(out))
    rhs = lam * math.exp(fk.von_neumann_entropy(rho_a)) + (1 - lam) * math.exp(
        fk.von_neumann_entropy(rho_b)
    )
    return make_report("bs-epi", {"instance": name, "lambda": lam}, lhs, rhs, lhs - rhs, 1e-4,
                       ms.provenance(out))


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


# (Fock state, Gaussian twin) pairs of the cross-representation oracle. The
# k = 2 TMSV breaks the truncation budget at the two-mode default cutoff 40;
# at 75 its tail is <= 1e-8 and the 1e-6 moment accuracy holds.
CROSSREP_PAIRS = {
    "vacuum": lambda: (fk.vacuum(60), ga.vacuum_state()),
    "thermal": lambda: (fk.thermal(1.0, 60), ga.thermal_state(1.0)),
    "coherent": lambda: (fk.coherent(1.0 + 0.5j, 60), ga.coherent_state(1.0 + 0.5j)),
    "tmsv": lambda: (fk.two_mode_squeezed_vacuum(ga.tmsv_r_for_k(2.0), 75), ga.tightness_state(2.0)),
}


def check_crossrep(name: str) -> CheckReport:
    """Fock-path entropies, conditional entropies (two modes) and moments
    must match the Gaussian closed forms for the Gaussian constructor states."""
    if name not in CROSSREP_PAIRS:
        raise DomainError(f"unknown crossrep state {name!r}")
    st, gs = CROSSREP_PAIRS[name]()
    s = fk.von_neumann_entropy(st)
    devs = {"entropy": abs(s - ga.gaussian_entropy(gs))}
    if st.n_modes == 2:
        s_m = fk.von_neumann_entropy(fk.partial_trace(st, st.mode_labels[1]))
        devs["conditional_entropy"] = abs(s - s_m - ms.entropy(gs))
    mean_f, cov_f = fk.moments_of_state(st)
    devs["moments"] = max(np.abs(mean_f - gs.mean).max(), np.abs(cov_f - gs.cov).max())
    return _within("oracle-crossrep", {"state": name, "cutoff": st.mode_dims}, max(devs.values()), 1e-6,
                   {**devs, **ms.provenance(st), **fk.spectral_path(st)})


def check_convolution_oracle(t: float) -> CheckReport:
    """vacuum * f_{Z,t} at cutoff 60 must reproduce the thermal entropy g(t) within 1e-4."""
    start = time.perf_counter()
    f = ps.gaussian_pdf(t)
    out = ch.extended_channel(f, fk.vacuum(60))
    s = fk.von_neumann_entropy(out)
    elapsed = (time.perf_counter() - start) * 1000.0
    return _agree("conv-vacuum-entropy", {"t": t, "cutoff": out.mode_dims[0]}, s, ga.g_function(t), 1e-4,
                  {**ms.provenance(out), **ms.provenance(f),
                   "trace_drift": out.trace_drift, "channel": ch.channel_path(f), "channel_ms": elapsed})


# ---------------------------------------------------------------------------
# the built-in suite


def _register_noise(probs, variances, centers) -> ch.Register:
    """Gaussian per-label noise, each label on a grid of spacing 0.1."""
    return ch.Register(probs, [ps.gaussian_pdf(t, center=c, spacing=0.1)
                               for t, c in zip(variances, centers)])


def _register(label, probs, states, variances, centers) -> Instance:
    """Register instance; `states` builds the per-label states."""
    return Instance({"family": "F2", "labels": len(probs), "instance": label},
                    lambda: ch.Register(probs, states()),
                    lambda: _register_noise(probs, variances, centers))


def _f1(t: float) -> Instance:
    """Memory family 1: a two-mode squeezed pair (A, M) with noise
    independent of both."""
    return Instance({"family": "F1", "instance": "tmsv-0.66", "t": t},
                    lambda: fk.two_mode_squeezed_vacuum(0.66, 40), lambda: ps.gaussian_pdf(t),
                    gaussian=lambda: (ga.tmsv_state(0.66), t))


def _tightness(k: float, a: float, b: float, cutoff: int) -> Instance:
    """A member of the saturating family on the Fock path: the k TMSV at
    `cutoff`, heat-flowed by e^(a-1) on A, with noise of variance e^(b-1);
    its Gaussian twin is `ga.tightness_family`."""
    ta, tb = math.exp(a - 1.0), math.exp(b - 1.0)
    return Instance({"family": "F1", "instance": "tightness", "k": k, "a": a, "b": b},
                    lambda: ch.heat_flow(fk.two_mode_squeezed_vacuum(ga.tmsv_r_for_k(k), cutoff), ta),
                    lambda: ps.gaussian_pdf(tb),
                    gaussian=lambda: (ga.tightness_family(k, a, b)[0], tb))


def _thermal(name: str, n: float, t: float) -> Instance:
    """One-mode thermal input without memory: the conditional statements
    reduce to their unconditioned forms."""
    return Instance({"family": "trivial-M", "instance": name, "t": t}, lambda: fk.thermal(n, 60),
                    lambda: ps.gaussian_pdf(t), gaussian=lambda: (ga.thermal_state(n), t))


def _corpus_register_epi(label: str = "register") -> Instance:
    return _register(label, [0.4, 0.6], lambda: [fk.fock(1, 48), fk.cat(2.0, 48)], [0.3, 0.7],
                     [(0.5, 0.0), (-0.4, 0.3)])


def default_suite(seed: int = 7):
    """The acceptance corpus: a list of (name, thunk) pairs; every thunk
    returns one or more CheckReports."""
    entries = []

    def add(name, fn):
        entries.append((name, fn))

    for state in CROSSREP_PAIRS:
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
    # outputs within TAIL_TOL: tails 9.8e-9 at cutoff 80 and 5.2e-9 at 104 (100 fails)
    add("cond-epi[tightness,k=2]", lambda: check_conditional_epi(_tightness(2, 0.0, 0.0, 80))
        + check_conditional_epi(_tightness(2, 1.0, 1.0, 104)))
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
        ps.gaussian_pdf(1.0), [5.0, 20.0, 50.0], 1.0, "gauss-1")])
    add("scaling[register]", lambda: [check_scaling(
        _register_noise([0.5, 0.5], [0.5, 1.5], [(0.4, 0.0), (-0.6, 0.8)]),
        [5.0, 20.0, 50.0], 1.5, "register-mixture")])

    for nu in (2.0, 5.0, 10.0):
        add(f"isoperimetric[thermal,nu={nu}]", lambda n=nu: [check_isoperimetric(
            ga.thermal_state(n - 0.5), f"thermal-nu-{n}")])
    add("isoperimetric-ratio-monotone", lambda: [check_isoperimetric_ratio_monotone([2.0, 5.0, 10.0])])

    def iso_classical():
        rep = check_isoperimetric(ps.gaussian_pdf(0.8, spacing=0.0125), "classical-gauss-0.8")
        return [rep, check_isoperimetric_saturation(rep)]

    add("isoperimetric[classical]", iso_classical)
    add("isoperimetric[tmsv]", lambda: [check_isoperimetric(
        ga.tmsv_state(0.66), "tmsv-conditional")])
    add("isoperimetric[fock-thermal]", lambda: [check_isoperimetric(fk.thermal(1.0, 60), "fock-thermal-1")])
    add("fisher-isoperimetric[thermal]", lambda: [check_fisher_isoperimetric(
        ga.thermal_state(1.5), "thermal-nu-2")])
    add("fisher-isoperimetric[classical]", lambda: [check_fisher_isoperimetric(
        ps.gaussian_pdf(0.8, spacing=0.0125), "classical-gauss-0.8")])

    add("concavity[gauss-thermal]",
        lambda: [check_concavity_entropy_power(ga.thermal_state(1.5), "gauss-thermal-2")])
    add("concavity[gauss-tmsv]", lambda: [check_concavity_entropy_power(ga.tmsv_state(0.66), "gauss-tmsv")])
    add("concavity[fock-vacuum]", lambda: [check_concavity_entropy_power(fk.vacuum(40), "fock-vacuum")])
    add("concavity[register]",
        lambda: [check_concavity_entropy_power(_corpus_register_epi().a(), "register")])

    reg_t = [round(0.1 * i, 10) for i in range(1, 21)]
    add("debruijn-regularity[register]", lambda: [check_debruijn_regularity(
        _corpus_register_epi().r(), reg_t, "register")])
    add("debruijn-regularity[independent]", lambda: [check_debruijn_regularity(
        ps.gaussian_pdf(0.7), reg_t, "gauss-0.7")])
    add("debruijn-consistency", lambda: [check_debruijn_consistency(_corpus_register_epi().r(), 0.5)])

    add("qou-decay[fock-1]", lambda: [check_qou_decay(
        fk.fock(1, 30), 1.0, 0.5, [0.5, 1.0, 2.0])])
    add("qou-decay[tmsv-k2]", lambda: [check_qou_decay(
        ga.tightness_state(2.0), 1.0, 0.5, [0.5, 1.0, 2.0])])
    # support kept well inside the cutoff so the thermal reference has no
    # numerically-null levels under the state
    add("qou-decay[random]", lambda: [check_qou_decay(
        fk.random_mixed(3, 20, seed, support=14), 1.0, 0.5, [0.5, 1.0, 2.0])])
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
