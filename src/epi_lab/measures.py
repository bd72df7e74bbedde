"""The measures of one side X with its memory M, where X is the quantum
input A or the classical noise R:

- `entropy(x)`: the conditional entropy S(X|M);
- `heat_flow(x, t)`: X after the heat flow for time t (from `channels`);
- `fisher(x, h0)`: J(X|M), the derivative of S(X|M) along the heat flow at
  t = 0 (de Bruijn), by forward differences with Richardson extrapolation;
- `entropy_gain(x, t)`: S(X|M) gained along the heat flow in time t, the
  integral of J(X|M) over [0, t];
- `provenance(x)`: how the side is represented (Fock tail, grid), for reports.

A side is a GaussianState or a FockState (A, whose second mode, if any, is
M), a GridPdf (R independent of A and M), or a `Register` of either (M a
classical register, taken label by label); callers pass any side. `entropy`
and `provenance` (and `heat_flow` in `channels`) dispatch on its type: each
side type registers one implementation right below the function, calling it
by module-level name so that a wrapper installed on that name sees the call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import fock as fk
from .channels import Register, check_shared_register, heat_flow
from .errors import ConvergenceError, DomainError, QuadratureError
from .gaussian import GaussianState, gaussian_conditional_entropy, gaussian_entropy
from .phase_space import GridPdf, resolving_spacing, shannon_entropy


@dataclass
class FisherEstimate:
    """Finite-difference derivative of a conditional entropy at t = 0."""

    value: float
    uncertainty: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConvergenceError("Fisher estimate is not finite")
        self.uncertainty = abs(float(self.uncertainty))


@functools.singledispatch
def entropy(x) -> float:
    """S(X|M): the entropy of a one-mode state or of a density, the
    conditional entropy of the first mode given the second of a two-mode
    state, and the label average sum_m p_m S(X_m) of a Register."""
    raise DomainError(f"unsupported side type {type(x).__name__}")

@entropy.register(Register)
def _(x): return float(sum(p * entropy(part) for p, part in zip(x.probs, x.parts)))
@entropy.register(GridPdf)
def _(x): return shannon_entropy(x)
@entropy.register(GaussianState)
def _(x): return gaussian_entropy(x) if x.n_modes == 1 else gaussian_conditional_entropy(x, *x.mode_labels)
@entropy.register(fk.FockState)
def _(x): return fk.von_neumann_entropy(x) if x.n_modes == 1 else fk.conditional_entropy(x, *x.mode_labels)


def entropy_gain(x, t: float) -> float:
    """S(X|M) after the heat flow for time t minus S(X|M) before. `heat_flow`
    refuses t < 0 and flows t = 0 to an exact copy, whose gain is exactly 0.0."""
    return entropy(heat_flow(x, t)) - entropy(x)


@functools.singledispatch
def provenance(x) -> dict:
    """How a side is represented, for report diagnostics: the Fock truncation
    tail of a state, the grid side and spacing of a density, the largest tail
    or the per-label lists of a Register; {} for a Gaussian state."""
    raise DomainError(f"unsupported side type {type(x).__name__}")

@provenance.register(Register)
def _(x):
    parts = [provenance(part) for part in x.parts]
    return {k: max(p[k] for p in parts) if k == "tail_mass" else [p[k] for p in parts] for k in parts[0]}
@provenance.register(GridPdf)
def _(x): return {"grid": x.size, "spacing": x.spacing}
@provenance.register(GaussianState)
def _(x): return {}
@provenance.register(fk.FockState)
def _(x): return {"tail_mass": x.tail_mass()}


def _richardson(f0: float, values, h0: float) -> FisherEstimate:
    """Three-level Richardson extrapolation of a forward difference."""
    d = [(v - f0) / h for v, h in zip(values, (h0, h0 / 2, h0 / 4))]
    e1 = 2 * d[1] - d[0]
    e2 = 2 * d[2] - d[1]
    g = (4 * e2 - e1) / 3.0
    est = FisherEstimate(value=float(g), uncertainty=abs(g - e2))
    if est.uncertainty > 0.05 * abs(est.value):
        raise ConvergenceError(
            f"Fisher estimate {est.value} has uncertainty {est.uncertainty}"
        )
    return est


@functools.singledispatch
def _check_fisher_grid(x, h0: float):
    """Refuse an untagged density whose grid does not resolve the smallest
    Fisher step h0/4 (a tagged Gaussian flows in closed form on any grid);
    a state has no grid to refuse."""

@_check_fisher_grid.register(Register)
def _(x, h0):
    for part in x.parts:
        _check_fisher_grid(part, h0)
@_check_fisher_grid.register(GridPdf)
def _(f, h0):
    if f.gaussian is None and f.spacing > resolving_spacing(h0 / 4) * (1 + 1e-12):
        raise QuadratureError(f"spacing {f.spacing:.4g} too coarse for Fisher step h0={h0}")


def fisher(x, h0: float = 1e-2) -> FisherEstimate:
    """J(X|M): forward differences of S(X|M) along the heat flow at steps h0,
    h0/2 and h0/4, Richardson-extrapolated. A density must be tagged
    Gaussian or on a grid that resolves h0/4 (`_check_fisher_grid`)."""
    _check_fisher_grid(x, h0)
    vals = [entropy(heat_flow(x, h)) for h in (h0, h0 / 2, h0 / 4)]
    return _richardson(entropy(x), vals, h0)


def conditional_mutual_information(state: Register, noise: Register) -> float:
    """I(A:R|M) for an input and a noise over one register: zero by
    construction, but S(A|M), S(R|M) and S(AR|M) are each evaluated
    numerically, the last label by label from S(f_m) and S(rho_m)."""
    check_shared_register(noise, state)
    s_ar_given_m = sum(p * (shannon_entropy(f) + fk.von_neumann_entropy(st) * f.mass())
                       for p, st, f in zip(state.probs, state.parts, noise.parts))
    return entropy(state) + entropy(noise) - s_ar_given_m


# perfbench/tracing.py wraps these names; the program calls the measures above
def fisher_A_given_M(rho, h0: float = 1e-2) -> FisherEstimate: return fisher(rho, h0)
def fisher_R_given_M(noise, h0: float = 1e-2) -> FisherEstimate: return fisher(noise, h0)
def cq_conditional_entropy_R_given_M(noise) -> float: return entropy(noise)
def register_conditional_entropy_A(reg: Register) -> float: return entropy(reg)
def integral_fisher_R_given_M(noise, t: float) -> float: return entropy_gain(noise, t)
