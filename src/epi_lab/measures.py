"""Conditional entropies for classical-quantum states, integral conditional
Fisher information through the entropy-difference identity, and differential
Fisher information by forward differences with Richardson extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fock as fk
from .channels import (RegisterNoise, RegisterState, check_shared_register, cq_classical_heat_flow,
                       gaussian_noise_channel)
from .errors import ConvergenceError, DomainError, NegativeTimeError, QuadratureError
from .gaussian import GaussianState, gaussian_conditional_entropy, gaussian_entropy, gaussian_heat_flow
from .phase_space import GridPdf, gaussian_pdf, resolving_spacing, shannon_entropy


@dataclass
class FisherEstimate:
    """Finite-difference derivative of a conditional entropy at t = 0."""

    value: float
    uncertainty: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConvergenceError("Fisher estimate is not finite")
        self.uncertainty = abs(float(self.uncertainty))


def cq_conditional_entropy_R_given_M(noise) -> float:
    """Conditional entropy of the noise R given the memory M: S(R) for a
    GridPdf, noise independent of A and M, and for a RegisterNoise the
    label average sum_m p_m S(f_m), each label on its own grid."""
    if isinstance(noise, RegisterNoise):
        return float(sum(p * shannon_entropy(f) for p, f in zip(noise.probs, noise.pdfs)))
    if not isinstance(noise, GridPdf):
        raise DomainError(f"unsupported noise type {type(noise).__name__}")
    return shannon_entropy(noise)


def register_conditional_entropy_A(reg: RegisterState) -> float:
    """S(A|M) for a classical register memory: the label-averaged entropy."""
    return float(sum(p * fk.von_neumann_entropy(s) for p, s in zip(reg.probs, reg.states)))


def integral_fisher_R_given_M(noise, t: float) -> float:
    """Entropy gained by the noise R (a GridPdf or a RegisterNoise) under
    classical heat flow for time t."""
    if t < 0:
        raise NegativeTimeError(f"requires t >= 0, got {t}")
    if t == 0:
        return 0.0
    heated = cq_classical_heat_flow(noise, t)
    return cq_conditional_entropy_R_given_M(heated) - cq_conditional_entropy_R_given_M(noise)


def entropy_A_given_M(state) -> float:
    """S(A|M) of a Gaussian or Fock state whose first mode is A and second
    mode, if any, is M; of a register, whose labels are M."""
    if isinstance(state, RegisterState):
        return register_conditional_entropy_A(state)
    if isinstance(state, GaussianState):
        if state.n_modes == 1:
            return gaussian_entropy(state)
        return gaussian_conditional_entropy(state, *state.mode_labels)
    if isinstance(state, fk.FockState):
        if state.n_modes == 1:
            return fk.von_neumann_entropy(state)
        return fk.conditional_entropy(state, *state.mode_labels)
    raise DomainError(f"unsupported state type {type(state).__name__}")


def heat_flow_A(state, t_list) -> list:
    """The state after quantum heat flow on A (the first mode, or every
    label's state of a register) for each time in t_list: in closed form for
    a Gaussian state, by the exact `gaussian_noise_channel`, once per time,
    for a Fock state. t = 0 is the identity; t < 0 raises NegativeTimeError."""
    if isinstance(state, GaussianState):
        return [gaussian_heat_flow(state, t, state.mode_labels[0]) for t in t_list]
    if isinstance(state, RegisterState):
        evolved = [heat_flow_A(s, t_list) for s in state.states]
        return [RegisterState(state.probs, outs) for outs in zip(*evolved)]
    if isinstance(state, fk.FockState):
        return [gaussian_noise_channel(state, t) for t in t_list]
    raise DomainError(f"unsupported state type {type(state).__name__}")


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


def _fisher_grid(f: GridPdf, h0: float) -> GridPdf:
    """f on a grid that resolves the smallest Fisher step h0/4, where sampled
    kernels would otherwise bias the derivative: f itself when its grid is that
    fine, resampled there when it is Gaussian; any other density is refused."""
    spacing = resolving_spacing(h0 / 4)
    if f.spacing <= spacing * (1 + 1e-12):
        return f
    if f.gaussian is None:
        raise QuadratureError(f"spacing {f.spacing:.4g} too coarse for Fisher step h0={h0}")
    return gaussian_pdf(*f.gaussian, spacing=spacing)


def fisher_R_given_M(noise, h0: float = 1e-2) -> FisherEstimate:
    """Forward-difference derivative of S(R|M) along the classical heat flow,
    for noise R given as a GridPdf or a RegisterNoise, each density on the
    grid `_fisher_grid` picks for it."""
    if isinstance(noise, RegisterNoise):
        noise = RegisterNoise(noise.probs, [_fisher_grid(f, h0) for f in noise.pdfs])
    else:
        noise = _fisher_grid(noise, h0)
    f0 = cq_conditional_entropy_R_given_M(noise)
    vals = [cq_conditional_entropy_R_given_M(cq_classical_heat_flow(noise, h)) for h in (h0, h0 / 2, h0 / 4)]
    return _richardson(f0, vals, h0)


def fisher_A_given_M(rho, h0: float = 1e-2) -> FisherEstimate:
    """Forward-difference derivative of S(A|M) along the quantum heat flow."""
    vals = [entropy_A_given_M(s) for s in heat_flow_A(rho, (h0, h0 / 2, h0 / 4))]
    return _richardson(entropy_A_given_M(rho), vals, h0)


def conditional_mutual_information(state: RegisterState, noise: RegisterNoise) -> float:
    """I(A:R|M) for an input and a noise over one register: zero by
    construction, but S(A|M), S(R|M) and S(AR|M) are each evaluated
    numerically, the last label by label from S(f_m) and S(rho_m)."""
    check_shared_register(noise, state)
    s_ar_given_m = sum(p * (shannon_entropy(f) + fk.von_neumann_entropy(st) * f.mass())
                       for p, st, f in zip(state.probs, state.states, noise.pdfs))
    return register_conditional_entropy_A(state) + cq_conditional_entropy_R_given_M(noise) - s_ar_given_m
