"""Conditional entropies for classical-quantum states, integral conditional
Fisher information through the entropy-difference identity, and differential
Fisher information by forward differences with Richardson extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from . import fock as fk
from .channels import (
    CQState,
    RegisterState,
    cq_classical_heat_flow,
    quantum_heat_flow_fock_multi,
    register_heat_flow_R,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InfiniteEntropyError,
    NegativeTimeError,
    QuadratureError,
)
from .gaussian import GaussianState, gaussian_conditional_entropy, gaussian_entropy, gaussian_heat_flow
from .phase_space import shannon_entropy


@dataclass
class FisherEstimate:
    """Finite-difference derivative of a conditional entropy at t = 0."""

    value: float
    step: float
    richardson_order: int
    uncertainty: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConvergenceError("Fisher estimate is not finite")
        self.uncertainty = abs(float(self.uncertainty))


def _entropy_of_probs(p: np.ndarray) -> float:
    return float(-xlogy(p, p).sum())


def _register_fields(reg: RegisterState):
    """Per-label densities embedded on one common lattice.

    Returns (fields, cell_weight) with fields of shape (n_labels, L, L).
    """
    if reg.pdfs is None:
        raise DomainError("register carries no classical densities")
    s = reg.pdfs[0].spacing
    orgs = np.array([f.origin for f in reg.pdfs])
    offs = np.round((orgs - orgs.min(axis=0)) / s).astype(int)
    sizes = np.array([f.size for f in reg.pdfs])
    L = int((offs + sizes[:, None]).max())
    fields = np.zeros((reg.n_labels, L, L))
    for m, f in enumerate(reg.pdfs):
        i0, j0 = offs[m]
        fields[m, i0 : i0 + f.size, j0 : j0 + f.size] = f.values
    return fields, s ** 2 / (2.0 * math.pi)


def cq_conditional_entropy_R_given_M(state) -> float:
    """Conditional entropy of the classical variable given the quantum side,
    computed through the chain rule S(M|R) + S(R) - S(M) with the average
    S(M|R) = sum_cells w(xi) S(rho_{M|R=xi}); a two-mode quantum side is
    (A, M) and only M enters."""
    if isinstance(state, RegisterState):
        return _register_entropy_R_given_M(state)
    if not isinstance(state, CQState):
        raise DomainError(f"unsupported state type {type(state).__name__}")
    w = state.weights()
    if state.is_independent:
        cond = state.conditionals
        marg = cond if cond.n_modes == 1 else fk.partial_trace(cond, cond.mode_labels[-1])
        s_m_given_r = fk.von_neumann_entropy(marg)
        s_m = s_m_given_r
    else:
        conds = state.conditionals
        if conds[0].n_modes == 2:
            conds = [fk.partial_trace(c, c.mode_labels[-1]) for c in conds]
        ent = np.array([fk.von_neumann_entropy(c) for c in conds])
        s_m_given_r = float(w @ ent)
        mixed = fk.FockState(
            conds[0].mode_dims,
            np.tensordot(w, np.stack([c.matrix for c in conds]), axes=1),
            conds[0].mode_labels,
        )
        s_m = fk.von_neumann_entropy(mixed)
    s_r = shannon_entropy(state.grid)
    total = s_m_given_r + s_r - s_m
    if not math.isfinite(total):
        raise InfiniteEntropyError("a constituent entropy is not finite")
    return total


def _register_entropy_R_given_M(reg: RegisterState) -> float:
    fields, cell_w = _register_fields(reg)
    weighted = reg.probs[:, None, None] * fields
    mix = weighted.sum(axis=0)
    s_r = float(-xlogy(mix, mix).sum() * cell_w)
    # posterior label entropy per cell, averaged against the mixture
    joint_term = float(xlogy(weighted, weighted).sum() * cell_w)
    mix_term = float(xlogy(mix, mix).sum() * cell_w)
    s_m_given_r = mix_term - joint_term
    s_m = _entropy_of_probs(reg.probs)
    total = s_m_given_r + s_r - s_m
    if not math.isfinite(total):
        raise InfiniteEntropyError("a constituent entropy is not finite")
    return total


def register_conditional_entropy_A(reg: RegisterState) -> float:
    """S(A|M) for a classical register memory: the label-averaged entropy."""
    return float(sum(p * fk.von_neumann_entropy(s) for p, s in zip(reg.probs, reg.states)))


def heat_R(state, t: float):
    """Classical heat flow on the noise R of a register or classical-quantum state."""
    if isinstance(state, RegisterState):
        return register_heat_flow_R(state, t)
    return cq_classical_heat_flow(state, t)


def integral_fisher_R_given_M(state, t: float) -> float:
    """Entropy gained by the classical variable under heat flow for time t."""
    if t < 0:
        raise NegativeTimeError(f"requires t >= 0, got {t}")
    if t == 0:
        return 0.0
    return cq_conditional_entropy_R_given_M(heat_R(state, t)) - cq_conditional_entropy_R_given_M(state)


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
    label's state of a register) for each time in t_list."""
    if isinstance(state, GaussianState):
        return [gaussian_heat_flow(state, t, state.mode_labels[0]) for t in t_list]
    if isinstance(state, RegisterState):
        evolved = [quantum_heat_flow_fock_multi(s, t_list) for s in state.states]
        return [RegisterState(state.probs, outs, state.pdfs, state.labels) for outs in zip(*evolved)]
    if isinstance(state, fk.FockState):
        return quantum_heat_flow_fock_multi(state, t_list)
    raise DomainError(f"unsupported state type {type(state).__name__}")


def _richardson(f0: float, values, h0: float) -> FisherEstimate:
    """Three-level Richardson extrapolation of a forward difference."""
    d = [(v - f0) / h for v, h in zip(values, (h0, h0 / 2, h0 / 4))]
    e1 = 2 * d[1] - d[0]
    e2 = 2 * d[2] - d[1]
    g = (4 * e2 - e1) / 3.0
    est = FisherEstimate(value=float(g), step=h0, richardson_order=3, uncertainty=abs(g - e2))
    if est.uncertainty > 0.05 * abs(est.value):
        raise ConvergenceError(
            f"Fisher estimate {est.value} has uncertainty {est.uncertainty}"
        )
    return est


def fisher_spacing(h0: float) -> float:
    """Coarsest noise grid that resolves the smallest Fisher step h0/4."""
    return 0.25 * math.sqrt(h0 / 4)


def fisher_R_given_M(state, h0: float = 1e-2) -> FisherEstimate:
    """Forward-difference derivative of S(R|M) along the classical heat flow.

    The grid must resolve the smallest step (see `fisher_spacing`), otherwise
    the sampled kernels bias the derivative.
    """
    spacing = state.pdfs[0].spacing if isinstance(state, RegisterState) else state.grid.spacing
    if spacing > fisher_spacing(h0) * (1 + 1e-12):
        raise QuadratureError(
            f"spacing {spacing:.4g} too coarse for Fisher step h0={h0}"
        )
    f0 = cq_conditional_entropy_R_given_M(state)
    vals = [cq_conditional_entropy_R_given_M(heat_R(state, h)) for h in (h0, h0 / 2, h0 / 4)]
    return _richardson(f0, vals, h0)


def fisher_A_given_M(rho, h0: float = 1e-2) -> FisherEstimate:
    """Forward-difference derivative of S(A|M) along the quantum heat flow."""
    vals = [entropy_A_given_M(s) for s in heat_flow_A(rho, (h0, h0 / 2, h0 / 4))]
    return _richardson(entropy_A_given_M(rho), vals, h0)


def conditional_mutual_information(reg: RegisterState, memory: str = "register") -> float:
    """I(A:R|M) for register families, or I(A:R) after discarding the register.

    memory="register" conditions on the labels (zero by construction, but all
    three entropies are evaluated numerically); memory="trivial" marginalizes
    the labels, where correlated pairs give a strictly positive value.
    """
    fields, cell_w = _register_fields(reg)
    if memory == "register":
        s_a_given_m = register_conditional_entropy_A(reg)
        s_r_given_m = cq_conditional_entropy_R_given_M(reg)
        s_ar_given_m = 0.0
        for p, st, f, field in zip(reg.probs, reg.states, reg.pdfs, fields):
            mass = field.sum() * cell_w
            s_ar_given_m += p * (shannon_entropy(f) + fk.von_neumann_entropy(st) * mass)
        return s_a_given_m + s_r_given_m - s_ar_given_m
    if memory != "trivial":
        raise DomainError("memory must be 'register' or 'trivial'")
    weighted = reg.probs[:, None, None] * fields
    mix = weighted.sum(axis=0)
    s_r = float(-xlogy(mix, mix).sum() * cell_w)
    mats = np.stack([s.matrix for s in reg.states])
    s_a = fk.von_neumann_entropy(
        fk.FockState(reg.states[0].mode_dims, np.tensordot(reg.probs, mats, axes=1),
                     reg.states[0].mode_labels)
    )
    # S(A|R): per-cell posterior states, entropies batched over cells
    L = mix.shape[0]
    flat_w = weighted.reshape(reg.n_labels, L * L)
    mix_flat = mix.reshape(L * L)
    live = mix_flat > 1e-300
    post = np.einsum("mc,mij->cij", flat_w[:, live] / mix_flat[live], mats)
    s_cells = np.zeros(live.sum())
    B = 4096
    for lo in range(0, post.shape[0], B):
        w = np.linalg.eigvalsh(post[lo : lo + B])
        w = np.clip(w, 0.0, None)
        s_cells[lo : lo + B] = -xlogy(w, w).sum(axis=1)
    s_a_given_r = float((mix_flat[live] * s_cells).sum() * cell_w)
    s_ar = s_r + s_a_given_r
    return s_a + s_r - s_ar
