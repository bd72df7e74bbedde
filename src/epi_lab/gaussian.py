"""Exact covariance-matrix calculus for Gaussian bosonic states.

Conventions: [Q, P] = i, vacuum covariance = I/2, natural logarithms.
Quadratures are ordered (Q1, P1, ..., Qn, Pn); each mode label owns one
consecutive (Q, P) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    LabelError,
    NegativeTimeError,
    NonPositiveError,
    ParameterError,
    PhysicalityError,
)
from .fock import xlogx

SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with 2x2 blocks ((0, 1), (-1, 0))."""
    upper = np.diag(np.resize([1.0, 0.0], 2 * n_modes - 1), 1)
    return upper - upper.T


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum nu_1 >= ... >= nu_n of a positive definite covariance:
    with cov = L L^T (Cholesky), i Delta cov is similar to the Hermitian
    i L^T Delta L, whose eigenvalues are +/- nu_k (Serafini, Quantum Continuous
    Variables, 2017), so one eigvalsh gives them with no pairing to tune."""
    cov = np.asarray(cov, dtype=float)
    n2 = cov.shape[0]
    if cov.shape != (n2, n2) or n2 % 2:
        raise DomainError(f"covariance must be 2n x 2n, got {cov.shape}")
    peak = float(np.abs(cov).max())
    if not math.isfinite(peak):
        raise DomainError("covariance matrix has a non-finite entry")
    if np.abs(cov - cov.T).max() > SYMMETRY_TOL * max(1.0, peak):
        raise DomainError("covariance matrix is not symmetric")
    try:
        low = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NonPositiveError("covariance matrix is not positive definite") from None
    return np.linalg.eigvalsh(1j * low.T @ symplectic_form(n2 // 2) @ low)[::-1][: n2 // 2]


def g_function(N: float) -> float:
    """Entropy of a thermal state with mean photon number N (natural log)."""
    if N < 0:
        raise DomainError(f"g is undefined for N = {N} < 0")
    return float(xlogx(N + 1.0) - xlogx(N))


@dataclass
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray
    mode_labels: tuple = ("A",)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.cov = np.asarray(self.cov, dtype=float)
        self.mode_labels = tuple(self.mode_labels)
        n2 = self.mean.size
        if n2 % 2 or self.cov.shape != (n2, n2):
            raise DomainError("mean must have length 2n and cov shape (2n, 2n)")
        if not all(map(math.isfinite, self.mean.tolist())):
            raise DomainError("mean must be finite")
        if len(self.mode_labels) != n2 // 2:
            raise LabelError("mode_labels must name each (Q, P) pair exactly once")
        if len(set(self.mode_labels)) != len(self.mode_labels):
            raise LabelError("mode_labels must be distinct")
        nu_min = symplectic_eigenvalues(self.cov).min()
        self.cov = 0.5 * (self.cov + self.cov.T)
        if nu_min < 0.5 - PHYSICALITY_TOL:
            raise PhysicalityError(f"minimum symplectic eigenvalue {nu_min} < 1/2")

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def indices(self, labels) -> list:
        """Row/column indices owned by the given mode labels (in given order)."""
        if isinstance(labels, str):
            labels = (labels,)
        idx = []
        for lab in labels:
            if lab not in self.mode_labels:
                raise LabelError(f"unknown mode label {lab!r}")
            k = self.mode_labels.index(lab)
            idx.extend([2 * k, 2 * k + 1])
        return idx


def vacuum_state() -> GaussianState:
    return GaussianState(np.zeros(2), 0.5 * np.eye(2))


def thermal_state(N: float) -> GaussianState:
    if N < 0:
        raise DomainError("mean photon number must be nonnegative")
    return GaussianState(np.zeros(2), (N + 0.5) * np.eye(2))


def coherent_state(alpha: complex) -> GaussianState:
    return GaussianState(math.sqrt(2) * np.array([alpha.real, alpha.imag]), 0.5 * np.eye(2))


def _entropy(cov: np.ndarray) -> float:
    """Sum of g(nu_k - 1/2) over the symplectic spectrum of cov. Thermal
    occupations below 1e-12 are floored to zero; they are eigenvalue noise
    at the vacuum bound, not physical population."""
    return float(sum(g_function(nu - 0.5) for nu in symplectic_eigenvalues(cov) if nu - 0.5 > 1e-12))


def gaussian_entropy(state: GaussianState) -> float:
    """von Neumann entropy: `_entropy` of the covariance."""
    return _entropy(state.cov)


def gaussian_conditional_entropy(state: GaussianState, target: str, memory: str) -> float:
    """S(target, memory) - S(memory): `_entropy` of the two covariance blocks."""
    if target == memory:
        raise LabelError(f"target and memory are the same mode {target!r}")
    joint, mem = state.indices((target, memory)), state.indices(memory)
    return _entropy(state.cov[np.ix_(joint, joint)]) - _entropy(state.cov[np.ix_(mem, mem)])


def _scale_mode(state: GaussianState, target: str, s: float, block: np.ndarray) -> GaussianState:
    """One-mode map: the target mode's mean and covariance rows and columns
    scale by s, then its covariance block gains `block`."""
    idx = state.indices(state.mode_labels[0] if target is None else target)
    mean, cov = state.mean.copy(), state.cov.copy()
    mean[idx] *= s
    cov[idx] *= s
    cov[:, idx] *= s
    cov[np.ix_(idx, idx)] += block
    return GaussianState(mean, cov, state.mode_labels)


def gaussian_heat_flow(state: GaussianState, t: float, target: str = None) -> GaussianState:
    """Additive-noise evolution: adds t * I to the target mode's covariance block."""
    if not t >= 0:  # NaN fails too
        raise NegativeTimeError(f"heat flow requires t >= 0, got {t}")
    return _scale_mode(state, target, 1.0, t * np.eye(2))


def tmsv_covariance(r: float) -> np.ndarray:
    """Covariance of a two-mode squeezed vacuum: diagonal blocks cosh(2r)/2 I,
    cross block diag(c, -c) with c = sinh(2r)/2."""
    if r < 0:
        raise DomainError("squeezing parameter must be nonnegative")
    a = math.cosh(2.0 * r) / 2.0
    c = math.sinh(2.0 * r) / 2.0
    return np.array(
        [
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, -c],
            [c, 0.0, a, 0.0],
            [0.0, -c, 0.0, a],
        ]
    )


def tmsv_state(r: float) -> GaussianState:
    return GaussianState(np.zeros(4), tmsv_covariance(r), ("A", "M"))


def tmsv_r_for_k(k: float) -> float:
    """Squeezing parameter realizing diagonal covariance blocks k^2 I,
    through cosh(2r) = 2 k^2."""
    if 2.0 * k ** 2 < 1:
        raise DomainError("needs 2 k^2 >= 1")
    return 0.5 * math.acosh(2.0 * k ** 2)


def tightness_covariance(k: float) -> np.ndarray:
    """Two-mode pure covariance with diagonal blocks k^2 I and cross-correlations
    +/- sqrt(k^4 - 1/4) on the (Q, Q) and (P, P) entries."""
    if k < 1:
        raise DomainError(f"tightness family requires k >= 1, got {k}")
    return tmsv_covariance(tmsv_r_for_k(k))


def tightness_state(k: float) -> GaussianState:
    return GaussianState(np.zeros(4), tightness_covariance(k), ("A", "M"))


def tightness_family(k: float, a: float, b: float):
    """Saturating family for the conditional entropy power inequality.

    Returns (rho_AM, f, rho_CM): the two-mode state heat-flowed by exp(a-1)
    on A, the Gaussian noise density with variance exp(b-1) as a grid pdf,
    and the channel output state whose A-block gains exp(a-1) + exp(b-1).
    `tightness_covariance` refuses k < 1.
    """
    from .phase_space import gaussian_pdf

    ta, tb = math.exp(a - 1.0), math.exp(b - 1.0)
    rho_am = gaussian_heat_flow(tightness_state(k), ta)
    f = gaussian_pdf(tb)
    rho_cm = gaussian_heat_flow(rho_am, tb)
    return rho_am, f, rho_cm


def qou_steady_covariance(mu: float, lam: float) -> np.ndarray:
    """Covariance of the damping-semigroup fixed point, (1/2)(lam^2+mu^2)/(mu^2-lam^2) I."""
    _check_qou_params(mu, lam)
    return 0.5 * (lam ** 2 + mu ** 2) / (mu ** 2 - lam ** 2) * np.eye(2)


def qou_mean_photon(mu: float, lam: float) -> float:
    """Mean photon number of the fixed point, lam^2 / (mu^2 - lam^2)."""
    _check_qou_params(mu, lam)
    return lam ** 2 / (mu ** 2 - lam ** 2)


def _check_qou_params(mu: float, lam: float):
    if not (mu > lam > 0):
        raise ParameterError(f"requires mu > lambda > 0, got mu={mu}, lambda={lam}")


def _qou_transmissivity(t: float, mu: float, lam: float) -> float:
    """Transmissivity exp(-(mu^2 - lam^2) t) of the damping semigroup at time t;
    raises ParameterError unless mu > lam > 0, then NegativeTimeError unless t >= 0."""
    _check_qou_params(mu, lam)
    if not t >= 0:  # NaN fails too
        raise NegativeTimeError(f"qOU evolution requires t >= 0, got {t}")
    return math.exp(-(mu ** 2 - lam ** 2) * t)


def gaussian_qou_evolution(state: GaussianState, t: float, mu: float, lam: float) -> GaussianState:
    """Damping-semigroup evolution of the first mode, as a beam splitter of
    transmissivity eta = `_qou_transmissivity` against the thermal fixed point.

    The mode's mean and covariance rows and columns scale by sqrt(eta), so its
    block becomes eta * block, and the block gains (1 - eta) * steady.
    """
    eta = _qou_transmissivity(t, mu, lam)
    return _scale_mode(state, None, math.sqrt(eta), (1 - eta) * qou_steady_covariance(mu, lam))


def mean_photon_number(state: GaussianState) -> float:
    """tr[n_hat rho] for the first mode: (tr block)/2 - 1/2 + |mean|^2 / 2."""
    mean, block = state.mean[:2], state.cov[:2, :2]
    return float(np.trace(block) / 2.0 - 0.5 + np.dot(mean, mean) / 2.0)


def relative_entropy_to_thermal_product(state: GaussianState, mu: float, lam: float) -> float:
    """D(rho_AM || omega_A x rho_M) against the damping-semigroup fixed point,
    with A the first mode and M the second, if there is one.

    Because log omega is affine in the number operator, the divergence reduces
    to -S(A|M) - log(1 - q) - <n_hat>_A log q with q = lam^2 / mu^2.
    """
    _check_qou_params(mu, lam)
    if state.n_modes > 2:
        raise LabelError("expected at most one memory mode")
    q = (lam / mu) ** 2
    if state.n_modes == 1:
        s_cond = gaussian_entropy(state)
    else:
        s_cond = gaussian_conditional_entropy(state, *state.mode_labels)
    n_avg = mean_photon_number(state)
    return float(-s_cond - math.log1p(-q) - n_avg * math.log(q))
