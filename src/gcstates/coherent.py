"""Lowering-operator eigenstates (generalized coherent states).

A state with label z solves L- |z> = zeta |z> inside the model's eigenbasis:

    |z> = N(|zeta|^2)^{-1/2} * sum_n  zeta^n / sqrt(rho_n) |phi_n>,

where zeta = z / label_scale is the label in the dimensionless units of the
ladder steps and rho_n is the generalized factorial.  The model's ladder
family supplies the closed normalization: 0F1(2 + 1/q; |z|^2/q) for the
quadratic ladder of the singular-mass oscillators (label_scale 1), and
exp(|zeta|^2) for the linear ladder (exp-mass: zeta = z/mu).

Coefficients are stored as log magnitude plus unit phase because rho_n
outruns double precision quickly.  Construction always evaluates N twice,
once by direct series and once by closed form, and refuses to return a state
if the two disagree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConsistencyError, ConvergenceError
from .fockrep import TruncatedOperators
from .models import ModelSpec

__all__ = [
    "CoherentState",
    "construct",
    "norm_log_closed",
    "annihilation_residual",
    "overlap",
    "overlap_kernel",
    "label_continuity",
    "to_record",
    "coeffs_from_record",
]

_LOG_TINY = math.log(1e-18)


@dataclass(frozen=True)
class CoherentState:
    """Truncated coefficient expansion of one coherent state.

    log_coeff[n] + i*arg(phase[n]) encodes the normalized coefficient c_n;
    log_norm is ln N from the direct series and log_norm_closed the same
    quantity from the model's closed form.  tail_bound bounds the discarded
    probability mass relative to the full norm.
    """

    spec: ModelSpec
    z: complex
    zeta: complex
    dim: int
    log_coeff: np.ndarray
    phase: np.ndarray
    log_norm: float
    log_norm_closed: float
    tail_bound: float
    eps: float

    def coeffs(self) -> np.ndarray:
        """Normalized complex coefficient vector c_0..c_{dim-1}."""
        return np.exp(self.log_coeff) * self.phase


def norm_log_closed(spec: ModelSpec, abs_z_sq: float) -> float:
    """ln N(|z|^2) from the model's closed form, z the physical label."""
    if abs_z_sq < 0:
        raise ValueError(f"abs_z_sq must be nonnegative, got {abs_z_sq}")
    return spec.ladder.norm_log(abs_z_sq / spec.label_scale**2)


def construct(spec: ModelSpec, z: complex, eps: float = 1e-12) -> CoherentState:
    """Build the coherent state with label z, truncated to tolerance eps.

    The truncation keeps coefficients through the first index (past the
    coefficient peak, where successive term ratios drop below 1/2) whose
    probability weight |c_n|^2 falls below eps^2.  That makes the last kept
    coefficient itself O(eps), so the annihilation residual of the truncated
    vector is O(eps |z|), and leaves the discarded mass far below eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"label must be finite, got {z}")
    zeta = z / spec.label_scale
    x = abs(zeta) ** 2

    if x == 0.0:
        return CoherentState(
            spec=spec,
            z=z,
            zeta=zeta,
            dim=1,
            log_coeff=np.zeros(1),
            phase=np.ones(1, dtype=complex),
            log_norm=0.0,
            log_norm_closed=norm_log_closed(spec, 0.0),
            tail_bound=0.0,
            eps=eps,
        )

    log_x = math.log(x)
    # e_n exactly as models.step gives it, without its per-call validation
    ladder_step, gain = spec.ladder.step, 1.0 + spec.step_bias
    stop = min(_LOG_TINY, 2.0 * math.log(eps) + math.log(0.5))
    tlogs = [0.0]
    total = 0.0  # ln of running sum
    n = 0
    max_terms = 100000
    while n < max_terms:
        n += 1
        t = tlogs[-1] + log_x - math.log(ladder_step(n) * gain)
        tlogs.append(t)
        total = np.logaddexp(total, t)
        if t - total <= stop and x / (ladder_step(n + 1) * gain) <= 0.5:
            break
    else:
        raise ConvergenceError(
            f"coherent series for |zeta|^2 = {x} did not converge", terms_used=n
        )
    log_norm = float(total)

    # smallest kept range whose last coefficient is already below eps
    dim = None
    for m in range(len(tlogs)):
        if (
            tlogs[m] - log_norm <= 2.0 * math.log(eps)
            and x / (ladder_step(m + 1) * gain) <= 0.5
        ):
            dim = m + 1
            break
    if dim is None:  # pragma: no cover - the scan loop guarantees a hit
        dim = len(tlogs)

    t_next = tlogs[dim - 1] + log_x - math.log(ladder_step(dim) * gain)
    r_next = x / (ladder_step(dim + 1) * gain)
    tail_bound = math.exp(t_next - log_norm) / (1.0 - r_next)

    theta = cmath.phase(zeta)
    ns = np.arange(dim)
    log_coeff = (np.asarray(tlogs[:dim]) - log_norm) / 2.0
    phase = np.exp(1j * theta * ns)

    # the closed normalizer only describes the unbiased ladder, so the
    # cross-check is skipped when a fault has been injected deliberately;
    # the tolerance grows with ln N, as in models.rho_log
    closed = norm_log_closed(spec, abs(z) ** 2)
    gap = abs(log_norm - closed)
    if spec.step_bias == 0.0 and gap > 1e-9 + 1e-12 * abs(log_norm):
        raise ConsistencyError(
            f"normalization mismatch for {spec.id}, z={z}: series ln N = "
            f"{log_norm!r}, closed form = {closed!r}"
        )

    log_coeff.setflags(write=False)
    phase.setflags(write=False)
    return CoherentState(
        spec=spec,
        z=z,
        zeta=zeta,
        dim=dim,
        log_coeff=log_coeff,
        phase=phase,
        log_norm=log_norm,
        log_norm_closed=closed,
        tail_bound=tail_bound,
        eps=eps,
    )


def annihilation_residual(state: CoherentState, ops: TruncatedOperators) -> float:
    """Norm of (L- - zeta) applied to the truncated coefficient vector.

    Exact cancellation holds on every interior index, so the residual is the
    pure truncation leak |zeta| |c_{dim-1}|, of order eps |zeta|.
    """
    if ops.spec != state.spec:
        raise ValueError("operators and state were built from different models")
    if ops.dim < state.dim:
        raise ValueError(
            f"operator space (dim {ops.dim}) smaller than the state (dim {state.dim})"
        )
    c = np.zeros(ops.dim, dtype=complex)
    c[: state.dim] = state.coeffs()
    return float(np.linalg.norm(ops.lowering @ c - state.zeta * c))


def overlap_kernel(a: CoherentState, b: CoherentState) -> complex:
    """<a|b> from the analytic kernel N(conj(zeta_a) zeta_b) / sqrt(Na Nb)."""
    if a.spec != b.spec:
        raise ValueError("overlap requires states of the same model")
    log_mag, phase = a.spec.ladder.norm_kernel(a.zeta.conjugate() * b.zeta)
    return math.exp(log_mag - 0.5 * (a.log_norm + b.log_norm)) * phase


def overlap(a: CoherentState, b: CoherentState) -> complex:
    """<a|b>, computed from the coefficient vectors and cross-checked.

    The coefficient sum and the analytic kernel must agree to 1e-8 in
    absolute value; disagreement raises ConsistencyError.
    """
    if a.spec != b.spec:
        raise ValueError("overlap requires states of the same model")
    m = min(a.dim, b.dim)
    series = complex(np.sum(np.conj(a.coeffs()[:m]) * b.coeffs()[:m]))
    kernel = overlap_kernel(a, b)
    if abs(series - kernel) > 1e-8:
        raise ConsistencyError(
            f"overlap mismatch for {a.spec.id}: series {series!r} vs kernel {kernel!r}"
        )
    return series


def label_continuity(state: CoherentState, delta: float) -> float:
    """Squared norm distance || |z + delta> - |z> ||^2 for a real shift.

    Scales like delta^2 / label_scale^2 for small delta, which is the
    quantitative form of label continuity.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    shifted = construct(state.spec, state.z + delta, eps=state.eps)
    m = max(state.dim, shifted.dim)
    ca = np.zeros(m, dtype=complex)
    cb = np.zeros(m, dtype=complex)
    ca[: state.dim] = state.coeffs()
    cb[: shifted.dim] = shifted.coeffs()
    return float(np.linalg.norm(cb - ca) ** 2)


def to_record(state: CoherentState) -> dict:
    """JSON-ready record of one state (used by the CLI)."""
    return {
        "model": state.spec.id,
        "z_re": state.z.real,
        "z_im": state.z.imag,
        "dim": state.dim,
        "coeffs": [
            [float(lm), float(p.real), float(p.imag)]
            for lm, p in zip(state.log_coeff, state.phase)
        ],
        "log_norm": state.log_norm,
    }


def coeffs_from_record(record: dict) -> np.ndarray:
    """Complex coefficient vector encoded in a serialized record."""
    rows = np.asarray(record["coeffs"], dtype=float)
    return np.exp(rows[:, 0]) * (rows[:, 1] + 1j * rows[:, 2])
