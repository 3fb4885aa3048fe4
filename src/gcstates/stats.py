"""Photon statistics of the coherent states.

The number distribution P_n = |c_n|^2 determines everything here.  The
series route (direct sums over the truncated distribution) is the ground
truth; the closed-form route evaluates the ladder family's analytic
expressions, which for the quadratic ladder of the singular-mass
oscillators are ratios of neighboring 0F1 values:

    <n>   = x/(1+2q)           * 0F1(b+1; x/q) / 0F1(b; x/q)
    <n^2> = <n> + x^2/((1+2q)(1+3q)) * 0F1(b+2; x/q) / 0F1(b; x/q)

with b = 2 + 1/q and x = |z|^2.  The linear ladder is exactly Poissonian:
mean (|z|/mu)^2 for exp-mass, |z|^2 for the constant-mass reference.

The Mandel parameter Q = (var - mean)/mean classifies a state below, at, or
above Poissonian counting statistics.  The round-off in a series Q grows
with the mean, so the classification band is Q_TOL * max(1, <n>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .coherent import CoherentState, construct
from .models import ModelSpec

__all__ = [
    "StatsSummary",
    "distribution",
    "summary_series",
    "summary_closed",
    "classify",
    "mandel_q_closed",
    "match_mean_abs_z",
]

#: classification boundary half-width on Q up to <n> = 1; it grows with <n>
Q_TOL = 1e-9


@dataclass(frozen=True)
class StatsSummary:
    model: str
    z_abs: float
    mean: float
    second_moment: float
    variance: float
    mandel_q: float
    classification: str
    method: str


def distribution(state: CoherentState) -> np.ndarray:
    """Number distribution P_n = |c_n|^2 over the window, n = n0..n0+dim-1."""
    return np.exp(2.0 * state.log_coeff)


def classify(q: float, tol: float = Q_TOL) -> str:
    """Label counting statistics by the sign of the Mandel parameter."""
    if q < -tol:
        return "sub-Poissonian"
    if q > tol:
        return "super-Poissonian"
    return "Poissonian"


def _mandel_q(mean: float, variance: float) -> float:
    # vacuum limit: empty distribution counts as Poissonian
    return variance / mean - 1.0 if mean > 0 else 0.0


def _summary(state, mean, second, variance, method) -> StatsSummary:
    q = _mandel_q(mean, variance)
    return StatsSummary(
        model=state.spec.id,
        z_abs=abs(state.z),
        mean=mean,
        second_moment=second,
        variance=variance,
        mandel_q=q,
        classification=classify(q, Q_TOL * max(1.0, mean)),
        method=method,
    )


def summary_series(state: CoherentState) -> StatsSummary:
    """Mean, variance and Mandel Q by direct summation (ground truth).

    The variance is the centred sum of (n - <n>)^2 P_n, which does not
    cancel the way <n^2> - <n>^2 does at a large mean.
    """
    p = distribution(state)
    n = state.n0 + np.arange(state.dim, dtype=float)
    mean = float(np.dot(n, p))
    variance = float(np.dot((n - mean) ** 2, p))
    return _summary(state, mean, variance + mean**2, variance, "series")


def _closed_moments(spec: ModelSpec, abs_z_sq: float) -> tuple[float, float]:
    """Closed-form (mean, second moment) pair in the number operator."""
    return spec.ladder.moments(abs_z_sq / spec.label_scale**2)


def summary_closed(state: CoherentState) -> StatsSummary:
    """Mean, variance and Mandel Q from the model's closed forms."""
    mean, second = _closed_moments(state.spec, abs(state.z) ** 2)
    return _summary(state, mean, second, second - mean**2, "closed_form")


def mandel_q_closed(spec: ModelSpec, abs_z: float) -> float:
    """Closed-form Mandel Q at label magnitude |z| without building a state."""
    if abs_z < 0:
        raise ValueError(f"abs_z must be nonnegative, got {abs_z}")
    mean, second = _closed_moments(spec, abs_z**2)
    return _mandel_q(mean, second - mean**2)


def match_mean_abs_z(spec: ModelSpec, target_mean: float) -> float:
    """Label magnitude |z| at which the state's mean occupation hits a target.

    The closed-form mean is strictly increasing in |z|, so a bracketed root
    solve is enough.
    """
    if not target_mean > 0:
        raise ValueError(f"target_mean must be positive, got {target_mean}")

    def gap(abs_z):
        return spec.ladder.mean(abs_z**2 / spec.label_scale**2) - target_mean

    lo, hi = 1e-9, 2.0 * spec.label_scale * math.sqrt(target_mean) + 1.0
    while gap(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("mean matching failed to bracket the target")
    return float(brentq(gap, lo, hi, xtol=1e-13, rtol=1e-14))


def summary_for(spec: ModelSpec, z: complex, eps: float = 1e-12) -> StatsSummary:
    """Convenience: construct the state and summarize it by series."""
    return summary_series(construct(spec, z, eps=eps))
