"""Photon statistics of the coherent states.

The number distribution P_n = |c_n|^2 determines everything here.  The
series route (direct sums over the truncated distribution) is the ground
truth; the closed-form route sums the ladder family's normalizer.  For the
quadratic ladder of the singular-mass oscillators P_n is proportional to
the terms t_n = w^n / ((b)_n n!) of N = 0F1(; b; w), b = 2 + 1/q, w = |z|^2/q:

    <n> = sum n t_n / sum t_n = w 0F1(b+1; w) / (b 0F1(b; w)),
    var = sum (n - <n>)^2 t_n / sum t_n,

one centred pass over the terms around their mode.  The linear ladder is
exactly Poissonian: mean = var = (|z|/mu)^2 for exp-mass, |z|^2 for the
constant-mass reference.  ``match_mean_abs_z`` inverts <n> by Newton's
method in ln |z|^2, with the exact slope d ln<n>/d ln |z|^2 = var/<n>.

The Mandel parameter Q = (var - mean)/mean classifies a state below, at, or
above Poissonian counting statistics.  The round-off in a series Q grows
with the mean, so the classification band is Q_TOL * max(1, <n>).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent import CoherentState
from .exceptions import ConvergenceError
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
    n = np.arange(state.n0, state.n0 + state.dim, dtype=float)
    mean = float(np.dot(n, p))
    variance = float(np.dot((n - mean) ** 2, p))
    return _summary(state, mean, variance + mean**2, variance, "series")


def summary_closed(state: CoherentState) -> StatsSummary:
    """Mean, variance and Mandel Q from the closed forms construct kept on the state."""
    mean, variance = state.mean_closed, state.var_closed
    return _summary(state, mean, variance + mean**2, variance, "closed_form")


def mandel_q_closed(spec: ModelSpec, abs_z: float) -> float:
    """Closed-form Mandel Q at label magnitude |z| without building a state."""
    if abs_z < 0:
        raise ValueError(f"abs_z must be nonnegative, got {abs_z}")
    return _mandel_q(*spec.ladder.mean_var(abs_z**2 / spec.label_scale**2))


#: Newton steps match_mean_abs_z takes before it gives up
MATCH_MAX_STEPS = 60


def match_mean_abs_z(spec: ModelSpec, target_mean: float) -> float:
    """Label magnitude |z| at which the state's mean occupation hits a target.

    Newton's method on ln <n> = ln target in u = ln x, x = (|z|/scale)^2,
    slope var/<n>, from x = e_1 target where <n> <= target.  ln <n> is
    concave in u (its slope 1 + Q falls), so the steps climb from below; a
    step out of the bracket seen so far goes to the bracket's geometric
    midpoint.  It stops on a step below 1e-9 in u and raises
    ConvergenceError after MATCH_MAX_STEPS evaluations.
    """
    if not sys.float_info.min <= target_mean < math.inf:
        raise ValueError(f"target_mean must be a positive normal float, got {target_mean}")
    lo, hi = 0.0, math.inf  # x below and above the root
    x = target_mean * spec.ladder.step(1)
    for _ in range(MATCH_MAX_STEPS):
        mean, var = spec.ladder.mean_var(x)
        gap = math.log(mean / target_mean)
        if gap < 0:
            lo = x
        elif gap > 0:
            hi = x
        step = gap * mean / var
        if abs(step) < 1e-9:
            return spec.label_scale * math.sqrt(x * math.exp(-step))
        x = x * math.exp(-step)
        if not lo < x < hi:
            x = math.sqrt(lo) * math.sqrt(hi)
    raise ConvergenceError(
        f"mean matching for target {target_mean:g} did not settle in {MATCH_MAX_STEPS} steps"
    )
