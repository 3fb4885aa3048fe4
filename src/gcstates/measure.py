"""Resolution-of-unity measure and its moment verification.

For each model the coherent states resolve the identity with a positive
weight on the label plane.  Writing xi = |z|^2, the reduced weight w~ (the
full weight divided by the normalization N) must reproduce the generalized
factorial as its moment sequence:

    int_0^inf  w~(xi) xi^n dxi  =  rho_n            (label units)

The model's ladder family supplies the weight.  For the quadratic ladder
of the singular-mass oscillators it is a modified Bessel kernel, obtained
from the Mellin pair Gamma(s) Gamma(s + nu) with nu = 1 + 1/q:

    w~(xi) = 2 (xi/q)^{nu/2} K_nu(2 sqrt(xi/q)) / (q Gamma(2 + 1/q)),

and for the linear ladder it collapses to the Gamma-distribution kernel
w~(xi) = exp(-xi/mu^2)/mu^2 (exp-mass; constant-mass limit: exp(-xi)).

``verify_moments`` sums the weight against xi^n on one fixed grid in
u = ln(xi/S), S the weight's first moment, and compares against rho_n
computed from the ladder steps.  The two routes share no formula, which is
the point.  One array of weights serves every n, and the check holds for
every mu and, from q = 5.6e-305, every q that the ladder's steps allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .exceptions import QuadratureError
from .models import ModelSpec

__all__ = [
    "MomentReport",
    "RadiusReport",
    "weight_tilde_log",
    "weight_tilde",
    "verify_moments",
    "classify_growth",
    "radius",
]


def weight_tilde_log(spec: ModelSpec, xi):
    """ln of the reduced resolution-of-unity weight at xi = |z|^2 > 0 (float or array)."""
    if not np.all(np.asarray(xi) > 0):
        raise ValueError(f"xi must be positive, got {np.min(xi)}")
    scale = spec.ladder.moment_scale * spec.label_scale**2
    out = spec.ladder.scaled_weight_log(xi / scale) - math.log(scale)
    return float(out) if np.ndim(out) == 0 else out


def weight_tilde(spec: ModelSpec, xi: float) -> float:
    """Reduced weight w~(xi), strictly positive on (0, inf)."""
    return math.exp(weight_tilde_log(spec, xi))


@dataclass(frozen=True)
class MomentReport:
    """One grid-sum moment against rho_n; it passes when rel_error < threshold."""

    n: int
    quadrature: float
    analytic_rho: float
    rel_error: float
    quad_error_estimate: float
    threshold: float
    passed: bool


#: relative moment error allowed for n >= 1, and for the n = 0 normalization;
#: relative error bound the grid sum must certify before either is applied
MOMENT_TOL = 1e-6
MOMENT0_TOL = 1e-8
CERTIFY_TOL = 1e-10


#: the moment grid: 513 nodes in u = ln t from ln 1e-17 to ln 1e4, step 0.094
_U = np.linspace(math.log(1e-17), math.log(1e4), 513)
_H = (_U[-1] - _U[0]) / 512


def verify_moments(spec: ModelSpec, n_max: int = 8) -> list[MomentReport]:
    """Check int w~(xi) xi^n dxi = rho_n for n = 0..n_max (n_max <= 12).

    The sum runs in t = xi/S, S = sigma label_scale^2 with sigma = rho_1 the
    ladder's moment_scale (from its closed parameters, not from the steps,
    whose bias it would cancel).  S w~(S t) has its mass near t = 1 and the
    moments rho_n/sigma^n, doubles for every model make_model accepts.  In
    u = ln t its trapezoid sum on the fixed grid _U converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  The error bound is the
    change from the sum on every other node, plus the integrand at both end
    nodes (below 3e-17 of the sum, and past them it falls at least as
    e^{-|u|}), plus a rounding unit; QuadratureError when it exceeds
    CERTIFY_TOL times the sum.  A moment passes below MOMENT_TOL relative
    error, the n = 0 normalization below the tighter MOMENT0_TOL.

    rel_error and passed come from that scaled comparison; the other values
    are in label units (times S^n), inf or 0 past the double range.  The
    weight refuses q below 5.6e-305, and rho_log a step past the double
    range (e_8 from q ~ 2.5e306), with ValueError.
    """
    if n_max != int(n_max) or not 0 <= n_max <= 12:
        raise ValueError(f"n_max must be an integer in 0..12, got {n_max}")
    n = np.arange(int(n_max) + 1)
    ladder, sigma = spec.ladder, spec.ladder.moment_scale
    scaled = [math.exp(models.rho_log(spec, k) - k * math.log(sigma)) for k in n.tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.exp(ladder.scaled_weight_log(np.exp(_U)) + np.outer(n + 1, _U))
        ends = f[:, 0] + f[:, -1]
        full = _H * (f.sum(axis=1) - 0.5 * ends)
        half = 2.0 * _H * (f[:, ::2].sum(axis=1) - 0.5 * ends)
        bound = abs(full - half) + ends + np.finfo(float).eps * full
        unit = ((sigma * spec.label_scale**2) ** n).tolist()  # S^n, inf or 0 past doubles
    reports = []
    for k, value, err, rho, s in zip(n.tolist(), full.tolist(), bound.tolist(), scaled, unit):
        if not (value > 0 and err <= CERTIFY_TOL * value):
            msg = f"moment {k}: grid sum certified to {err:.3g}, not {CERTIFY_TOL:.3g} relative"
            raise QuadratureError(msg, estimate=value, error_bound=err)
        rel = abs(value - rho) / rho
        cut = MOMENT0_TOL if k == 0 else MOMENT_TOL
        reports.append(MomentReport(k, value * s, rho * s, rel, err * s, cut, rel < cut))
    return reports


@dataclass(frozen=True)
class RadiusReport:
    """Classification of the coherent-state label domain.

    classification is 'infinite' or 'finite'; value carries the finite
    radius estimate (None when infinite); diagnostic is rho_n^{1/n} at the
    probe depth, in label units.
    """

    classification: str
    value: float | None
    diagnostic: float


#: step indices classify_growth compares
GROWTH_PROBES = (64, 512, 4096)


def classify_growth(step_fn) -> tuple[str, float | None]:
    """Classify lim step(n): diverging steps mean an infinite label domain.

    The radius of convergence of sum x^n/rho_n is lim rho_n^{1/n}, which for
    monotone steps equals lim step(n) (Cesaro).  Three probe depths separate
    divergence from saturation.
    """
    s1, s2, s3 = (float(step_fn(p)) for p in GROWTH_PROBES)
    if not (s1 > 0 and s2 >= s1 and s3 >= s2):
        raise ValueError("classify_growth expects positive nondecreasing steps")
    if s3 - s1 > max(0.1 * s1, 1.0):
        return "infinite", None
    return "finite", s3


def radius(spec: ModelSpec) -> RadiusReport:
    """Label-domain radius for a built-in model (infinite for all of them)."""
    classification, value = classify_growth(lambda n: models.step(spec, n))
    probe = 1024
    diagnostic = math.exp(models.rho_log(spec, probe) / probe) * spec.label_scale**2
    if value is not None:
        value *= spec.label_scale**2
    return RadiusReport(classification, value, diagnostic)
