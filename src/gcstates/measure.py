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
u = ln xi and compares against exp(rho_log_label(n)) computed from the
ladder steps.  The two routes share no formula, which is the point.  One
array of weights serves every n; the check holds at n_max = 8 for q from
1e-10 to 5 and for exp-mass with mu from 1e-6 to 1e4.
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
    out = spec.ladder.weight_log(xi)
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


#: the moment grid: 1025 nodes in u = ln xi from ln 1e-30 to ln 1e12
_U = np.linspace(math.log(1e-30), math.log(1e12), 1025)
_H = (_U[-1] - _U[0]) / 1024


def verify_moments(spec: ModelSpec, n_max: int = 8) -> list[MomentReport]:
    """Check int w~(xi) xi^n dxi = rho_n for n = 0..n_max.

    In u = ln xi the integrand w~(e^u) e^{(n+1)u} is smooth and decays at
    both ends, so its trapezoid sum on the fixed grid _U converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  The
    error bound is the change from the sum on every other node, plus the
    integrand at both end nodes (past them it falls at least as e^{-|u|}),
    plus a rounding unit; QuadratureError when it exceeds CERTIFY_TOL times
    the sum (exp-mass with mu = 1e-12, say).  n_max is capped at 12.  A
    moment passes below MOMENT_TOL relative error; the n = 0 moment, the
    measure normalization, below the tighter MOMENT0_TOL.

    At large q the weight's mass moves past the grid's end, xi = 1e12.  On
    20 q per decade the sum certifies up to q = 8.9e8 at n_max = 8 (refused
    from 1e9), 6.3e8 at n_max = 12 (from 7.1e8) and 4.0e9 at n_max = 0
    (from 4.5e9).  ValueError refuses, before the sum, a rho_n past the double
    range (q = 1e160 at n = 2) and xi/q = 0 at the first node (from q ~ 4e293).
    """
    if n_max != int(n_max) or not 0 <= n_max <= 12:
        raise ValueError(f"n_max must be an integer in 0..12, got {n_max}")
    n = np.arange(int(n_max) + 1)
    analytic = []
    for k in n.tolist():
        try:
            analytic.append(math.exp(models.rho_log_label(spec, k)))
        except OverflowError:
            param = f"q = {spec.nonlinearity}" if spec.mu is None else f"mu = {spec.mu}"
            raise ValueError(f"{spec.id} at {param}: rho_{k} overflows a double; "
                             f"no moment n >= {k} can be checked") from None
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.exp(weight_tilde_log(spec, np.exp(_U)) + np.outer(n + 1, _U))
        ends = f[:, 0] + f[:, -1]
        full = _H * (f.sum(axis=1) - 0.5 * ends)
        half = 2.0 * _H * (f[:, ::2].sum(axis=1) - 0.5 * ends)
        bound = abs(full - half) + ends + np.finfo(float).eps * full
    reports = []
    for k, value, err, rho in zip(n.tolist(), full.tolist(), bound.tolist(), analytic):
        if not (value > 0 and err <= CERTIFY_TOL * value):
            msg = f"moment {k}: grid sum certified to {err:.3g}, not {CERTIFY_TOL:.3g} relative"
            raise QuadratureError(msg, estimate=value, error_bound=err)
        rel = abs(value - rho) / rho
        cut = MOMENT0_TOL if k == 0 else MOMENT_TOL
        reports.append(MomentReport(k, value, rho, rel, err, cut, rel < cut))
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


def classify_growth(step_fn, probes=(64, 512, 4096)) -> tuple[str, float | None]:
    """Classify lim step(n): diverging steps mean an infinite label domain.

    The radius of convergence of sum x^n/rho_n is lim rho_n^{1/n}, which for
    monotone steps equals lim step(n) (Cesaro).  Three probe depths separate
    divergence from saturation.
    """
    s1, s2, s3 = (float(step_fn(p)) for p in probes)
    if not (s1 > 0 and s2 >= s1 and s3 >= s2):
        raise ValueError("classify_growth expects positive nondecreasing steps")
    if s3 - s1 > max(0.1 * s1, 1.0):
        return "infinite", None
    return "finite", s3


def radius(spec: ModelSpec) -> RadiusReport:
    """Label-domain radius for a built-in model (infinite for all of them)."""
    classification, value = classify_growth(lambda n: models.step(spec, n))
    probe = 1024
    diagnostic = math.exp(models.rho_log_label(spec, probe) / probe)
    if value is not None:
        value *= spec.label_scale**2
    return RadiusReport(classification, value, diagnostic)
