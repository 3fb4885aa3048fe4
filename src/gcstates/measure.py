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

``verify_moments`` integrates the weight against xi^n with the half-line
quadrature and compares against exp(rho_log_label(n)) computed from the
ladder steps.  The two routes share no formula, which is the point.  Each
weight value costs one ``specfn.bessel_k`` call, which is one Amos ``kve``
evaluation except at small xi for large nu (q below 0.02), where
K_nu overflows and the certified integral representation takes over; the
check holds at n_max = 8 for q from 0.01 to 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import models
from .models import ModelSpec
from .specfn import integrate_halfline

__all__ = [
    "MomentReport",
    "RadiusReport",
    "weight_tilde_log",
    "weight_tilde",
    "weight",
    "verify_moments",
    "classify_growth",
    "radius",
]


def weight_tilde_log(spec: ModelSpec, xi: float) -> float:
    """ln of the reduced resolution-of-unity weight at xi = |z|^2 > 0."""
    if not xi > 0:
        raise ValueError(f"xi must be positive, got {xi}")
    return spec.ladder.weight_log(xi)


def weight_tilde(spec: ModelSpec, xi: float) -> float:
    """Reduced weight w~(xi), strictly positive on (0, inf)."""
    return math.exp(weight_tilde_log(spec, xi))


def weight(spec: ModelSpec, xi: float) -> float:
    """Full weight w(xi) = w~(xi) N(xi).

    Evaluated through the closed normalization (0F1 or exponential), which
    keeps this route independent of the coefficient series.
    """
    if not xi > 0:
        raise ValueError(f"xi must be positive, got {xi}")
    return spec.ladder.weight(xi)


@dataclass(frozen=True)
class MomentReport:
    n: int
    quadrature: float
    analytic_rho: float
    rel_error: float
    quad_error_estimate: float
    passed: bool


#: relative moment error allowed for n >= 1, and for the n = 0 normalization
MOMENT_TOL = 1e-6
MOMENT0_TOL = 1e-8


def verify_moments(
    spec: ModelSpec,
    n_max: int = 8,
    rel_tol: float = 1e-10,
    threshold: float = MOMENT_TOL,
    n0_threshold: float = MOMENT0_TOL,
) -> list[MomentReport]:
    """Check int w~(xi) xi^n dxi = rho_n for n = 0..n_max.

    n_max is capped at 12: beyond that the quadrature of xi^n against the
    Bessel tail starts trading accuracy for range and the check loses its
    meaning.  The n = 0 moment is the measure normalization itself and is
    held to the tighter n0_threshold.
    """
    if n_max != int(n_max) or not 0 <= n_max <= 12:
        raise ValueError(f"n_max must be an integer in 0..12, got {n_max}")
    reports = []
    for n in range(int(n_max) + 1):

        def integrand(xi, _n=n):
            return math.exp(weight_tilde_log(spec, xi) + _n * math.log(xi))

        value, err = integrate_halfline(integrand, rel_tol=rel_tol, full_output=True)
        analytic = math.exp(models.rho_log_label(spec, n))
        rel = abs(value - analytic) / analytic
        cut = n0_threshold if n == 0 else threshold
        reports.append(
            MomentReport(
                n=n,
                quadrature=value,
                analytic_rho=analytic,
                rel_error=rel,
                quad_error_estimate=err,
                passed=rel < cut,
            )
        )
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
