"""Scalar special-function kernels.

Everything downstream leans on four primitives: the log-gamma function, the
log-Pochhammer symbol, the confluent limit function 0F1 evaluated by its
ascending series, and the modified Bessel function K_nu evaluated through its
integral representation

    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt.

Magnitudes are wild (generalized factorials grow faster than n!), so the
kernels work in log space: ``log_gamma``, ``pochhammer_log`` and ``bessel_k``
return logarithms, and the 0F1 routines return log-scaled magnitudes.

A half-line quadrature helper rounds out the module.  It splits at an
automatically located peak and maps the far tail through an exponential
substitution, which is enough for integrands that decay faster than any
polynomial (the only kind used here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .exceptions import ConvergenceError, QuadratureError

__all__ = [
    "SeriesResult",
    "ComplexSeriesResult",
    "log_gamma",
    "pochhammer_log",
    "hyp0f1",
    "hyp0f1_complex",
    "bessel_k",
    "integrate_halfline",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def pochhammer_log(a: float, n: int) -> float:
    """ln (a)_n = ln Gamma(a + n) - ln Gamma(a) for a > 0, integer n >= 0."""
    if not a > 0:
        raise ValueError(f"pochhammer_log requires a > 0, got {a}")
    if n < 0:
        raise ValueError(f"pochhammer_log requires n >= 0, got {n}")
    if n == 0:
        return 0.0
    return math.lgamma(a + n) - math.lgamma(a)


@dataclass(frozen=True)
class SeriesResult:
    """Log-scaled outcome of a positive-term series evaluation.

    value is ln(sum), sign is the sign of the sum (always +1 for the series
    used here), terms_used counts the terms actually added.
    """

    value: float
    sign: int
    terms_used: int
    converged: bool


@dataclass(frozen=True)
class ComplexSeriesResult:
    """Log-scaled complex series value: sum = exp(log_mag) * phase."""

    log_mag: float
    phase: complex
    terms_used: int
    converged: bool


def hyp0f1(b: float, x: float, rel_tol: float = 1e-15, max_terms: int = 100000) -> SeriesResult:
    """Confluent limit function 0F1(; b; x) by its ascending series.

    Parameters
    ----------
    b : lower parameter, must be positive (the models only need b > 1).
    x : argument, must be nonnegative.  Values up to about 1e6 stay
        representable because the result is returned as a logarithm.
    rel_tol : stop once the current term falls below rel_tol times the
        running sum on two consecutive terms.
    max_terms : series budget; exceeding it raises ConvergenceError.

    Returns
    -------
    SeriesResult with value = ln 0F1(; b; x).
    """
    if not b > 0:
        raise ValueError(f"hyp0f1 requires b > 0, got {b}")
    if x < 0:
        raise ValueError(f"hyp0f1 requires x >= 0, got {x}")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    # All terms are positive: accumulate linearly, rescale on overflow risk.
    total = 1.0
    term = 1.0
    log_scale = 0.0
    small_streak = 0
    n = 0
    while n < max_terms:
        term *= x / ((b + n) * (n + 1))
        n += 1
        total += term
        if term < rel_tol * total:
            small_streak += 1
            if small_streak >= 2:
                return SeriesResult(math.log(total) + log_scale, 1, n + 1, True)
        else:
            small_streak = 0
        if total > 1e250:
            total *= 1e-250
            term *= 1e-250
            log_scale += 250.0 * math.log(10.0)
    raise ConvergenceError(
        f"hyp0f1({b}, {x}) did not converge within {max_terms} terms", terms_used=n
    )


def hyp0f1_complex(
    b: float, w: complex, rel_tol: float = 1e-15, max_terms: int = 100000
) -> ComplexSeriesResult:
    """0F1(; b; w) for complex w, as a log magnitude and a unit phase.

    Convergence is judged against the sum of term magnitudes, so heavy
    cancellation (w near the negative real axis) terminates correctly even
    when the result itself is small.
    """
    if not b > 0:
        raise ValueError(f"hyp0f1_complex requires b > 0, got {b}")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    total = 1.0 + 0.0j
    absum = 1.0
    term = 1.0 + 0.0j
    log_scale = 0.0
    small_streak = 0
    n = 0
    while n < max_terms:
        term *= w / ((b + n) * (n + 1))
        n += 1
        total += term
        absum += abs(term)
        if abs(term) < rel_tol * absum:
            small_streak += 1
            if small_streak >= 2:
                mag = abs(total)
                if mag == 0.0:
                    return ComplexSeriesResult(-math.inf, 1.0 + 0.0j, n + 1, True)
                return ComplexSeriesResult(
                    math.log(mag) + log_scale, total / mag, n + 1, True
                )
        else:
            small_streak = 0
        if absum > 1e250:
            total *= 1e-250
            term *= 1e-250
            absum *= 1e-250
            log_scale += 250.0 * math.log(10.0)
    raise ConvergenceError(
        f"hyp0f1_complex({b}, {w}) did not converge within {max_terms} terms",
        terms_used=n,
    )


def _log_cosh(u: float) -> float:
    u = abs(u)
    # log cosh u = u - log 2 + log1p(e^{-2u}), safe for any magnitude
    return u - math.log(2.0) + math.log1p(math.exp(-2.0 * u))


def bessel_k(nu: float, x: float) -> float:
    """ln K_nu(x) via the integral representation, for nu >= 0, x > 0.

    One uniform method covers every order the measure module asks for
    (nu = 1 + 1/q grows large as the nonlinearity q shrinks), including
    arguments where K itself would underflow.
    """
    if nu < 0:
        raise ValueError(f"bessel_k requires nu >= 0, got {nu}")
    if not x > 0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")

    # integrand exp(-x cosh t) cosh(nu t) peaks near x sinh t = nu
    t_peak = math.asinh(nu / x) if nu > 0 else 0.0
    lch_peak = _log_cosh(nu * t_peak)

    def log_rel(t: float) -> float:
        # log_f(t) - log_f(t_peak) without subtracting huge exponents:
        # cosh t - cosh t* = 2 sinh((t+t*)/2) sinh((t-t*)/2) exactly
        dcosh = 2.0 * math.sinh(0.5 * (t + t_peak)) * math.sinh(0.5 * (t - t_peak))
        return -x * dcosh + _log_cosh(nu * t) - lch_peak

    # adaptive truncation: walk right until 46 e-folds below the peak,
    # stepping by the Laplace width 1/sqrt(x cosh t) so huge arguments
    # (needle-shaped integrands) still land a resolvable interval
    dt = min(2.0, 9.6 / math.sqrt(x * math.cosh(t_peak)))
    t_hi = t_peak + dt
    while log_rel(t_hi) > -46.0:
        t_hi += dt

    points = [t_peak] if 0.0 < t_peak < t_hi else None
    val, err = quad(
        lambda t: math.exp(log_rel(t)),
        0.0,
        t_hi,
        points=points,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    if not val > 0 or err > 1e-10 * val:
        raise QuadratureError(
            f"bessel_k({nu}, {x}) quadrature failed to certify 1e-10",
            estimate=val,
            error_bound=err,
        )
    return -x * math.cosh(t_peak) + lch_peak + math.log(val)


def integrate_halfline(
    f: Callable[[float], float],
    rel_tol: float = 1e-10,
    full_output: bool = False,
):
    """Integrate f over (0, inf) for integrands decaying faster than any power.

    Strategy: locate the peak of |f| on a geometric scan, find the abscissa
    where |f| has dropped 18 decades below the peak, integrate the two finite
    pieces directly, and map the remaining tail through xi = cut * e^u.

    Returns the value, or (value, error_bound) when full_output is set.
    Raises QuadratureError (carrying the best estimate and its bound) when
    the requested relative tolerance cannot be certified.
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")

    grid = np.geomspace(1e-8, 1e8, 321)
    vals = np.abs([f(x) for x in grid])
    # extend the scan if the integrand has not decayed by the right edge
    while True:
        fmax = vals.max()
        if fmax == 0.0:
            return (0.0, 0.0) if full_output else 0.0
        tail_ok = vals[-1] < 1e-18 * fmax
        if tail_ok or grid[-1] >= 1e12:
            break
        ext = np.geomspace(grid[-1] * 10**0.05, grid[-1] * 10.0, 20)
        grid = np.concatenate([grid, ext])
        vals = np.concatenate([vals, np.abs([f(x) for x in ext])])
    i_peak = int(vals.argmax())
    x_peak = float(grid[i_peak])
    above = np.nonzero(vals[i_peak:] >= 1e-18 * fmax)[0]
    x_cut = float(grid[i_peak + above[-1]]) if above.size else x_peak
    if x_cut <= x_peak:
        x_cut = 10.0 * x_peak

    eps = rel_tol / 10.0
    v1, e1 = quad(f, 0.0, x_peak, epsabs=0.0, epsrel=eps, limit=200)
    v2, e2 = quad(f, x_peak, x_cut, epsabs=0.0, epsrel=eps, limit=200)
    # exponential tail map: int_cut^inf f = int_0^40 f(cut e^u) cut e^u du
    v3, e3 = quad(
        lambda u: f(x_cut * math.exp(u)) * x_cut * math.exp(u),
        0.0,
        40.0,
        epsabs=abs(v1 + v2) * eps + 1e-300,
        epsrel=eps,
        limit=200,
    )
    value = v1 + v2 + v3
    bound = e1 + e2 + e3
    if bound > rel_tol * abs(value):
        raise QuadratureError(
            f"half-line quadrature certified only {bound:.3g} absolute "
            f"against a target of {rel_tol:.3g} relative",
            estimate=value,
            error_bound=bound,
        )
    return (value, bound) if full_output else value
