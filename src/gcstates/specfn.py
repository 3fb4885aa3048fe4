"""Special-function kernels.

Everything downstream leans on four primitives: the log-gamma function, the
log-Pochhammer symbol, the confluent limit function 0F1 and the modified
Bessel function K_nu.  0F1 is summed by its ascending series up to x = 1e8;
beyond that it is Gamma(b) x^{(1-b)/2} I_{b-1}(2 sqrt x), with the scaled
Bessel function from Amos's algorithm (ACM TOMS 12 (1986) 265, Algorithm 644,
``scipy.special.ive``).  K_nu, for a float or an array of arguments, comes
from the same algorithm (``kve``) where it is finite, from forward
recurrence in the order where K_nu itself overflows a double (small x at
large nu), and from Hankel's series beyond Amos's argument limit x ~ 1.07e9.

Magnitudes are wild (generalized factorials grow faster than n!), so the
kernels work in log space: ``log_gamma``, ``pochhammer_log`` and ``bessel_k``
return logarithms, and the 0F1 routines return log-scaled magnitudes.

``integrate_halfline``, adaptive quadrature over (0, inf), is kept as the
independent reference the moment check's grid sum is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import ive, kve

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
    if n < a:  # lgamma(a + n) - lgamma(a) cancels, by 1e-9 at a = 1e6
        return n * math.log(a) + math.fsum(math.log1p(k / a) for k in range(1, n))
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


#: largest argument hyp0f1 sums by its series; beyond it the Bessel form
HYP0F1_SERIES_MAX = 1e8


def hyp0f1(b: float, x: float, rel_tol: float = 1e-15, max_terms: int = 100000) -> SeriesResult:
    """Confluent limit function 0F1(; b; x).

    Up to x = HYP0F1_SERIES_MAX the ascending series is summed; beyond it,
    where the series needs some 2 sqrt(x) terms,

        ln 0F1(; b; x) = ln Gamma(b) + (1-b)/2 ln x
                         + ln ive(b-1, 2 sqrt x) + 2 sqrt x,

    reported with terms_used = 0.  Where ive is not a positive finite
    number (2 sqrt x beyond Amos's argument limit) the series is tried.

    Parameters
    ----------
    b : lower parameter, must be positive (the models only need b > 1).
    x : argument, must be nonnegative.  The result is returned as a
        logarithm, so it stays representable far beyond exp(709).
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
    if x > HYP0F1_SERIES_MAX:
        s = 2.0 * math.sqrt(x)
        scaled = ive(b - 1.0, s)
        if 0.0 < scaled < math.inf:
            value = math.lgamma(b) + 0.5 * (1.0 - b) * math.log(x)
            return SeriesResult(value + math.log(scaled) + s, 1, 0, True)
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


#: Amos's argument limit (2**31 - 1)/2 ~ 1.07e9: kve and ive are NaN beyond it
AMOS_X_MAX = (2**31 - 1) / 2

#: highest order the forward recurrence climbs to, one array pass per order
BESSEL_K_ORDER_MAX = 100_000


def bessel_k(nu: float, x):
    """ln K_nu(x) for nu >= 0 and x > 0, a float or an array of them.

    * ln kve(nu, x) - x, with kve = K e^x from Amos's algorithm, wherever
      kve is finite.
    * where K_nu itself overflows (small x at large order, e.g. nu = 101,
      x = 1e-3): kve at the orders mu = nu - floor(nu) and mu + 1, then the
      ratio r of neighbouring orders carried up by r <- 1/r + 2(mu + m)/x,
      summing ln r, up to BESSEL_K_ORDER_MAX.  Forward recurrence is the
      stable direction for K, the dominant solution (DLMF 10.29).
    * x > AMOS_X_MAX, where kve is NaN: Hankel's large-argument series
      1/2 ln(pi/2x) - x + ln sum_k a_k(nu)/x^k, accepted once its last kept
      term is below 1e-16.

    Elsewhere ValueError, naming nu and the range of x refused.  A float x
    gives a float.
    """
    if nu < 0:
        raise ValueError(f"bessel_k requires nu >= 0, got {nu}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise ValueError(f"bessel_k requires x > 0, got {np.min(xs)}")
    out = np.log(kve(nu, xs)) - xs  # inf where K_nu overflows, NaN past Amos
    far = np.isnan(out)
    out[far] = [_bessel_k_hankel(nu, v) for v in xs[far]]
    near = np.isinf(out)
    if near.any() and nu <= BESSEL_K_ORDER_MAX:
        x_near, mu = xs[near], nu - math.floor(nu)
        k0 = kve(mu, x_near)
        log_k = np.log(k0) - x_near
        # at subnormal x the starting orders overflow too: no finite result
        with np.errstate(over="ignore", invalid="ignore"):
            r = kve(mu + 1.0, x_near) / k0  # K_{mu+1}/K_mu; e^x cancels
            for m in range(1, math.floor(nu) + 1):
                log_k += np.log(r)  # now ln K_{mu+m}
                r = 1.0 / r + 2.0 * (mu + m) / x_near
        out[near] = log_k
    refused = ~np.isfinite(out)
    if refused.any():
        raise ValueError(
            f"bessel_k({nu}, x) refuses x in [{xs[refused].min():.6g}, "
            f"{xs[refused].max():.6g}]: Hankel's series needs nu^2 << x, the "
            f"recurrence order <= {BESSEL_K_ORDER_MAX} and x not subnormal"
        )
    return float(out[0]) if np.ndim(x) == 0 else out


def _bessel_k_hankel(nu: float, x: float) -> float:
    """ln K_nu(x) by Hankel's series, or NaN if no term reaches 1e-16."""
    mu = 4.0 * nu * nu
    total = term = 1.0
    for k in range(1, 64):
        nxt = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(nxt) >= abs(term):
            return math.nan  # the asymptotic series turned before converging
        term = nxt
        total += term
        if abs(term) < 1e-16:
            return 0.5 * math.log(math.pi / (2.0 * x)) - x + math.log(total)
    return math.nan


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
