"""Special-function kernels.

Everything downstream leans on four primitives: the log-gamma function, the
log-Pochhammer symbol, the confluent limit function 0F1 and the modified
Bessel function K_nu.  Every 0F1, real (a ladder's ln N, <n> and var) or
complex (the overlap kernel's), is summed on one window of its series terms
around their mode (``hyp0f1_terms``), anchored by Stirling's formula for
the first term.  For a complex |w| past 1e8 ``hyp0f1`` instead takes
Gamma(b) w^{(1-b)/2} I_{b-1}(2 sqrt w), with the scaled Bessel function from
Amos's algorithm (ACM TOMS 12 (1986) 265, Algorithm 644,
``scipy.special.ive``), wherever that is finite.  K_nu, for a float or an
array of arguments, comes from the same algorithm (``kve``) where it is
finite, from forward recurrence in the order where K_nu itself overflows a
double (small x at large nu), and from Hankel's series beyond Amos's
argument limit x ~ 1.07e9.

Magnitudes are wild (generalized factorials grow faster than n!), so the
kernels work in log space: ``log_gamma``, ``pochhammer_log`` and ``bessel_k``
return logarithms, and ``hyp0f1`` returns the complex ln 0F1.

``integrate_halfline``, adaptive quadrature over (0, inf), is kept as the
independent reference the moment check's grid sum is tested against.

scipy is imported inside the routines that call it, so ``import gcstates``
loads none of it.  ``quad`` is a module-level function that imports
``scipy.integrate.quad`` on its first call; it stays a ``specfn`` attribute
so that a caller can replace it (a tracer counting quad's integrand
evaluations, say), and ``integrate_halfline`` looks it up by that name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, QuadratureError

__all__ = [
    "SeriesResult",
    "log_gamma",
    "pochhammer_log",
    "hyp0f1_term_log",
    "hyp0f1_terms",
    "hyp0f1",
    "bessel_k",
    "integrate_halfline",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


#: least z whose Binet remainder is a series; its next term is below 1e-18 there
STIRLING_MIN = 52.0
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _binet(z: float) -> float:
    """Binet's mu(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2, z > 0: from
    STIRLING_MIN on 1/(12z) - 1/(360z^3) + 1/(1260z^5) - 1/(1680z^7) (DLMF 5.11.1)."""
    if z < STIRLING_MIN:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LN_2PI
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z


def pochhammer_log(a: float, n: int) -> float:
    """ln (a)_n = ln Gamma(a + n) - ln Gamma(a) for a > 0, integer n >= 0, in O(1).

    The Stirling difference n ln a + (a + n - 1/2) log1p(n/a) - n + mu(a + n)
    - mu(a); the lgamma difference cancels (by 1e-7 at a = 1e10).
    """
    if not (a > 0 and n >= 0 and n / a < math.inf):
        raise ValueError(f"pochhammer_log requires a > 0, n >= 0 and a finite n/a, "
                         f"got {a}, {n}")
    return n * math.log(a) + (a + n - 0.5) * math.log1p(n / a) - n + (
        _binet(a + n) - _binet(a))


def hyp0f1_term_log(b: float, w: float, n: int) -> float:
    """ln t_n = ln[w^n / ((b)_n n!)], term n of the series of 0F1(; b; w), b, w > 0.

    In O(1) by Stirling's formula: n ln(w / (n (b + n))) - (b - 1/2) log1p(n/b)
    + 2n - ln(2 pi n)/2 - mu(n) - mu(b + n) + mu(b).  Its parts are O(n);
    those of n ln w - ln (b)_n - ln n! are O(n ln n) and cancel near the
    terms' mode w ~ n (b + n), there losing about 1e-15 relative.
    """
    if n == 0:
        return 0.0
    if not (b > 0 and w > 0):
        raise ValueError(f"hyp0f1_term_log requires b > 0 and w > 0, got {b}, {w}")
    return (n * math.log(w / (n * (b + n))) - (b - 0.5) * math.log1p(n / b) + 2.0 * n
            - 0.5 * math.log(n) - _HALF_LN_2PI - _binet(n) - _binet(b + n) + _binet(b))


@dataclass(frozen=True)
class SeriesResult:
    """ln of a series' sum, ln|sum| + i arg(sum), and the terms added (0 for a closed form)."""

    value: complex
    terms_used: int


#: largest |w| at which hyp0f1 sums the window; beyond it the Bessel form
HYP0F1_SERIES_MAX = 1e8

#: deepest mode of a 0F1 term window
HYP0F1_MODE_MAX = 1e8


def hyp0f1_terms(b: float, w: complex):
    """(n, p): the terms t_n = w^n / ((b)_n n!) of 0F1(; b; w) around the mode of |t_n|.

    n runs over lo..hi, 9 sqrt(n* + 1) + 30 terms each side of the mode n*
    of |t_n|, where the tails, no heavier than a Poisson's with its mode at
    n*, are below about 1e-17 of the sum of |t_n|.  p holds the running
    products t_n/t_lo of t_{n+1}/t_n = w/((b + n)(n + 1)), real for a real w
    and complex for a complex one; ln t_lo is hyp0f1_term_log(b, |w|, lo)
    + i lo arg w.  A mode past HYP0F1_MODE_MAX, or a NaN w, raises ValueError.
    """
    size = abs(w)
    # the positive root of n (n + |b - 1|) = |w|; `or 1.0` spares 0/0 at w = 0, b = 1
    mode = 2.0 * size / ((abs(b - 1.0) + math.sqrt((b - 1.0) ** 2 + 4.0 * size)) or 1.0)
    if not mode <= HYP0F1_MODE_MAX:
        raise ValueError(f"|w| = {size:g} puts the 0F1 window's mode past "
                         f"n = {HYP0F1_MODE_MAX:g}")
    half = int(9.0 * math.sqrt(mode + 1.0)) + 30
    lo = max(int(mode) - half, 0)
    n = np.arange(lo, int(mode) + half + 1, dtype=float)
    p = np.cumprod(np.concatenate(([1.0], w / ((b + n[:-1]) * (n[:-1] + 1.0)))))
    return n, p


def hyp0f1(b: float, w: complex) -> SeriesResult:
    """ln 0F1(; b; w) = ln|F| + i arg F, arg in (-pi, pi], for b > 0 and a complex w.

    Up to |w| = HYP0F1_SERIES_MAX it sums the window of hyp0f1_terms:
    ln t_lo + ln sum p, with terms_used the window's length.  Beyond it,
    DLMF 10.39.9 with Amos's scaled complex Bessel function (``ive``) gives

        ln 0F1(; b; w) = ln Gamma(b) + (1-b)/2 ln w
                         + ln ive(b-1, 2 sqrt w) + Re(2 sqrt w),

    reported with terms_used = 0.  Where ive is not a non-zero finite number
    (it underflows at large order b >> |w|^(1/2), and is NaN past Amos's
    argument limit) the window is summed instead, and a window whose mode
    lies past HYP0F1_MODE_MAX raises ConvergenceError.

    By ive, ln|F| is accurate to about 1e-13 relative.  The window's sum
    cancels off the positive axis, so there F is accurate only to about
    1e-13 times 0F1(; b; |w|), the scale of sqrt(N_a N_b) in a
    coherent-state overlap.
    """
    if not b > 0:
        raise ValueError(f"hyp0f1 requires b > 0, got {b}")
    if abs(w) > HYP0F1_SERIES_MAX:
        from scipy.special import ive

        s = 2.0 * cmath.sqrt(w)
        scaled = ive(b - 1.0, s)
        if 0.0 < abs(scaled) < math.inf:
            value = math.lgamma(b) + 0.5 * (1.0 - b) * cmath.log(w) + cmath.log(scaled) + s.real
            return SeriesResult(complex(value.real, math.remainder(value.imag, math.tau)), 0)
    try:
        n, p = hyp0f1_terms(b, w)
    except ValueError as exc:
        raise ConvergenceError(f"hyp0f1({b}, {w}): ive fails and {exc}") from None
    lo = int(n[0])
    # math.atan2, not cmath.phase, which overflows on a subnormal imaginary part
    value = (hyp0f1_term_log(b, abs(w), lo) + 1j * lo * math.atan2(w.imag, w.real)
             + cmath.log(p.sum()))
    return SeriesResult(complex(value.real, math.remainder(value.imag, math.tau)), len(n))


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
    from scipy.special import kve

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


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


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
