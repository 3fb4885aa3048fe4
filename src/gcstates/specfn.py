"""Special-function kernels.

Everything downstream leans on three primitives: the log-Pochhammer symbol,
the confluent limit function 0F1 and the modified Bessel function K_nu.
Every 0F1, real (a ladder's ln N, <n> and var) or complex (the overlap
kernel's), is summed on one window of its series terms around their mode
(``hyp0f1_terms``), anchored by Stirling's formula for the first term.  For
a complex |w| past 1e8 ``hyp0f1`` instead takes
Gamma(b) w^{(1-b)/2} I_{b-1}(2 sqrt w), with the scaled Bessel function from
Amos's algorithm (ACM TOMS 12 (1986) 265, Algorithm 644,
``scipy.special.ive``), wherever that is finite.  K_nu comes from the same
algorithm (``kve``) below the order DEBYE_NU_MIN = 12, and from Debye's
uniform expansion (DLMF 10.41; Olver 1974, ch. 10) above it and past Amos's
argument limit x ~ 1.07e9.

Magnitudes are wild (generalized factorials grow faster than n!), so the
kernels work in log space: ``pochhammer_log`` and the two Bessel routines
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
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, QuadratureError

__all__ = [
    "SeriesResult",
    "pochhammer_log",
    "hyp0f1_term_log",
    "hyp0f1_terms",
    "hyp0f1",
    "bessel_k",
    "bessel_density_log",
    "integrate_halfline",
]


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
    and complex for a complex one, p[0] = 1 and the ratios' cumulative
    product written behind it in place; ln t_lo is hyp0f1_term_log(b, |w|, lo)
    + i lo arg w.  A mode past HYP0F1_MODE_MAX, or a NaN w, raises ValueError.
    """
    size = abs(w)
    # the positive root of n (n + |b - 1|) = |w|; `or 1.0` spares 0/0 at w = 0, b = 1
    mode = 2.0 * size / ((abs(b - 1.0) + math.hypot(b - 1.0, 2.0 * math.sqrt(size))) or 1.0)
    if not mode <= HYP0F1_MODE_MAX:
        raise ValueError(f"|w| = {size:g} puts the 0F1 window's mode past "
                         f"n = {HYP0F1_MODE_MAX:g}")
    half = int(9.0 * math.sqrt(mode + 1.0)) + 30
    lo = max(int(mode) - half, 0)
    n = np.arange(lo, int(mode) + half + 1, dtype=float)
    ratio = w / ((b + n[:-1]) * n[1:])  # n[1:] is n[:-1] + 1 exactly
    p = np.empty(len(n), dtype=ratio.dtype)
    p[0] = 1.0
    ratio.cumprod(out=p[1:])
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


#: least order at which K_nu comes from Debye's expansion, not kve
DEBYE_NU_MIN = 12.0


def bessel_k(nu: float, x):
    """ln K_nu(x) for nu >= 0 and x > 0, a float or an array of them.

    Below DEBYE_NU_MIN, ln kve(nu, x) - x with Amos's kve = K e^x.  From it
    on at every x, and past Amos's limit x ~ 1.07e9 (kve NaN) at any nu > 0,
    Debye's ln(pi/2nu)/2 - nu (s - asinh(nu/x)) + ln sum - ln s/2 (see
    _debye), within 3e-14 of ln K at nu = 12 to 13.5.  Where neither answers
    (K_nu or nu/x past the double range, or nu = 0 past Amos's limit)
    ValueError names nu and the x refused.  A float x gives a float.
    """
    if nu < 0:
        raise ValueError(f"bessel_k requires nu >= 0, got {nu}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise ValueError(f"bessel_k requires x > 0, got {np.min(xs)}")
    out = np.full(xs.shape, math.nan)
    if nu < DEBYE_NU_MIN:
        from scipy.special import kve

        out = np.log(kve(nu, xs)) - xs  # inf where K_nu overflows, NaN past Amos
    debye = np.isnan(out) & (nu > 0)
    if debye.any():
        s, _, rest = _debye(nu, xs[debye])
        with np.errstate(over="ignore"):  # an infinite nu/x is refused below
            out[debye] = (0.5 * math.log(math.pi / (2.0 * nu)) + rest
                          - nu * (s - np.arcsinh(nu / xs[debye])))
    refused = ~np.isfinite(out)
    if refused.any():
        raise ValueError(f"bessel_k({nu}, x) refuses x in [{xs[refused].min():.6g}, "
                         f"{xs[refused].max():.6g}]: K_nu (below nu = {DEBYE_NU_MIN:g}) "
                         f"or nu/x must fit a double, and nu > 0 past Amos's limit")
    return float(out[0]) if np.ndim(x) == 0 else out


def bessel_density_log(nu: float, u):
    """ln[2 u^{nu/2} K_nu(2 sqrt u) / Gamma(nu + 1)], nu >= 0, u finite > 0 (or an array).

    The density with Mellin transform Gamma(s) Gamma(s + nu)/Gamma(nu + 1).  Below
    DEBYE_NU_MIN it adds bessel_k to ln 2 - ln Gamma(nu + 1) + nu/2 ln u, parts
    O(nu ln nu) that cancel; from it on Debye's sum at x = 2 sqrt u (see _debye) and
    Stirling give nu (log1p(d/2) - d) - ln nu - mu(nu) + ln sum - ln s/2, all O(1).
    """
    us = np.asarray(u, dtype=float)
    if not np.all((us > 0) & (us < math.inf)):
        raise ValueError(f"bessel_density_log needs finite u > 0, got [{us.min()}, {us.max()}]")
    x = 2.0 * np.sqrt(us)
    if nu < DEBYE_NU_MIN:
        out = math.log(2.0) - math.lgamma(nu + 1.0) + 0.5 * nu * np.log(us) + bessel_k(nu, x)
    else:
        _, d, rest = _debye(nu, x)
        out = nu * (np.log1p(0.5 * d) - d) - math.log(nu) - _binet(nu) + rest
    return float(out) if np.ndim(u) == 0 else out


def _debye(nu: float, x):
    """(s, d, ln sum - ln s/2) of Debye's K_nu(nu z) ~ (pi/2nu)^(1/2) e^{-nu eta} sum/s^(1/2):
    z = x/nu, s = sqrt(1 + z^2), d = s - 1, sum = sum_{k<16} (-1)^k U_k(1/s)/nu^k, DLMF 10.41.4."""
    z = x / nu
    s = np.hypot(1.0, z)
    tail = np.zeros_like(s)  # sum - 1: U_0 = 1 is the only constant term
    for c in ((-1.0 / nu) ** np.arange(16) @ _debye_table())[:0:-1]:
        tail = tail / s + c
    return s, z * (z / (1.0 + s)), np.log1p(tail / s) - 0.5 * np.log(s)


@functools.cache
def _debye_table():
    """Row k < 16: U_k(p) by power of p, built on first use from U_0 = 1 and
    U_{k+1} = p^2 (1 - p^2) U_k'/2 + int_0^p (1 - 5t^2) U_k dt / 8 (DLMF 10.41.10)."""
    table = np.eye(16, 46)  # U_0 = 1; rows 1..15 are overwritten
    j = np.arange(1.0, 46.0)
    for k in range(1, 16):
        u, du = table[k - 1], j * table[k - 1, 1:]
        table[k, 1:] = (u[:-1] - 5.0 * np.append([0.0, 0.0], u[:-3])) / (8.0 * j)
        table[k, 2:] += 0.5 * (du[:-1] - np.append([0.0, 0.0], du[:-3]))
    return table


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
