"""Special-function kernels.

Everything downstream leans on three primitives: the log-Pochhammer symbol,
the confluent limit function 0F1 and the modified Bessel function K_nu.
Every 0F1, real (a ladder's ln N, <n> and var) or complex (the overlap
kernel's), is summed on one window of its series terms around their mode
(``hyp0f1_terms``), anchored by Stirling's formula for the first term.  For
a complex |w| past 1e8 ``hyp0f1`` instead takes
Gamma(b) w^{(1-b)/2} I_{b-1}(2 sqrt w), with the scaled Bessel function from
Amos's algorithm (ACM TOMS 12 (1986) 265, Algorithm 644,
``scipy.special.ive``), wherever that is finite.  K_nu enters only through
the oscillators' measure density, which is one trapezoid sum on K_nu's
integral (DLMF 10.32.10) at every order nu >= 1 and every x.

Magnitudes are wild (generalized factorials grow faster than n!), so the
kernels work in log space: ``pochhammer_log`` and ``bessel_density_log``
return logarithms, and ``hyp0f1`` returns the complex ln 0F1.

scipy is imported inside the routine that calls it, so ``import gcstates``
loads none of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError

__all__ = [
    "SeriesResult",
    "pochhammer_log",
    "hyp0f1_term_log",
    "hyp0f1_terms",
    "hyp0f1",
    "bessel_density_log",
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


#: 1/16!, ..., 1/2!: the Taylor coefficients of g(r) = e^r - 1 - r over r^2
_G_SERIES = [1.0 / math.factorial(j) for j in range(16, 1, -1)]


def _left_end(m):
    """a with m g(-a) >= 36, as g(-a) = e^{-a} - 1 + a exceeds a - 1 and a^2/(2 + a)."""
    return np.minimum(1.0 + 36.0 / m, (18.0 + np.sqrt(324.0 + 72.0 * m)) / m)


def bessel_density_log(nu: float, u):
    """ln[2 u^{nu/2} K_nu(2 sqrt u) / Gamma(nu + 1)] for finite nu >= 1 and u >= 0 (or an array).

    The density with Mellin transform Gamma(s) Gamma(s + nu)/Gamma(nu + 1).  By
    u^{nu/2} K_nu(2 sqrt u) = int_0^inf s^{nu-1} e^{-s-u/s} ds / 2 (DLMF 10.32.10) at
    s = m e^r, m = (nu + A)/2 the peak, A = hypot(nu, 2 sqrt u) and k = u/m = m - nu,
    and Stirling's formula, it is a sum of O(1) parts, nu log1p(k/nu) - 2k - ln nu/2
    - mu(nu) - ln(2 pi)/2 + ln int e^{-E(r)} dr, where E(r) = nu g(r) + k (e^r - 1)^2
    e^{-r} >= 0, g(r) = e^r - 1 - r, is about A r^2/2 near r = 0.  The integral is a
    trapezoid sum, geometric in its step (Trefethen & Weideman, SIAM Rev. 56 (2014)
    385), from -_left_end(m) to 9 widths w = A^{-1/2}, where E has passed 36, on as
    many nodes as u = 0 needs at steps of min(w/2, 1/5) (no u's step is then past
    0.6 w), so each value depends on its own u alone.  g is expm1(r) - r, which loses
    nu eps |r|, or where u = 0's nodes all lie in |r| < 1/2 (nu > 360) its series.
    """
    if not 1.0 <= nu < math.inf:
        raise ValueError(f"bessel_density_log needs a finite nu >= 1, got {nu}")
    us = np.asarray(u, dtype=float)
    if not np.all((us >= 0) & (us < math.inf)):
        raise ValueError(f"bessel_density_log needs finite u >= 0, got [{us.min()}, {us.max()}]")
    big = np.hypot(nu, 2.0 * np.sqrt(us))
    k = us / (0.5 * (nu + big))
    lo, lo0, width0 = -_left_end(nu + k), float(_left_end(nu)), nu**-0.5
    nodes = 1 + math.ceil((lo0 + 9.0 * width0) / min(0.5 * width0, 0.2))
    step = (9.0 / np.sqrt(big) - lo) / (nodes - 1)
    # in place on (len(u), nodes) arrays: plain expressions' temporaries double the cost
    r = np.multiply.outer(step, np.arange(nodes, dtype=float))
    r += lo[..., None]
    em1 = np.expm1(r)
    kterm = em1 + 1.0  # e^r to eps e^{-r} relative, lost far left where nu g(r) ~ nu |r|
    np.divide(em1, kterm, out=kterm)
    kterm *= em1
    kterm *= -k[..., None]
    if max(lo0, 9.0 * width0) < 0.5:
        g = np.polyval(_G_SERIES, r)
        g *= np.square(r, out=r)
    else:
        g = np.subtract(em1, r, out=em1)
    g *= -nu
    g += kterm
    total = np.exp(g, out=g).sum(axis=-1) * step
    out = (nu * np.log1p(k / nu) - 2.0 * k + np.log(total)
           - (0.5 * math.log(nu) + _binet(nu) + _HALF_LN_2PI))
    return float(out) if np.ndim(u) == 0 else out


# kept because the benchmark tracer (perfbench) replaces it by name; goes with its next change
def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)
