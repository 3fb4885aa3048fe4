"""Special-function layer: 0F1 and its terms, the K_nu routes.

A real 0F1 is the quadratic ladder's window sum where b > 2, and the complex
kernel at complex(x, 0) below.
"""

import cmath
import math
import re

import numpy as np
import pytest
import scipy.special as sp

from gcstates import measure
from gcstates.exceptions import ConvergenceError
from gcstates.models import QuadraticLadder
from gcstates.specfn import (
    DEBYE_NU_MIN,
    HYP0F1_SERIES_MAX,
    bessel_density_log,
    bessel_k,
    hyp0f1,
    hyp0f1_term_log,
    hyp0f1_terms,
    pochhammer_log,
)

# Amos's argument limit (2**31 - 1)/2 ~ 1.07e9: kve is NaN beyond it
AMOS_X_MAX = (2**31 - 1) / 2

# frozen from a 30-digit arbitrary-precision evaluation
F01_1_1 = 2.27958530233606727
F01_15_1 = 1.81343020392350938
F01_12_10 = 2.24463643712114278
LOG_F01_12_1E6 = 1936.76741503949720
K0_1 = 0.421024438240708333
K_HALF_2 = 0.119937771968061447
LNK_35_50 = -51.6114420540941755
K_NU007_74 = 76.6542933125059149  # nu = 1 + 1/0.07
POCH_HALF_2 = -0.287682072451780927
POCH_B027_3 = 5.68547711536778566


def real_0f1_log(b, x):
    """ln 0F1(; b; x), x >= 0: the window of the ladder with 2 + 1/q = b, else the kernel."""
    if b > 2.0:
        return QuadraticLadder(1.0 / (b - 2.0), 1.0).closed(x / (b - 2.0))[0]
    return hyp0f1(b, complex(x, 0.0)).value.real


@pytest.mark.parametrize("w", [0.3, 40.0, 2.5e5, 7.0 + 3.0j, -40.0 + 9.0j, -0.5 - 2.0e4j])
@pytest.mark.parametrize("b", [2.2, 12.0, 1e4])
def test_hyp0f1_terms_equals_concatenate_then_cumprod(b, w):
    # bit for bit wherever w has no -0.0 part; with one (2 - 0j, say) only the
    # sign of the products' zero parts can differ
    n, p = hyp0f1_terms(b, w)
    ref = np.cumprod(np.concatenate(([1.0], w / ((b + n[:-1]) * (n[:-1] + 1.0)))))
    assert p.dtype == ref.dtype and p.tobytes() == ref.tobytes()


def test_hyp0f1_contiguous_recurrence():
    # 0F1(b-1;x) - 0F1(b;x) = x/(b(b-1)) 0F1(b+1;x)
    for b in (2.0, 3.7, 9.0, 20.0):
        for x in (0.0, 0.5, 7.0, 100.0):
            fm = math.exp(real_0f1_log(b - 1.0, x))
            f0 = math.exp(real_0f1_log(b, x))
            fp = math.exp(real_0f1_log(b + 1.0, x))
            lhs = fm - f0
            rhs = x / (b * (b - 1.0)) * fp
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_bessel_k_order_recurrence():
    # K_{nu-1}(x) - K_{nu+1}(x) = -(2 nu / x) K_nu(x)
    for nu in (1.0, 1.3, 4.7, 11.0):
        for x in (0.7, 2.0, 10.0):
            km = math.exp(bessel_k(nu - 1.0, x))
            k0 = math.exp(bessel_k(nu, x))
            kp = math.exp(bessel_k(nu + 1.0, x))
            assert km - kp == pytest.approx(-(2.0 * nu / x) * k0, rel=1e-8)


@pytest.mark.parametrize(
    "a,n,expected",
    [
        (0.5, 2, POCH_HALF_2),
        (2.0 + 1.0 / 0.27, 3, POCH_B027_3),
        (3.0, 0, 0.0),
        (1.0, 5, math.lgamma(6.0)),
        # n < a: the Gamma difference would cancel 1e-9 away here
        (1e6 + 2.0, 2, math.log(1000002.0 * 1000003.0)),
        # Stirling's difference; None takes 40-digit mpmath loggamma values
        (1e10 + 2.0, 10**7, None),
        (1e6 + 2.0, 3, None),
        (52.0, 1, None),
        (52.0, 10**7, None),
        (1e8, 10**8, None),
    ],
)
def test_pochhammer_log(a, n, expected):
    if expected is None:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.loggamma(mpmath.mpf(a) + n) - mpmath.loggamma(a))
    assert pochhammer_log(a, n) == pytest.approx(expected, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize(
    "b,w,n",
    [
        (3.0, 5.0, 1),
        (2.2, 100.0, 51),
        (12.0, 1e6, 700),
        (2.5, 1e10, 97_000),  # near the mode, where the lgamma sum cancels
        (60.0, 1e4, 60),
        (1e10 + 2.0, 1e17, 9_970_000),
    ],
)
def test_hyp0f1_term_log_against_mpmath(b, w, n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        b_mp = mpmath.mpf(b)
        ref = n * mpmath.log(w) - mpmath.loggamma(b_mp + n) + mpmath.loggamma(b_mp)
        ref = float(ref - mpmath.loggamma(n + 1))
    assert hyp0f1_term_log(b, w, n) == pytest.approx(ref, rel=4e-15)
    assert hyp0f1_term_log(b, w, 0) == 0.0


@pytest.mark.parametrize(
    "b,x,expected",
    [
        (1.0, 1.0, F01_1_1),
        (1.5, 1.0, F01_15_1),
        (12.0, 10.0, F01_12_10),
    ],
)
def test_hyp0f1_frozen(b, x, expected):
    assert math.exp(real_0f1_log(b, x)) == pytest.approx(expected, rel=1e-14)


def test_hyp0f1_log_scaling_large_argument():
    assert real_0f1_log(12.0, 1e6) == pytest.approx(LOG_F01_12_1E6, rel=1e-14)


@pytest.mark.parametrize("b", [1.0, 2.5, 12.0, 2.0 + 1.0 / 0.07])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 25.0, 400.0])
def test_hyp0f1_against_scipy(b, x):
    # scipy evaluates the same function through an unrelated code path
    ours = math.exp(real_0f1_log(b, x))
    assert ours == pytest.approx(sp.hyp0f1(b, x), rel=1e-12)


@pytest.mark.parametrize("b", [2.5, 12.0, 52.0])
@pytest.mark.parametrize("x", [1e6, 1e8, 1e10])
def test_hyp0f1_against_mpmath(b, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.log(mpmath.hyp0f1(b, x)))
    assert real_0f1_log(b, x) == pytest.approx(ref, rel=1e-15)


def test_hyp0f1_routes_agree_at_the_switch():
    # the complex kernel's series and Bessel form meet the window's value
    # on the real axis
    above = math.nextafter(HYP0F1_SERIES_MAX, math.inf)
    for b in (2.5, 12.0, 52.0):
        series = hyp0f1(b, complex(HYP0F1_SERIES_MAX, 0.0))
        bessel = hyp0f1(b, complex(above, 0.0))
        assert series.terms_used > 0 and bessel.terms_used == 0
        assert bessel.value.real == pytest.approx(series.value.real, rel=1e-14)
        window = real_0f1_log(b, HYP0F1_SERIES_MAX)
        assert series.value.real == pytest.approx(window, rel=1e-14)


def test_hyp0f1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hyp0f1(0.0, complex(1.0, 0.0))
    # the window refuses a negative x
    with pytest.raises(ValueError, match="negative"):
        real_0f1_log(5.0, -1.0)
    # 2 sqrt x is past Amos's argument limit, so ive is NaN, and the series
    # would need some 1e9 terms
    assert cmath.isnan(sp.ive(1.0, complex(2e9, 0.0)))
    with pytest.raises(ConvergenceError):
        hyp0f1(2.0, complex(1e18, 0.0))


@pytest.mark.parametrize(
    "w", [0.5 + 0.0j, 2.0 + 3.0j, -4.0 + 0.0j, -25.0 + 1.0j, 10.0 - 10.0j]
)
def test_hyp0f1_complex_against_scipy(w):
    ours = cmath.exp(hyp0f1(12.0, w).value)
    ref = complex(sp.hyp0f1(12.0, w))
    assert abs(ours - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_hyp0f1_complex_reduces_to_real():
    # on the real axis the series or Bessel form gives the window's ln 0F1
    for x in (0.0, 7.0, 1e4, HYP0F1_SERIES_MAX, 1e10):
        cplx = hyp0f1(5.0, complex(x, 0.0)).value
        assert cplx.imag == 0.0
        assert cplx.real == pytest.approx(real_0f1_log(5.0, x), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("b", [2.5, 12.0, 1002.0])
@pytest.mark.parametrize("size", [1e6, 1e9, 1e11])
@pytest.mark.parametrize("arg", [0.3, 1.0, 3.0, math.pi - 1e-3])
def test_hyp0f1_complex_against_mpmath(b, size, arg):
    # the docstring's contract: ln|F| to 1e-13 relative past the series
    # range, and F to 1e-13 times 0F1(b; |w|) within it
    mpmath = pytest.importorskip("mpmath")
    w = cmath.rect(size, arg)
    res = hyp0f1(b, w)
    assert -math.pi < res.value.imag <= math.pi
    with mpmath.workdps(30):
        ref = mpmath.hyp0f1(b, mpmath.mpc(w.real, w.imag))
        if size > HYP0F1_SERIES_MAX:
            assert res.terms_used == 0
            ref_log_abs = float(mpmath.log(abs(ref)))
            assert abs(res.value.real - ref_log_abs) <= 1e-13 * abs(ref_log_abs)
        else:
            assert res.terms_used > 0
            got = mpmath.exp(mpmath.mpc(res.value.real, res.value.imag))
            assert abs(got - ref) <= 1e-13 * mpmath.hyp0f1(b, size)


@pytest.mark.parametrize(
    "size,arg",
    [(size, arg) for size in (1e-3, 1e3, 1e6) for arg in (0.3, 1.0, 3.0, math.pi - 1e-3)]
    # past the series range, where ive(b - 1, 2 sqrt w) underflows at this order
    + [(1.2e8, 0.3), (1.2e8, 1.0)],
)
def test_hyp0f1_window_at_large_order_against_mpmath(size, arg):
    # b = 1e4: F to 1e-13 times 0F1(b; |w|), as the window promises at every
    # order; larger |w| at this order takes mpmath seconds to minutes
    mpmath = pytest.importorskip("mpmath")
    b, w = 1e4, cmath.rect(size, arg)
    res = hyp0f1(b, w)
    assert res.terms_used > 0 and -math.pi < res.value.imag <= math.pi
    with mpmath.workdps(30):
        ref = mpmath.hyp0f1(b, mpmath.mpc(w.real, w.imag), maxterms=10**5)
        got = mpmath.exp(mpmath.mpc(res.value.real, res.value.imag))
        assert abs(got - ref) <= 1e-13 * mpmath.hyp0f1(b, size, maxterms=10**5)


def test_hyp0f1_takes_a_subnormal_imaginary_part():
    # cmath.phase raises OverflowError on this w; the window's anchor does not
    w = complex(2000.0, 1.5e-323)
    assert hyp0f1(3.0, w).value == hyp0f1(3.0, complex(w.real, 0.0)).value


@pytest.mark.parametrize(
    "nu,x,expected_log",
    [
        (0.0, 1.0, math.log(K0_1)),
        (0.5, 2.0, math.log(K_HALF_2)),
        (3.5, 50.0, LNK_35_50),
        (1.0 + 1.0 / 0.07, 7.4, math.log(K_NU007_74)),
    ],
)
def test_bessel_k_frozen(nu, x, expected_log):
    assert bessel_k(nu, x) == pytest.approx(expected_log, rel=1e-12, abs=1e-12)


def test_bessel_k_half_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x} exactly
    for x in (0.1, 1.0, 8.0):
        expected = 0.5 * math.log(math.pi / (2.0 * x)) - x
        assert bessel_k(0.5, x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("nu", [0.0, 0.5, 3.5, 1.0 + 1.0 / 0.27, 1.0 + 1.0 / 0.07])
@pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 7.4, 50.0])
def test_bessel_k_against_scipy(nu, x):
    assert bessel_k(nu, x) == pytest.approx(math.log(sp.kv(nu, x)), rel=1e-11, abs=1e-11)


def test_bessel_k_underflow_range():
    # far beyond double underflow, checked against the first asymptotic terms
    nu, x = 4.7, 2.0e8
    mu4 = 4.0 * nu * nu
    asym = (
        -x
        + 0.5 * math.log(math.pi / (2.0 * x))
        + math.log1p((mu4 - 1.0) / (8.0 * x))
    )
    assert bessel_k(nu, x) == pytest.approx(asym, abs=1e-6)


MPMATH_X = [1e-20, 1e-4, 1e-3, 0.1, 1.0, 30.0, 1e3, 1e6, 1e9, AMOS_X_MAX, 2e9, 1e11]


# mpmath alone takes seconds at (1001, 1e3), so that case is left out
@pytest.mark.parametrize(
    "x,nu",
    [(x, nu) for x in MPMATH_X for nu in (1.2, 11.0, 51.0, 101.0, 201.0, 1001.0)
     if (nu, x) != (1001.0, 1e3)],
)
def test_bessel_k_against_mpmath(nu, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.log(mpmath.besselk(nu, x)))
    assert abs(bessel_k(nu, x) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_bessel_k_region_boundaries():
    # kve answers up to Amos's argument limit and returns NaN beyond it, and
    # overflows to inf where K_nu itself exceeds the double range (small x at
    # large order): Debye's expansion answers in both places
    assert math.isfinite(sp.kve(1.2, AMOS_X_MAX))
    assert math.isnan(sp.kve(1.2, math.nextafter(AMOS_X_MAX, math.inf)))
    assert sp.kve(101.0, 1e-3) == math.inf
    assert sp.kve(101.0, 1e-4) == math.inf
    assert math.isfinite(sp.kve(51.0, 1e-3))


@pytest.mark.parametrize(
    "nu,x",
    [
        (101.0, 1e-4),  # kve overflows: Debye
        (101.0, 1e-3),  # kve overflows: Debye
        (1.2, 2e9),  # kve NaN: Debye below DEBYE_NU_MIN
        (101.0, 1e11),  # kve NaN: Debye
        (1e4, 2e9),  # kve NaN: Debye
        (1e5, 2e9),  # kve NaN, and nu^2 > x: a large-x series diverges at once
    ],
)
def test_bessel_k_fallback_routes(nu, x):
    mpmath = pytest.importorskip("mpmath")
    assert not math.isfinite(sp.kve(nu, x))
    with mpmath.workdps(30):
        ref = float(mpmath.log(mpmath.besselk(nu, x)))
    # a few ulps of ln K, which at x ~ 1e9 is far tighter than relative 1e-13
    assert abs(bessel_k(nu, x) - ref) <= max(1e-12, 4.0 * math.ulp(ref))


def test_bessel_k_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_k(-1.0, 1.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, np.array([1.0, -1.0]))


@pytest.mark.parametrize(
    "nu,x",
    [
        (0.0, 2e9),  # past Amos's limit, where Debye needs nu > 0
        (11.9, 1e-26),  # K_nu overflows a double, and nu is below DEBYE_NU_MIN
        (DEBYE_NU_MIN, 1e-310),  # nu/x overflows a double
    ],
)
def test_bessel_k_refuses_where_neither_route_answers(nu, x):
    message = f"bessel_k({nu}, x) refuses x in [{x:g}, {x:g}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        bessel_k(nu, np.array([1.0, x]))


def mp_log_besselk(nu, x):
    """ln K_nu(x) to 40 digits from K = int_0^inf e^{-x cosh t} cosh(nu t) dt.

    The integrand, scaled by its value near the saddle sinh t* = nu/x, is
    split at t* and at 10 and 40 of its widths (x^2 + nu^2)^(-1/4) either
    side; mpmath.besselk takes seconds per call at nu = 1e6 and does not
    converge at nu = 1e10.
    """
    import mpmath

    with mpmath.workdps(40):
        nu, x = mpmath.mpf(nu), mpmath.mpf(x)
        peak = mpmath.asinh(nu / x)
        width = (x * x + nu * nu) ** mpmath.mpf(-0.25)
        cosh_peak = mpmath.cosh(peak)

        def scaled(t):
            return (mpmath.exp(nu * (t - peak) - x * (mpmath.cosh(t) - cosh_peak))
                    * (1 + mpmath.exp(-2 * nu * t)) / 2)

        cuts = [peak + k * width for k in (-40, -10, 0, 10, 40)]
        total = mpmath.quad(scaled, [mpmath.mpf(0)] + [t for t in cuts if t > 0])
        return mpmath.log(total) + nu * peak - x * cosh_peak


def test_bessel_k_at_huge_order_against_a_40_digit_integral():
    # kve overflows at nu = 1e6, x = 1 and 2
    pytest.importorskip("mpmath")
    for nu, x in ((1e6, [1.0, 2.0]), (1e10, [1e5, 3e10])):
        for got, v in zip(bessel_k(nu, np.array(x)), x):
            ref = float(mp_log_besselk(nu, v))
            assert abs(got - ref) <= 1e-13 * abs(ref), (nu, v)


@pytest.mark.parametrize("q", [1e-10, 1e-6, 1e-4, 0.01, 1.0 / 11.0, 0.1, 1.0, 5.0])
def test_weight_log_against_a_40_digit_integral(q):
    # ln w~(xi) = ln 2 - ln q - ln Gamma(nu + 1) + nu/2 ln u + ln K_nu(2 sqrt u),
    # u = xi/q and nu = 1 + 1/q, at 9 of the moment grid's nodes where w~ is
    # a normal double; q = 1/11 puts nu at DEBYE_NU_MIN, q = 0.1 just below
    mpmath = pytest.importorskip("mpmath")
    ladder = QuadraticLadder(q, 1.0)
    xi = np.exp(measure._U)
    log_w = ladder.weight_log(xi)
    normal = np.flatnonzero(np.abs(log_w) < 708.0)
    for i in normal[np.linspace(0, normal.size - 1, 9).astype(int)]:
        with mpmath.workdps(40):
            q_mp, nu = mpmath.mpf(q), 1 + 1 / mpmath.mpf(q)
            u = float(xi[i]) / q_mp
            ref = float(mpmath.log(2 / q_mp) - mpmath.loggamma(nu + 1) + nu / 2 * mpmath.log(u)
                        + mp_log_besselk(nu, 2 * mpmath.sqrt(u)))
        assert abs(log_w[i] - ref) <= 1e-13 * max(1.0, abs(ref)), (q, xi[i])


@pytest.mark.parametrize("nu", [11.0, DEBYE_NU_MIN, 1e10])
@pytest.mark.parametrize("u", [0.0, -1.0, math.inf, math.nan])
def test_bessel_density_log_refuses_a_bad_argument(nu, u):
    with pytest.raises(ValueError, match="needs finite u > 0"):
        bessel_density_log(nu, np.array([1.0, u]))


@pytest.mark.parametrize("nu", [1.2, 51.0, 101.0, 1001.0])
def test_bessel_k_array_matches_scalar_calls(nu):
    # spans both routes: kve, Debye below DEBYE_NU_MIN past Amos's limit,
    # and Debye at every x above it
    x = np.concatenate([np.geomspace(1e-20, 1e9, 40), [2e9, 1e11]])
    got = bessel_k(nu, x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert got.tolist() == [bessel_k(nu, float(v)) for v in x]
    assert isinstance(bessel_k(nu, 1.0), float)
