"""Special-function layer: 0F1, the K_nu routes, half-line quadrature."""

import math

import numpy as np
import pytest
import scipy.special as sp

from gcstates.exceptions import ConvergenceError, QuadratureError
from gcstates.specfn import (
    AMOS_X_MAX,
    HYP0F1_SERIES_MAX,
    bessel_k,
    hyp0f1,
    hyp0f1_complex,
    integrate_halfline,
    log_gamma,
    pochhammer_log,
)

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


def test_log_gamma_matches_lgamma():
    for x in (0.5, 1.0, 3.7, 12.0, 200.0):
        assert log_gamma(x) == math.lgamma(x)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)


def test_log_gamma_shift_recurrence():
    # ln G(x+1) = ln G(x) + ln x
    for x in (0.3, 1.0, 4.5, 77.0, 1e4):
        gap = log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
        assert abs(gap) <= 1e-12 * max(1.0, abs(log_gamma(x)))


def test_hyp0f1_contiguous_recurrence():
    # 0F1(b-1;x) - 0F1(b;x) = x/(b(b-1)) 0F1(b+1;x)
    for b in (2.0, 3.7, 9.0, 20.0):
        for x in (0.0, 0.5, 7.0, 100.0):
            fm = math.exp(hyp0f1(b - 1.0, x).value)
            f0 = math.exp(hyp0f1(b, x).value)
            fp = math.exp(hyp0f1(b + 1.0, x).value)
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
    ],
)
def test_pochhammer_log(a, n, expected):
    assert pochhammer_log(a, n) == pytest.approx(expected, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize(
    "b,x,expected",
    [
        (1.0, 1.0, F01_1_1),
        (1.5, 1.0, F01_15_1),
        (12.0, 10.0, F01_12_10),
    ],
)
def test_hyp0f1_frozen(b, x, expected):
    res = hyp0f1(b, x)
    assert res.converged
    assert math.exp(res.value) == pytest.approx(expected, rel=1e-14)


def test_hyp0f1_log_scaling_large_argument():
    res = hyp0f1(12.0, 1e6)
    assert res.value == pytest.approx(LOG_F01_12_1E6, rel=1e-14)


@pytest.mark.parametrize("b", [1.0, 2.5, 12.0, 2.0 + 1.0 / 0.07])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 25.0, 400.0])
def test_hyp0f1_against_scipy(b, x):
    # scipy evaluates the same function through an unrelated code path
    ours = math.exp(hyp0f1(b, x).value)
    assert ours == pytest.approx(sp.hyp0f1(b, x), rel=1e-12)


@pytest.mark.parametrize("b", [2.5, 12.0, 52.0])
@pytest.mark.parametrize("x", [1e6, 1e8, 1e10])
def test_hyp0f1_against_mpmath(b, x):
    mpmath = pytest.importorskip("mpmath")
    res = hyp0f1(b, x)
    with mpmath.workdps(30):
        ref = float(mpmath.log(mpmath.hyp0f1(b, x)))
    assert res.value == pytest.approx(ref, rel=1e-15)
    # past the series range the Bessel form answers, with no series terms
    assert (res.terms_used == 0) == (x > HYP0F1_SERIES_MAX)


def test_hyp0f1_routes_agree_at_the_switch():
    above = math.nextafter(HYP0F1_SERIES_MAX, math.inf)
    for b in (2.5, 12.0, 52.0):
        series, bessel = hyp0f1(b, HYP0F1_SERIES_MAX), hyp0f1(b, above)
        assert series.terms_used > 0 and bessel.terms_used == 0
        assert bessel.value == pytest.approx(series.value, rel=1e-14)


def test_hyp0f1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hyp0f1(0.0, 1.0)
    with pytest.raises(ValueError):
        hyp0f1(2.0, -1.0)
    with pytest.raises(ConvergenceError):
        hyp0f1(2.0, 1e4, max_terms=5)


@pytest.mark.parametrize(
    "w", [0.5 + 0.0j, 2.0 + 3.0j, -4.0 + 0.0j, -25.0 + 1.0j, 10.0 - 10.0j]
)
def test_hyp0f1_complex_against_scipy(w):
    res = hyp0f1_complex(12.0, w)
    ours = math.exp(res.log_mag) * res.phase
    ref = complex(sp.hyp0f1(12.0, w))
    assert abs(ours - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_hyp0f1_complex_reduces_to_real():
    r = hyp0f1(5.0, 7.0)
    c = hyp0f1_complex(5.0, 7.0 + 0.0j)
    assert c.log_mag == pytest.approx(r.value, rel=1e-14)
    assert c.phase == pytest.approx(1.0)


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
    # kve answers up to Amos's argument limit and returns NaN beyond it
    # (Hankel route); it overflows to inf where K_nu itself exceeds the
    # double range, small x at large order (recurrence route)
    assert math.isfinite(sp.kve(1.2, AMOS_X_MAX))
    assert math.isnan(sp.kve(1.2, math.nextafter(AMOS_X_MAX, math.inf)))
    assert sp.kve(101.0, 1e-3) == math.inf
    assert sp.kve(101.0, 1e-4) == math.inf
    assert math.isfinite(sp.kve(51.0, 1e-3))


@pytest.mark.parametrize(
    "nu,x",
    [
        (101.0, 1e-4),  # kve overflows: recurrence
        (101.0, 1e-3),  # kve overflows: recurrence
        (1.2, 2e9),  # kve NaN: Hankel
        (101.0, 1e11),  # kve NaN: Hankel
        (1e4, 2e9),  # kve NaN: Hankel, whose sum differs from 1 by 0.025
        (1e5, 2e9),  # kve NaN, Hankel diverges at once (nu^2 > x): refused
    ],
)
def test_bessel_k_fallback_routes(nu, x):
    mpmath = pytest.importorskip("mpmath")
    assert not math.isfinite(sp.kve(nu, x))
    if x > AMOS_X_MAX and 4.0 * nu * nu > 8.0 * x:
        # Hankel's first correction already exceeds 1: no route answers
        with pytest.raises(ValueError, match=r"bessel_k\(100000.0, x\)"):
            bessel_k(nu, x)
        return
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


def test_bessel_k_refuses_past_the_recurrence_order_cap():
    # kve overflows, and the recurrence would climb 1e6 orders
    with pytest.raises(ValueError, match=r"recurrence order <= 100000"):
        bessel_k(1e6, np.array([1.0, 2.0]))


@pytest.mark.parametrize("nu", [1.2, 51.0, 101.0, 1001.0])
def test_bessel_k_array_matches_scalar_calls(nu):
    # spans all three routes: recurrence, kve and Hankel
    x = np.concatenate([np.geomspace(1e-20, 1e9, 40), [2e9, 1e11]])
    got = bessel_k(nu, x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert got.tolist() == [bessel_k(nu, float(v)) for v in x]
    assert isinstance(bessel_k(nu, 1.0), float)


@pytest.mark.parametrize(
    "f,expected",
    [
        (lambda t: math.exp(-t), 1.0),
        (lambda t: t**4 * math.exp(-t), 24.0),
        (lambda t: math.sqrt(t) * math.exp(-t), math.gamma(1.5)),
        (lambda t: t**3 * math.exp(-t / 1000.0), 6.0 * 1000.0**4),
        (lambda t: math.exp(-((t - 50.0) ** 2)), math.sqrt(math.pi)),
    ],
)
def test_integrate_halfline(f, expected):
    assert integrate_halfline(f) == pytest.approx(expected, rel=1e-9)


def test_integrate_halfline_full_output():
    val, err = integrate_halfline(lambda t: math.exp(-t), full_output=True)
    assert val == pytest.approx(1.0, rel=1e-10)
    assert 0 <= err < 1e-9


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The integral is probably divergent")
def test_integrate_halfline_rejects_slow_decay():
    # a fat power tail cannot be certified by the truncation strategy
    with pytest.raises(QuadratureError):
        integrate_halfline(lambda t: 1.0 / (1.0 + t) ** 1.5)


def test_integrate_halfline_gamma_family():
    # moments of e^{-t}: Gamma(n+1), through n=12 in one sweep
    for n in range(13):
        got = integrate_halfline(lambda t, _n=n: t**_n * math.exp(-t))
        assert got == pytest.approx(math.gamma(n + 1), rel=1e-8)
