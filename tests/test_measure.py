"""Resolution-of-unity weight: positivity, moments, growth classification."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp

from gcstates import measure, models
from gcstates.exceptions import QuadratureError

E_INV = 0.367879441171442322


def nonlinear(q):
    return models.make_model("nonlinear-osc", nonlinearity=q)


def expmass(mu=1.0):
    return models.make_model("exp-mass", alpha=2.0, mu=mu)


SPECS = [nonlinear(0.07), nonlinear(0.27),
         models.make_model("bounded-osc", nonlinearity=0.1),
         expmass(1.0), expmass(2.0)]
IDS = [s.id + str(s.nonlinearity or s.mu) for s in SPECS]


def test_weight_tilde_expmass_exponential():
    w = measure.weight_tilde(expmass(1.0), 1.0)
    assert w == pytest.approx(E_INV, rel=1e-14)
    # mu rescales both height and decay length
    assert measure.weight_tilde(expmass(2.0), 0.0 + 4.0) == pytest.approx(
        math.exp(-1.0) / 4.0, rel=1e-13
    )


def test_weight_tilde_bessel_against_scipy():
    # direct evaluation of 2 (xi/q)^{nu/2} K_nu(2 sqrt(xi/q)) / (q Gamma(2+1/q))
    q = 0.17
    nu = 1.0 + 1.0 / q
    for xi in (0.05, 0.8, 3.0, 20.0):
        u = xi / q
        ref = 2.0 * u ** (nu / 2.0) * sp.kv(nu, 2.0 * math.sqrt(u))
        ref /= q * math.gamma(2.0 + 1.0 / q)
        assert measure.weight_tilde(nonlinear(q), xi) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_weight_tilde_positive(spec):
    for xi in np.geomspace(1e-6, 60.0, 25):
        assert measure.weight_tilde(spec, float(xi)) > 0.0


def test_weight_includes_normalizer():
    # the full weight w~(xi) N(xi) of the exponential profile is the flat
    # density 1/mu^2
    spec = expmass(2.0)
    for xi in (0.1, 1.0, 9.0):
        log_norm = spec.ladder.closed(xi / spec.label_scale**2)[0]
        full = measure.weight_tilde(spec, xi) * math.exp(log_norm)
        assert full == pytest.approx(0.25, rel=1e-13)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_moments_reproduce_factorials(spec):
    reports = measure.verify_moments(spec, n_max=8)
    assert len(reports) == 9
    for rep in reports:
        assert rep.passed, f"moment {rep.n}: rel {rep.rel_error:.3e}"
        limit = 1e-8 if rep.n == 0 else 1e-6
        assert rep.rel_error < limit
        # rho_n in label units: rho_n * label_scale^(2n) (n! mu^{2n} for exp-mass)
        assert rep.analytic_rho == pytest.approx(
            math.exp(models.rho_log(spec, rep.n)) * spec.label_scale ** (2 * rep.n), rel=1e-14
        )


@pytest.mark.parametrize(
    "model,param",
    [("nonlinear-osc", q) for q in (1e-10, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.02,
                                     0.5, 2.0, 5.0)]
    + [("bounded-osc", 0.02), ("exp-mass", 1e-6), ("exp-mass", 1e4),
       ("nonlinear-osc", 1e300), ("exp-mass", 1e-150)],
)
def test_moments_across_the_q_range(model, param):
    # the report's label-unit fields against rho_n summed exactly in rationals:
    # nu = 1 + 1/q runs from 1.2 to 1e10, so the weight's trapezoid sum takes
    # g(r) from expm1 and, below q = 1/359 (nu = 360), from its series; for exp-mass
    # the parameter is mu, which moves the label-unit scale across 20 decades.
    # Past the double range a label-unit value reads inf (q = 1e300) or 0
    # (mu = 1e-150); the pass verdict comes from the sum in the weight's scale
    key = "mu" if model == "exp-mass" else "nonlinearity"
    spec = models.make_model(model, **{key: param})
    reports = measure.verify_moments(spec, n_max=8)
    assert [r.n for r in reports] == list(range(9))
    for rep in reports:
        assert rep.passed, f"moment {rep.n}: rel {rep.rel_error:.3e}"
        exact = _exact_rho_label(spec, rep.n)
        assert rep.analytic_rho == pytest.approx(exact, rel=1e-12)
        assert rep.quadrature == pytest.approx(exact, rel=1e-12)
        assert rep.quad_error_estimate <= 1e-10 * rep.quadrature


def _exact_rho_label(spec, n):
    """rho_n label_scale^(2n) as a double (inf past the range), from exact rationals."""
    rho = Fraction(1)
    for k in range(1, n + 1):
        rho *= Fraction(models.step(spec, k)) * Fraction(spec.label_scale) ** 2
    try:
        return float(rho)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("spec", [nonlinear(0.1), nonlinear(2.0), expmass(1.0), nonlinear(0.01)],
                         ids=["q0.1", "q2", "exp-mass-mu1", "q0.01"])
def test_grid_sum_matches_adaptive_quadrature(spec):
    # the independent reference: mpmath's tanh-sinh quadrature of the same
    # weight in xi itself, not in the grid's u = ln xi, here at the orders
    # nu = 1 + 1/q = 11, 1.5 and 101 of the oscillators' K_nu
    mpmath = pytest.importorskip("mpmath")

    def integrand(xi, n):
        xi = float(xi)  # tanh-sinh nodes next to 0 and inf round to them as doubles
        if not 0.0 < xi < math.inf:
            return 0.0
        return math.exp(measure.weight_tilde_log(spec, xi) + n * math.log(xi))

    for rep in measure.verify_moments(spec, n_max=8):
        ref = mpmath.quad(lambda xi: integrand(xi, rep.n), [0, 1, 10, 100, mpmath.inf])
        assert rep.quadrature == pytest.approx(float(ref), rel=1e-10)
        assert 0 < rep.quad_error_estimate <= 1e-10 * rep.quadrature


def test_grid_sum_refuses_a_tolerance_below_round_off(monkeypatch):
    monkeypatch.setattr(measure, "CERTIFY_TOL", 1e-20)
    with pytest.raises(QuadratureError):
        measure.verify_moments(nonlinear(0.1), n_max=8)


def test_grid_sum_refuses_a_weight_off_the_grid(monkeypatch):
    # a family whose scaled weight had its mass at t ~ 1e-11, not t ~ 1: only
    # six decades above the grid's first node t = 1e-17, where the integrand
    # in u = ln t, t w ~ 1e11 t, is still 1e-6 of the sum
    monkeypatch.setattr(models.LinearLadder, "scaled_weight_log",
                        lambda self, t: math.log(1e11) - 1e11 * t)
    with pytest.raises(QuadratureError) as exc:
        measure.verify_moments(expmass(1.0), n_max=2)
    assert exc.value.error_bound > 1e-10 * exc.value.estimate


def test_weight_at_a_huge_q_and_a_tiny_xi():
    # t = xi/S underflows to 0 at q = 1e300, xi = 1e-30, where the scaled weight
    # is its t = 0 value ln b + bessel_density_log(nu, 0) = ln b - ln nu
    spec = nonlinear(1e300)
    ladder = spec.ladder
    scale = ladder.moment_scale * spec.label_scale**2
    expected = math.log(ladder.b) - math.log(1.0 + 1.0 / ladder.q) - math.log(scale)
    assert measure.weight_tilde_log(spec, 1e-30) == pytest.approx(expected, rel=1e-15)


def test_moment_zero_is_unity():
    rep = measure.verify_moments(nonlinear(0.27), n_max=0)[0]
    assert rep.analytic_rho == 1.0
    assert rep.quadrature == pytest.approx(1.0, abs=1e-8)


def test_verify_moments_depth_guard():
    with pytest.raises(ValueError):
        measure.verify_moments(nonlinear(0.1), n_max=13)
    with pytest.raises(ValueError):
        measure.verify_moments(nonlinear(0.1), n_max=-1)


def test_moments_catch_biased_ladder():
    import dataclasses

    bad = dataclasses.replace(nonlinear(0.1), step_bias=0.01)
    reports = measure.verify_moments(bad, n_max=4)
    assert not all(r.passed for r in reports)
    # the zeroth moment has no steps in it and stays clean
    assert reports[0].passed


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_radius_infinite(spec):
    rep = measure.radius(spec)
    assert rep.classification == "infinite"
    assert rep.value is None
    assert rep.diagnostic > 0.0


def test_classify_growth_finite_counterexample():
    # geometric steps have rho_n^{1/n} bounded: radius would be finite
    classification, _ = measure.classify_growth(lambda n: 2.0 - 1.0 / n)
    assert classification == "finite"


def test_classify_growth_unbounded_steps():
    classification, _ = measure.classify_growth(lambda n: float(n))
    assert classification == "infinite"
