"""Resolution-of-unity weight: positivity, moments, growth classification."""

import math

import numpy as np
import pytest
import scipy.special as sp

from gcstates import coherent, measure, models

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
    # w(xi) = w_tilde(xi) N(xi); for the exponential profile the two factors
    # cancel to a flat density 1/mu^2
    spec = expmass(2.0)
    for xi in (0.1, 1.0, 9.0):
        assert measure.weight(spec, xi) == pytest.approx(0.25, rel=1e-13)
    spec = nonlinear(0.1)
    xi = 1.7
    expected = measure.weight_tilde(spec, xi) * math.exp(
        coherent.norm_log_closed(spec, xi)
    )
    assert measure.weight(spec, xi) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_moments_reproduce_factorials(spec):
    reports = measure.verify_moments(spec, n_max=8)
    assert len(reports) == 9
    for rep in reports:
        assert rep.passed, f"moment {rep.n}: rel {rep.rel_error:.3e}"
        limit = 1e-8 if rep.n == 0 else 1e-6
        assert rep.rel_error < limit
        assert rep.analytic_rho == pytest.approx(
            math.exp(models.rho_log_label(spec, rep.n)), rel=1e-14
        )


@pytest.mark.parametrize(
    "model,q",
    [("nonlinear-osc", q) for q in (0.01, 0.02, 0.5, 2.0, 5.0)] + [("bounded-osc", 0.02)],
)
def test_moments_across_the_q_range(model, q):
    # nu = 1 + 1/q runs from 1.2 to 101; at q = 0.01 the small-xi weight
    # needs the integral route of bessel_k, where kve overflows
    reports = measure.verify_moments(models.make_model(model, nonlinearity=q), n_max=8)
    assert [r.n for r in reports] == list(range(9))
    for rep in reports:
        assert rep.passed, f"moment {rep.n}: rel {rep.rel_error:.3e}"


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
