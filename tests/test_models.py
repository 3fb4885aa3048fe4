"""Model catalog: spectra, ladder steps, generalized factorials."""

import dataclasses
import math

import numpy as np
import pytest

from gcstates import models
from gcstates.exceptions import ConsistencyError


def nonlinear(q=0.1, alpha=1.0):
    return models.make_model("nonlinear-osc", alpha=alpha, nonlinearity=q)


def bounded(q=0.1, alpha=1.0):
    return models.make_model("bounded-osc", alpha=alpha, nonlinearity=q)


def expmass(mu=1.0, alpha=2.0):
    return models.make_model("exp-mass", alpha=alpha, mu=mu)


ALL_SPECS = [nonlinear(0.07), nonlinear(0.17), nonlinear(0.27),
             bounded(0.07), bounded(0.27), expmass(1.0), expmass(2.0)]


# ------------------------------------------------------------- validation


def test_make_model_rejects_unknown_id():
    with pytest.raises(ValueError):
        models.make_model("box")


@pytest.mark.parametrize(
    "model_id, kwargs",
    [
        ("nonlinear-osc", {"nonlinearity": math.inf}),
        ("nonlinear-osc", {"nonlinearity": math.nan}),
        ("nonlinear-osc", {"alpha": math.inf, "nonlinearity": 0.1}),
        ("nonlinear-osc", {"nonlinearity": -math.inf}),
        ("bounded-osc", {"nonlinearity": math.inf}),
        ("exp-mass", {"mu": math.inf}),
        ("exp-mass", {"alpha": math.inf, "mu": 1.0}),
    ],
)
def test_make_model_rejects_non_finite(model_id, kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        models.make_model(model_id, **kwargs)


@pytest.mark.parametrize("mu", [1e-300, 1e-170, 1.4e-154, 1.4e154, 1e200])
def test_make_model_rejects_mu_whose_square_is_not_a_normal_double(mu):
    with pytest.raises(ValueError, match=r"1\.5e-154, 1\.3e154"):
        models.make_model("exp-mass", mu=mu)


@pytest.mark.parametrize("mu", [1.5e-154, 1.3e154])
def test_make_model_accepts_mu_at_the_edges_of_its_range(mu):
    spec = models.make_model("exp-mass", mu=mu)
    assert 0.0 < spec.energy_unit < math.inf


def test_make_model_rejects_mixed_parameters():
    with pytest.raises(ValueError):
        models.make_model("exp-mass", mu=1.0, nonlinearity=0.1)
    with pytest.raises(ValueError):
        models.make_model("exp-mass", mu=-1.0)
    with pytest.raises(ValueError):
        models.make_model("nonlinear-osc", nonlinearity=-0.1)
    # each oscillator refuses exp-mass's mu, as exp-mass refuses a nonlinearity
    for model_id in ("nonlinear-osc", "bounded-osc"):
        with pytest.raises(ValueError, match="not mu"):
            models.make_model(model_id, nonlinearity=0.1, mu=5.0)


# ---------------------------------------------------------------- spectra


def test_nonlinear_energies_closed_form():
    spec = nonlinear(0.1)
    # alpha (n + 1/2 + q n(n+1))
    assert [models.energy(spec, n) for n in range(4)] == [0.5, 1.7, 3.1, 4.7]


def test_alpha_scales_every_level():
    a, b = nonlinear(0.1, alpha=1.0), nonlinear(0.1, alpha=2.5)
    for n in range(8):
        assert models.energy(b, n) == pytest.approx(2.5 * models.energy(a, n))


def test_bounded_spectrum_matches_nonlinear_at_same_q():
    # the two oscillators share one spectral sequence once q is fixed
    for n in range(20):
        assert models.energy(bounded(0.17), n) == pytest.approx(
            models.energy(nonlinear(0.17), n), rel=1e-15
        )


def test_expmass_energies_linear_in_mu_squared():
    spec = expmass(mu=2.0)
    assert [models.energy(spec, n) for n in range(4)] == [0.0, 4.0, 8.0, 12.0]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.id + str(s.nonlinearity or s.mu))
def test_remainder_telescopes(spec):
    for n in range(1, 101):
        gap = models.energy(spec, n) - models.energy(spec, n - 1)
        assert models.remainder(spec, n) == pytest.approx(gap, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.id + str(s.nonlinearity or s.mu))
def test_step_is_energy_above_ground_in_natural_units(spec):
    unit = spec.energy_unit
    for n in range(0, 80):
        lifted = models.energy(spec, n) - models.energy(spec, 0)
        assert unit * models.step(spec, n) == pytest.approx(lifted, rel=1e-13, abs=1e-13)


def test_steps_array_matches_scalar():
    spec = nonlinear(0.27)
    arr = models.step(spec, np.arange(51))
    assert arr.shape == (51,)
    assert arr[0] == 0.0
    for n in (1, 7, 50):
        assert arr[n] == models.step(spec, n)


@pytest.mark.parametrize(
    "spec", [nonlinear(0.1), bounded(0.27), expmass(1.5), models.harmonic_limit(nonlinear(0.1))],
    ids=lambda s: s.id,
)
def test_energy_and_remainder_arrays_match_scalar_bit_for_bit(spec):
    n = np.arange(0, 201)
    energies = models.energy(spec, n)
    remainders = models.remainder(spec, n[1:])
    assert energies.shape == (201,) and remainders.shape == (200,)
    assert energies.tolist() == [models.energy(spec, int(k)) for k in n]
    assert remainders.tolist() == [models.remainder(spec, int(k)) for k in n[1:]]
    for k in (np.arange(0, 3), np.array([2, 0, 5]), np.arange(-1, 2)):
        with pytest.raises(ValueError):
            models.remainder(spec, k)


def test_steps_strictly_increasing():
    for spec in ALL_SPECS:
        arr = models.step(spec, np.arange(201))
        assert np.all(np.diff(arr) > 0)


# ------------------------------------------------------ harmonic reference


def test_harmonic_limit_spectrum():
    h = models.harmonic_limit(nonlinear(0.27, alpha=3.0))
    for n in range(6):
        assert models.energy(h, n) == pytest.approx(3.0 * (n + 0.5))
        if n:
            assert models.step(h, n) == n


def test_harmonic_limit_idempotent_and_guarded():
    h = models.harmonic_limit(nonlinear(0.1))
    assert models.harmonic_limit(h) == h
    with pytest.raises(ValueError):
        models.harmonic_limit(expmass())


# ---------------------------------------------------- generalized factorial


def test_rho_frozen_values():
    # rho_4 at q=0.1: product of steps 1.2/1, 2.6/1, 4.2/1, 6.0/1 ... in
    # natural units: 1.2 * 2.6 * 4.2 * 6.0 = 78.624
    assert math.exp(models.rho_log(nonlinear(0.1), 4)) == pytest.approx(
        78.624, rel=1e-12
    )
    assert models.rho_log(nonlinear(0.27), 3) == pytest.approx(
        3.54923662464455378, rel=1e-14
    )


def test_rho_closed_form_structure():
    # n! q^n (2 + 1/q)_n reproduces the step product
    q, n = 0.17, 12
    closed = (
        math.lgamma(n + 1)
        + n * math.log(q)
        + math.lgamma(2.0 + 1.0 / q + n)
        - math.lgamma(2.0 + 1.0 / q)
    )
    assert models.rho_log(nonlinear(q), n) == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.id + str(s.nonlinearity or s.mu))
def test_rho_product_vs_closed_to_n200(spec):
    # the library cross-checks internally; recompute the product here anyway
    acc = 0.0
    for n in range(1, 201):
        acc += math.log(models.step(spec, n))
        assert models.rho_log(spec, n) == pytest.approx(acc, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("bias", [0.0, 0.01])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.id + str(s.nonlinearity or s.mu))
def test_rho_log_equals_the_scalar_step_sum_bit_for_bit(spec, bias):
    # rho_log takes one array call of step; the scalar loop is the reference
    spec = dataclasses.replace(spec, step_bias=bias)
    for n in (1, 2, 10, 199, 200, 299, 1000):
        loop = math.fsum(math.log(models.step(spec, k)) for k in range(1, n + 1))
        assert models.rho_log(spec, n) == loop


@pytest.mark.parametrize("q", [0.05, 0.07, 0.17, 0.27, 1.0])
def test_rho_gamma_form_vs_step_product(q):
    # ln[n! q^n (2+1/q)_n] against the bare ladder product, deep range
    spec = nonlinear(q)
    b = 2.0 + 1.0 / q
    acc = 0.0
    for n in range(1, 201):
        acc += math.log(models.step(spec, n))
        closed = (
            math.lgamma(n + 1)
            + n * math.log(q)
            + math.lgamma(b + n)
            - math.lgamma(b)
        )
        assert abs(closed - acc) < 1e-9


def test_rho_log_refuses_an_overflowing_step():
    # e_n = n (1 + q (n + 1)) passes the double range at n = 4 for q = 1e307,
    # where the product form of ln rho_n would be inf
    spec = nonlinear(1e307)
    assert math.isfinite(models.rho_log(spec, 3))
    for n in (4, 12):
        with pytest.raises(ValueError, match=r"q = 1e\+307: the ladder step e_4 overflows"):
            models.rho_log(spec, n)


# ------------------------------------------------------------ fault field


def test_step_bias_scales_steps_not_energies():
    clean = nonlinear(0.1)
    bad = dataclasses.replace(clean, step_bias=0.01)
    assert models.step(bad, 5) == pytest.approx(1.01 * models.step(clean, 5))
    assert models.energy(bad, 5) == models.energy(clean, 5)
    # the biased ladder stays internally consistent by construction
    models.rho_log(bad, 50)


# ------------------------------------------------------------ ladder families


def test_oscillators_share_one_quadratic_ladder():
    for spec in (nonlinear(0.17), bounded(0.17)):
        assert isinstance(spec.ladder, models.QuadraticLadder)
        assert spec.ladder.b == 2.0 + 1.0 / 0.17
        assert spec.label_scale == 1.0
    assert nonlinear(0.17).ladder == bounded(0.17).ladder


def test_linear_ladder_covers_expmass_and_harmonic():
    spec = expmass(mu=2.0)
    assert isinstance(spec.ladder, models.LinearLadder)
    assert (spec.label_scale, spec.energy_unit) == (2.0, 4.0)
    h = models.harmonic_limit(nonlinear(0.1, alpha=3.0))
    assert isinstance(h.ladder, models.LinearLadder)
    assert (h.label_scale, h.energy_unit) == (1.0, 3.0)


def test_spec_resolves_its_ladder_once():
    spec = nonlinear(0.1)
    assert spec.ladder is spec.ladder
    biased = dataclasses.replace(spec, step_bias=0.01)
    assert biased.ladder == spec.ladder and biased != spec


def test_step_rejects_bad_index_arrays():
    spec = nonlinear(0.1)
    with pytest.raises(ValueError):
        models.step(spec, np.arange(-1, 3))
    with pytest.raises(ValueError):
        models.step(spec, np.linspace(0.0, 1.0, 3))


def test_negative_n_rejected():
    spec = nonlinear(0.1)
    for fn in (models.energy, models.rho_log):
        with pytest.raises(ValueError):
            fn(spec, -1)
    with pytest.raises(ValueError):
        models.remainder(spec, 0)
