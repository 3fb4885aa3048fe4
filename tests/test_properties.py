"""Property tests: every cross-check of a coherent state across its range.

Labels run over the three families with q in [1e-4, 5], mu in [0.1, 10],
|zeta| in [1e-2, 1e3] and any phase, so windows reach n0 ~ 1e6.  The
moment check runs over both oscillators with q in [6e-305, 1e300] and over
exp-mass with mu in [1.5e-154, 1.3e154].  The examples are derandomized, so
the suite stays deterministic.
"""

import cmath
import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcstates import coherent, measure, models, stats

EPS = 1e-12


@st.composite
def labels(draw):
    model_id = draw(st.sampled_from(models.MODEL_IDS))
    if model_id == "exp-mass":
        spec = models.make_model(model_id, mu=draw(st.floats(0.1, 10.0)))
    else:
        q = math.exp(draw(st.floats(math.log(1e-4), math.log(5.0))))
        spec = models.make_model(model_id, nonlinearity=q)
    abs_zeta = math.exp(draw(st.floats(math.log(1e-2), math.log(1e3))))
    arg = draw(st.floats(-math.pi, math.pi))
    return spec, spec.label_scale * abs_zeta * cmath.exp(1j * arg)


def corner(model_id, param, abs_zeta, arg):
    key = "mu" if model_id == "exp-mass" else "nonlinearity"
    spec = models.make_model(model_id, **{key: param})
    return spec, spec.label_scale * abs_zeta * cmath.exp(1j * arg)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(labels())
@example(corner("exp-mass", 0.1, 1e3, 2.0))  # n0 ~ 1e6
@example(corner("nonlinear-osc", 1e-4, 1e3, -1.0))
@example(corner("bounded-osc", 5.0, 1e3, 3.0))
@example(corner("nonlinear-osc", 5.0, 1e-2, 0.5))
def test_coherent_state_cross_checks(label):
    spec, z = label
    state = coherent.construct(spec, z, eps=EPS)  # raises if the two ln N split
    x = abs(state.zeta) ** 2

    assert abs(float(np.sum(np.abs(state.coeffs()) ** 2)) - 1.0) <= 1e-12

    series, closed = stats.summary_series(state), stats.summary_closed(state)
    assert abs(series.mean - closed.mean) <= 1e-10 * closed.mean
    assert abs(series.second_moment - closed.second_moment) <= 1e-10 * closed.second_moment
    assert abs(series.variance - closed.variance) <= 1e-10 * closed.variance
    assert abs(series.mandel_q - closed.mandel_q) <= 1e-10 * max(1.0, abs(closed.mandel_q))

    other = coherent.construct(spec, z + 0.5 * spec.label_scale, eps=EPS)
    assert abs(coherent.overlap(state, other)) <= 1.0 + 1e-12  # raises on a split

    assert coherent.annihilation_residual(state) <= 10.0 * EPS * max(1.0, abs(state.zeta))

    # P_0 = 1/N and P_1 = x P_0 / e_1 from the closed ln N; the window starts
    # at the first weight <= eps^2 below the mode, so n0 = 0 while P_0 > eps^2
    # and n0 > 0 once P_1 <= eps^2 as well
    log_p0 = -state.log_norm_closed
    log_p1 = log_p0 + math.log(x) - math.log(models.step(spec, 1))
    if log_p0 > 2.0 * math.log(EPS):
        assert state.n0 == 0
    if log_p1 <= 2.0 * math.log(EPS):
        assert state.n0 > 0



@st.composite
def moment_specs(draw):
    model_id = draw(st.sampled_from(models.MODEL_IDS))
    if model_id == "exp-mass":
        mu = math.exp(draw(st.floats(math.log(1.5e-154), math.log(1.3e154))))
        return models.make_model(model_id, mu=mu)
    q = math.exp(draw(st.floats(math.log(6e-305), math.log(1e300))))
    return models.make_model(model_id, nonlinearity=q)


def moment_corner(model_id, param):
    key = "mu" if model_id == "exp-mass" else "nonlinearity"
    return models.make_model(model_id, **{key: param})


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(moment_specs(), st.sampled_from([0, 8, 12]))
@example(moment_corner("nonlinear-osc", 6e-305), 12)
@example(moment_corner("bounded-osc", 1e300), 12)
@example(moment_corner("exp-mass", 1.5e-154), 12)
@example(moment_corner("exp-mass", 1.3e154), 12)
def test_moments_reproduce_rho_across_the_q_range(spec, n_max):
    # q from 6e-305 (the weight refuses below 5.6e-305) to 1e300 (the step e_12
    # overflows from q ~ 1.1e306) and every mu make_model accepts; a 1% step
    # bias must fail every row with n >= 1
    reports = measure.verify_moments(spec, n_max=n_max)
    assert [r.n for r in reports] == list(range(n_max + 1))
    assert all(r.passed for r in reports), [r.rel_error for r in reports]
    biased = measure.verify_moments(dataclasses.replace(spec, step_bias=0.01), n_max=n_max)
    assert [r.passed for r in biased] == [True] + [False] * n_max
