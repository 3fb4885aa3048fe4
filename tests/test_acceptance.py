"""Acceptance gate: one test per shipped claim, stated tolerances only.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  The whole file stays under the two-minute desk budget.
"""

import math

import numpy as np
import pytest

from gcstates import cli, coherent, measure, models, oracle, stats

LAMBDA_SET = (0.07, 0.17, 0.27)


def nonlinear(q, alpha=1.0):
    return models.make_model("nonlinear-osc", alpha=alpha, nonlinearity=q)


def bounded(q):
    return models.make_model("bounded-osc", nonlinearity=q)


def expmass(mu):
    return models.make_model("exp-mass", alpha=2.0, mu=mu)


def grid_specs():
    specs = [nonlinear(q) for q in LAMBDA_SET]
    specs += [bounded(q) for q in LAMBDA_SET]
    specs += [expmass(1.0), expmass(2.0)]
    return specs


def label(spec):
    tag = spec.nonlinearity if spec.nonlinearity is not None else spec.mu
    return f"{spec.id}:{tag}"


def test_c01_spectra_match_finite_difference_oracle():
    # every model in the grid: n = 0..3 within 1% from the default grid
    # triple, each level converging at observed order >= 1.9 and its
    # reported error estimate bounding the true error
    for spec in grid_specs():
        for c in oracle.compare_spectrum(spec, k=4):
            where = f"{label(spec)} n={c.n}"
            assert c.rel_error < 0.01, f"{where}: {c.rel_error:.3e}"
            assert c.order >= 1.9, f"{where}: observed order {c.order:.3f}"
            assert c.rel_error <= c.error_bar, (
                f"{where}: error {c.rel_error:.3e} above its estimate {c.error_bar:.3e}"
            )


def test_c02_generalized_factorial_closed_form():
    # telescoping product vs Gamma closed form, n <= 200, 1e-9 relative
    for spec in grid_specs():
        q = spec.nonlinearity
        acc = 0.0
        for n in range(1, 201):
            acc += math.log(spec.energy_unit * models.step(spec, n))
            acc_dimless = acc - n * math.log(spec.energy_unit)
            if q is not None:
                closed = (
                    math.lgamma(n + 1.0)
                    + n * math.log(q)
                    + math.lgamma(2.0 + 1.0 / q + n)
                    - math.lgamma(2.0 + 1.0 / q)
                )
            else:
                closed = math.lgamma(n + 1.0)
            lib = models.rho_log(spec, n)
            assert abs(lib - closed) <= 1e-9 * max(1.0, abs(closed))
            assert abs(acc_dimless - closed) <= 1e-9 * max(1.0, abs(closed))


def test_c03_lowering_operator_eigenstate():
    for spec in grid_specs():
        for z_abs in (0.5, 1.5, 3.0):
            state = coherent.construct(spec, z_abs, eps=1e-12)
            res = coherent.annihilation_residual(state)
            assert res < 1e-10, f"{label(spec)} |z|={z_abs}: {res:.3e}"


def test_c04_normalization_closed_forms():
    for spec in grid_specs():
        for z_abs in (0.25, 1.0, 2.0, 3.5, 5.0):
            state = coherent.construct(spec, z_abs)
            closed = spec.ladder.closed(z_abs**2 / spec.label_scale**2)[0]
            gap = abs(state.log_norm - closed)
            assert gap <= 1e-9, f"{label(spec)} |z|={z_abs}: {gap:.3e}"


def test_c05_measure_moments_reproduce_factorials():
    # quadrature of the weight against rho_n, one spec per model family
    for spec in (nonlinear(0.27), bounded(0.1), expmass(2.0)):
        for rep in measure.verify_moments(spec, n_max=8):
            limit = 1e-8 if rep.n == 0 else 1e-6
            assert rep.rel_error < limit, (
                f"{label(spec)} n={rep.n}: {rep.rel_error:.3e}"
            )


def test_c06_statistics_poissonian_and_sub_poissonian():
    # exponential profile: exactly Poissonian
    for mu in (1.0, 2.0):
        for z_abs in (0.5, 1.0, 2.0, 3.0):
            s = stats.summary_series(coherent.construct(expmass(mu), z_abs))
            target = (z_abs / mu) ** 2
            assert abs(s.mean - target) <= 1e-10 * max(1.0, target)
            assert abs(s.variance - target) <= 1e-10 * max(1.0, target)
            assert abs(s.mandel_q) <= 1e-9
    # nonlinearity: strictly sub-Poissonian on the whole grid
    for q in (0.02, 0.05, 0.1, 0.17, 0.27, 0.5):
        for z_abs in (0.5, 1.0, 2.0, 4.0):
            assert stats.mandel_q_closed(nonlinear(q), z_abs) < 0.0
    # and the deviation fades monotonically as the nonlinearity is removed
    qs = (0.5, 0.27, 0.17, 0.1, 0.05, 0.02)
    mags = [abs(stats.mandel_q_closed(nonlinear(q), 1.0)) for q in qs]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_c07_matched_mean_distributions_narrow():
    target = 10.0
    harmonic = models.harmonic_limit(nonlinear(0.1))
    h_state = coherent.construct(harmonic, math.sqrt(target))
    h_summary = stats.summary_series(h_state)
    assert h_summary.mean == pytest.approx(target, rel=1e-10)
    peaks = []
    for q in LAMBDA_SET:
        spec = nonlinear(q)
        z_abs = stats.match_mean_abs_z(spec, target)
        state = coherent.construct(spec, z_abs)
        s = stats.summary_series(state)
        assert s.mean == pytest.approx(target, rel=1e-8)
        assert s.variance < h_summary.variance, (
            f"lambda'={q}: {s.variance:.4f} !< {h_summary.variance:.4f}"
        )
        peaks.append(float(np.max(stats.distribution(state))))
    # stronger nonlinearity concentrates the distribution further
    assert peaks[0] < peaks[1] < peaks[2]
    assert peaks[0] > float(np.max(stats.distribution(h_state)))


def test_c08_radius_of_convergence_infinite():
    for spec in (nonlinear(0.07), nonlinear(0.27), bounded(0.1),
                 expmass(1.0), expmass(2.0)):
        assert measure.radius(spec).classification == "infinite"


def test_c09_overlap_kernel_and_continuity():
    rng = np.random.default_rng(20240817)
    for spec in (nonlinear(0.1), bounded(0.27), expmass(1.0)):
        for _ in range(20):
            za = complex(*rng.normal(scale=1.5, size=2))
            zb = complex(*rng.normal(scale=1.5, size=2))
            a = coherent.construct(spec, za)
            b = coherent.construct(spec, zb)
            series = coherent.overlap(a, b)
            kernel = coherent.overlap_kernel(a, b)
            assert abs(series - kernel) <= 1e-8
            assert abs(series) <= 1.0 + 1e-12
        state = coherent.construct(spec, 1.0 + 0.5j)
        d1 = coherent.label_continuity(state, 1e-3)
        d2 = coherent.label_continuity(state, 5e-4)
        assert 3.5 <= d1 / d2 <= 4.5


def test_c10_verify_command_and_negative_control(capsys):
    assert cli.main(["verify"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--corrupt-steps"]) == 1
    capsys.readouterr()
