"""Finite-difference eigenvalue oracle for the Sturm-Liouville forms."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from gcstates import models, oracle


def nonlinear(q, alpha=1.0):
    return models.make_model("nonlinear-osc", alpha=alpha, nonlinearity=q)


def test_assembly_on_a_tiny_grid():
    # three interior points, p = 1/2, v = zeta^2 / 2 (harmonic): the stencil
    # must be (p_- + p_+)/h^2 + v on the diagonal and -p_+/h^2 off it
    h = models.harmonic_limit(nonlinear(0.1))
    prob = oracle.build_problem(h, points=3)
    assert prob.points == 3
    assert prob.diag.shape == (3,)
    assert prob.offdiag.shape == (2,)
    step = prob.h
    expected_diag = 1.0 / step**2 + prob.nodes**2 / 2.0
    assert np.allclose(prob.diag, expected_diag, rtol=1e-12)
    assert np.allclose(prob.offdiag, -0.5 / step**2, rtol=1e-12)


def test_harmonic_reference_levels():
    h = models.harmonic_limit(nonlinear(0.1, alpha=1.0))
    prob = oracle.build_problem(h, points=2000)
    vals = oracle.lowest_eigenvalues(prob, 4)
    assert np.allclose(vals, [0.5, 1.5, 2.5, 3.5], rtol=2e-5)


def test_harmonic_alpha_scaling():
    h = models.harmonic_limit(nonlinear(0.1, alpha=2.0))
    vals = oracle.lowest_eigenvalues(oracle.build_problem(h, points=2000), 2)
    assert np.allclose(vals, [1.0, 3.0], rtol=2e-5)


@pytest.mark.parametrize("q", [0.07, 0.27])
def test_nonlinear_spectrum_comparison(q):
    comps = oracle.compare_spectrum(nonlinear(q), k=4, points=2000)
    for c in comps:
        assert c.rel_error < 1e-4
        assert c.analytic == models.energy(nonlinear(q), c.n)


def test_bounded_matches_nonlinear_numerics():
    # same Sturm-Liouville problem after the profile substitution
    a = oracle.compare_spectrum(
        models.make_model("bounded-osc", nonlinearity=0.17), k=3, points=1500
    )
    b = oracle.compare_spectrum(nonlinear(0.17), k=3, points=1500)
    for ca, cb in zip(a, b):
        assert ca.numeric == pytest.approx(cb.numeric, rel=1e-12)


def test_expmass_spectrum_comparison():
    spec = models.make_model("exp-mass", alpha=2.0, mu=1.0)
    comps = oracle.compare_spectrum(spec, k=4, points=2000)
    assert comps[0].analytic == 0.0
    for c in comps:
        assert c.rel_error < 1e-4


def test_expmass_energy_scale():
    # dimensionless problem is mu-independent; energies scale by mu^2
    s1 = models.make_model("exp-mass", alpha=2.0, mu=1.0)
    s2 = models.make_model("exp-mass", alpha=2.0, mu=2.0)
    v1 = oracle.lowest_eigenvalues(oracle.build_problem(s1, points=1200), 3)
    v2 = oracle.lowest_eigenvalues(oracle.build_problem(s2, points=1200), 3)
    assert np.allclose(4.0 * v1, v2, rtol=1e-13)


def test_expmass_requires_confinement():
    spec = models.make_model("exp-mass", alpha=1.0, mu=1.0)
    with pytest.raises(ValueError, match="unconfined|alpha"):
        oracle.build_problem(spec)


def test_error_shrinks_with_grid_refinement():
    # second-order stencil: doubling the grid should cut the error ~4x
    spec = nonlinear(0.17)
    coarse = oracle.compare_spectrum(spec, k=3, points=1000)
    fine = oracle.compare_spectrum(spec, k=3, points=2000)
    for c, f in zip(coarse, fine):
        assert c.rel_error / f.rel_error > 3.0


def test_build_problem_guards():
    with pytest.raises(ValueError):
        oracle.build_problem(nonlinear(0.1), points=2)
    with pytest.raises(ValueError):
        oracle.build_problem(nonlinear(0.1), pad=0.0)
    with pytest.raises(ValueError):
        oracle.build_problem(nonlinear(0.1), pad=0.5)


def test_lowest_eigenvalues_k_guard():
    prob = oracle.build_problem(nonlinear(0.1), points=50)
    with pytest.raises(ValueError):
        oracle.lowest_eigenvalues(prob, 0)
    with pytest.raises(ValueError):
        oracle.lowest_eigenvalues(prob, 51)


def test_oscillator_domain_stops_at_mass_singularity():
    # the mass profile vanishes at zeta = 1/sqrt(2q); walls must stay inside
    prob = oracle.build_problem(nonlinear(0.27), points=100)
    wall = 1.0 / math.sqrt(2.0 * 0.27)
    assert prob.lo > -wall
    assert prob.hi < wall


# ------------------------------------------------- parity split, resolution

HARMONIC = models.harmonic_limit(nonlinear(0.1))


@pytest.mark.parametrize("points", [3, 4, 7, 500, 2000, 2001])
@pytest.mark.parametrize(
    "spec", [nonlinear(1e-3), nonlinear(0.1), nonlinear(0.27), nonlinear(1.0), HARMONIC],
    ids=["q=1e-3", "q=0.1", "q=0.27", "q=1", "harmonic"],
)
def test_parity_split_matches_the_full_solve(spec, points):
    prob = oracle.build_problem(spec, points=points)
    assert prob.symmetric
    assert np.array_equal(prob.diag, prob.diag[::-1])
    assert np.array_equal(prob.offdiag, prob.offdiag[::-1])
    for k in range(1, min(5, points) + 1):
        split = oracle.lowest_eigenvalues(prob, k) / prob.energy_scale
        full = eigh_tridiagonal(
            prob.diag, prob.offdiag, select="i", select_range=(0, k - 1), eigvals_only=True
        )
        assert np.max(np.abs(split - full)) <= 2.0 * prob.resolution


def _sturm_count(diag, offdiag, lam):
    """Eigenvalues of the tridiagonal matrix below lam (LDL^T pivot signs)."""
    count, piv = 0, diag[0] - lam
    for d, e in zip(diag[1:], offdiag):
        count += piv < 0
        piv = d - lam - e * e / piv
    return count + (piv < 0)


def test_parity_levels_against_an_mpmath_sturm_count():
    mpmath = pytest.importorskip("mpmath")
    prob = oracle.build_problem(nonlinear(0.1), points=500)
    split = oracle.lowest_eigenvalues(prob, 4) / prob.energy_scale
    with mpmath.workdps(40):
        diag = [mpmath.mpf(float(x)) for x in prob.diag]
        offdiag = [mpmath.mpf(float(x)) for x in prob.offdiag]
        for j, level in enumerate(split):
            lo = mpmath.mpf(float(level)) - 4 * prob.resolution
            hi = mpmath.mpf(float(level)) + 4 * prob.resolution
            assert _sturm_count(diag, offdiag, lo) == j
            assert _sturm_count(diag, offdiag, hi) == j + 1
            while hi - lo > 1e-3 * prob.resolution:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if _sturm_count(diag, offdiag, mid) <= j else (lo, mid)
            assert abs(float(level) - float(lo)) <= prob.resolution


def test_oscillators_share_one_problem_key():
    a = oracle.build_problem(models.make_model("bounded-osc", nonlinearity=0.1), points=50)
    b = oracle.build_problem(nonlinear(0.1), points=50)
    assert a.key == b.key
    assert a.key != oracle.build_problem(nonlinear(0.1), points=51).key
    assert a.key != oracle.build_problem(nonlinear(0.1, alpha=2.0), points=50).key
    assert a.key != oracle.build_problem(HARMONIC, points=50).key


def test_expmass_is_solved_whole():
    prob = oracle.build_problem(models.make_model("exp-mass", alpha=2.0, mu=1.0), points=200)
    assert not prob.symmetric
    full = eigh_tridiagonal(
        prob.diag, prob.offdiag, select="i", select_range=(0, 3), eigvals_only=True
    )
    assert np.array_equal(oracle.lowest_eigenvalues(prob, 4), full * prob.energy_scale)


@pytest.mark.parametrize("alpha, points", [(1.00003, 200), (1.001, 2000), (1.05, 2000)])
def test_unresolvable_expmass_grid_is_refused(alpha, points):
    spec = models.make_model("exp-mass", alpha=alpha, mu=1.0)
    with pytest.raises(ValueError, match=rf"alpha={alpha!r}: .*resolution"):
        oracle.build_problem(spec, points=points)


def test_expmass_near_one_within_resolution_is_accepted():
    prob = oracle.build_problem(models.make_model("exp-mass", alpha=1.1, mu=1.0), points=2000)
    assert prob.resolution < oracle.LEVEL_TOL
    assert np.all(np.isfinite(oracle.lowest_eigenvalues(prob, 4)))


@pytest.mark.parametrize("q, h", [(1e-9, "22"), (1e-6, "0.71")])
def test_coarse_oscillator_grid_is_not_compared(q, h):
    # the walls at +-1/sqrt(2q) leave h = 2(1 - pad)/(sqrt(2q)(M + 1)) in zeta
    spec = nonlinear(q)
    prob = oracle.build_problem(spec, points=2000)
    assert prob.h == pytest.approx(2.0 * (1.0 - prob.pad) / (math.sqrt(2.0 * q) * 2001))
    match = rf"q={q!r}, M=2000: .*spacing h = {h} is above {oracle.ZETA_STEP_MAX}"
    with pytest.raises(ValueError, match=match):
        oracle.require_fine_grid(prob)
    with pytest.raises(ValueError, match=match):
        oracle.compare_spectrum(spec, k=2, points=2000)


@pytest.mark.parametrize(
    "spec, points",
    [(nonlinear(1e-5), 2000), (nonlinear(1e-3), 500), (nonlinear(0.1), 50), (HARMONIC, 3)],
    ids=["q=1e-5", "q=1e-3", "q=0.1", "harmonic"],
)
def test_fine_enough_grid_is_compared(spec, points):
    # the bound applies to the singular oscillators only: harmonic at M = 3 has h > 1
    oracle.require_fine_grid(oracle.build_problem(spec, points=points))
