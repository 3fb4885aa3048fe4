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
    # must be 2p/h^2 + v on the diagonal and -p/h^2 off it
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


def test_expmass_below_one_half_is_refused():
    # below alpha = 1/2 both Frobenius solutions vanish at x = 0, so a wall
    # there picks no spectrum; make_model still takes the model
    spec = models.make_model("exp-mass", alpha=0.4, mu=1.0)
    with pytest.raises(ValueError, match=r"alpha=0.4: below alpha = 1/2 .* alpha >= 1/2"):
        oracle.build_problem(spec)


def test_error_shrinks_with_grid_refinement():
    # second-order stencil: doubling a plain grid should cut the error ~4x
    spec = nonlinear(0.17)
    exact = models.energy(spec, np.arange(3))
    coarse, fine = (
        np.abs(oracle.lowest_eigenvalues(oracle.build_problem(spec, points=m), 3) - exact) / exact
        for m in (1000, 2000)
    )
    assert np.all(coarse / fine > 3.0)


def test_build_problem_guards():
    with pytest.raises(ValueError):
        oracle.build_problem(nonlinear(0.1), points=2)


def test_lowest_eigenvalues_k_guard():
    prob = oracle.build_problem(nonlinear(0.1), points=50)
    with pytest.raises(ValueError):
        oracle.lowest_eigenvalues(prob, 0)
    with pytest.raises(ValueError):
        oracle.lowest_eigenvalues(prob, 51)


def test_oscillator_domain_stops_at_mass_singularity():
    # the mass profile vanishes at theta = +-pi/2; the walls sit inside, where
    # cos(theta)^lam = e^-20 with lam = 1/2 + 1/(2q)
    for q in (1e-9, 0.27, 1.0):
        prob = oracle.build_problem(nonlinear(q), points=100)
        lam = 0.5 + 0.5 / q
        assert prob.hi == pytest.approx(math.acos(math.exp(-20.0 / lam)), rel=1e-7)
        assert prob.lo == -prob.hi
        assert prob.hi < math.pi / 2


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


@pytest.mark.parametrize("alpha, points", [(1.00003, 200), (1.001, 2000), (1.05, 255), (0.6, 255)])
def test_unresolvable_expmass_grid_is_refused(alpha, points):
    # for 1/2 < alpha < 3/2, u ~ x^(alpha + 1/2) leaves u'' unbounded at the
    # x = 0 wall, and near alpha = 1 and 0.6 the uniform grid triple falls
    # below second order: the comparison is refused by its observed order
    spec = models.make_model("exp-mass", alpha=alpha, mu=1.0)
    assert oracle.build_problem(spec, points=points).resolution < 1e-10
    with pytest.raises(ValueError, match=rf"alpha={alpha!r}, M=\d+: .*observed order 1\.[5-8]"):
        oracle.compare_spectrum(spec, k=4, points=points)


@pytest.mark.parametrize("v", [lambda x: np.exp(1e3 * x), lambda x: np.full_like(x, 1e15)],
                         ids=["overflow", "huge"])
def test_unresolvable_matrix_is_refused(v):
    # the bisection's eps ||T||_1 must be below LEVEL_TOL; a v that overflows
    # to inf, or merely dwarfs the levels, leaves no level to compare
    with pytest.raises(ValueError, match=r"^test: .*resolution .* not below the level tolerance"):
        oracle._assemble(HARMONIC, "test", 0.5, v, -1.0, 1.0, 20, 1.0)


def test_expmass_near_one_within_resolution_is_accepted():
    prob = oracle.build_problem(models.make_model("exp-mass", alpha=1.1, mu=1.0), points=2000)
    assert prob.resolution < oracle.LEVEL_TOL
    assert np.all(np.isfinite(oracle.lowest_eigenvalues(prob, 4)))


EXPMASS_ALPHAS = [0.5, 1.1, 1.5, 2.0, 10.0, 1e6, 1e15, 1e154, 1e200, 1e300, 1.7e308]


@pytest.mark.parametrize("alpha", sorted({*EXPMASS_ALPHAS, 1.05, 3.0, 4.0, 1e3, 1e8}))
def test_expmass_walls_are_the_40_unit_points(alpha):
    # in y' = x - x*, x* = 2 sqrt(alpha), the walls sit where the square
    # (y' (2 + e)/(4 (1 + e)))^2, e = y'/x*, reaches 40.5; the left one moves
    # out to where x^(alpha + 1/2) is e^-20 of its value at x* if that is farther
    mpmath = pytest.importorskip("mpmath")
    prob = oracle.build_problem(models.make_model("exp-mass", alpha=alpha, mu=1.0), points=200)
    with mpmath.workdps(40):
        x_star = 2 * mpmath.sqrt(mpmath.mpf(alpha))

        def square(y):
            e = mpmath.mpf(y) / x_star
            return (y * (2 + e) / (4 * (1 + e))) ** 2

        e20 = x_star * mpmath.expm1(-20 / (mpmath.mpf(alpha) + 0.5))
        assert prob.hi > 0 and abs(square(prob.hi) / 40.5 - 1) < 1e-13
        # the left wall is one of the two points, and the farther of them
        assert square(prob.lo) > 40.5 * (1 - 1e-13)
        assert prob.lo < e20 * (1 - 1e-14)
        assert abs(square(prob.lo) / 40.5 - 1) < 1e-13 or abs(prob.lo / e20 - 1) < 1e-14


@pytest.mark.parametrize("alpha", EXPMASS_ALPHAS)
def test_expmass_levels_hold_at_the_default_points(alpha):
    # alpha enters only x*, so from 1/2 to the largest double every level
    # converges at second order and meets its error bar
    for c in oracle.compare_spectrum(models.make_model("exp-mass", alpha=alpha, mu=1.0), k=4):
        assert c.order >= oracle.ORDER_MIN
        assert c.rel_error <= c.error_bar < oracle.LEVEL_TOL


@pytest.mark.parametrize("q", [1e-9, 1e-6, 1e-3])
def test_small_q_is_compared_at_the_default_points(q):
    # as q -> 0 the walls where cos(theta)^lam = e^-20 approach
    # zeta = +-2 sqrt(10), and the default triple's levels converge at
    # order 2, so the observed-order check passes them
    for c in oracle.compare_spectrum(nonlinear(q), k=4):
        assert c.rel_error <= c.error_bar
        assert c.rel_error < 2e-6


@pytest.mark.parametrize(
    "spec, coarse",
    [(nonlinear(1e-5), 2000), (nonlinear(1e-3), 500), (nonlinear(0.1), 50), (HARMONIC, 63)],
    ids=["q=1e-5", "q=1e-3", "q=0.1", "harmonic"],
)
def test_fine_enough_grid_is_compared(spec, coarse):
    # a coarse grid of this size and its two refinements converge at order 2,
    # so the observed-order check compares every level
    for c in oracle.compare_spectrum(spec, k=4, points=4 * coarse + 3):
        assert c.order >= oracle.ORDER_MIN
        assert c.rel_error <= c.error_bar < oracle.LEVEL_TOL


@pytest.mark.parametrize("q", [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 1.0])
def test_every_small_grid_is_refused_or_right(q):
    # the observed order and the estimate are the only test of a grid: on
    # every coarse M = 3..30 a comparison either raises or gives levels
    # within LEVEL_TOL and within their own error bar
    spec = nonlinear(q)
    compared = 0
    for m in range(3, 31):
        for k in (1, 2, 4):
            if 4 * m + 3 < oracle.min_points(k):
                continue
            try:
                comps = oracle.compare_spectrum(spec, k=k, points=4 * m + 3)
            except ValueError:
                continue
            compared += 1
            for c in comps:
                assert c.rel_error < oracle.LEVEL_TOL, (m, k, c)
                assert c.rel_error <= c.error_bar, (m, k, c)
    assert compared > 0


# ------------------------------------------------- error bars, observed order


def test_levels_extrapolate_from_a_grid_triple():
    # E_R = (4 E_fine - E_mid)/3 on M, 2M + 1, 4M + 3 points, h halving exactly
    spec = nonlinear(0.1)
    e_coarse, e_mid, e_fine = (
        oracle.lowest_eigenvalues(oracle.build_problem(spec, points=m), 4) for m in (63, 127, 255)
    )
    for points in (255, 256, 258):
        comps = oracle.compare_spectrum(spec, k=4, points=points)
        assert [c.numeric for c in comps] == list((4.0 * e_fine - e_mid) / 3.0)
        assert [c.error_bar for c in comps] == list(
            np.abs(e_fine - e_mid) / 3.0 / np.maximum((4.0 * e_fine - e_mid) / 3.0, 1.0)
        )
        assert [c.order for c in comps] == list(
            np.log2(np.abs(e_mid - e_coarse) / np.abs(e_fine - e_mid))
        )


def test_points_below_the_minimum_are_refused():
    assert oracle.min_points(4) == 19
    assert oracle.min_points(1) == 15
    with pytest.raises(ValueError, match="points must be an integer >= 19 for 4 levels"):
        oracle.compare_spectrum(nonlinear(0.1), k=4, points=18)
    with pytest.raises(ValueError, match="points must be an integer >= 15 for 1 levels"):
        oracle.compare_spectrum(nonlinear(0.1), k=1, points=14)


# the oracle cases of ROADMAP item 1's two tables, as (model, finest points):
# the Richardson pairs of M and 2M + 1 points are the upper two grids of
# these triples, and the plain M = 2000 and 8000 grids are near their finest
TABLE_CASES = [
    (nonlinear(0.1), 511),
    (models.make_model("exp-mass", alpha=2.0, mu=1.0), 511),
    (nonlinear(1e-3), 1023),
    *((nonlinear(q), m) for q in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0) for m in (2047, 8191)),
]


@pytest.mark.parametrize(
    "spec, points", TABLE_CASES,
    ids=[f"{s.id}-{s.nonlinearity or s.alpha}-{m}" for s, m in TABLE_CASES],
)
def test_error_estimate_bounds_the_true_error(spec, points):
    # each case is compared with every level under its estimate, or refused
    try:
        comps = oracle.compare_spectrum(spec, k=4, points=points)
    except ValueError as exc:
        assert spec.nonlinearity is not None and (
            spec.nonlinearity > 1.0 or "observed order" in str(exc)
        ), exc
        return
    for c in comps:
        assert c.order >= oracle.ORDER_MIN
        assert c.rel_error <= c.error_bar < oracle.LEVEL_TOL


def test_a_broken_order_is_refused():
    # q = 0.9: the wall exponent lam = 1.06 leaves u'' singular, order 1.24
    with pytest.raises(ValueError, match=r"q=0.9, M=255: level n=0 .* observed order 1.2"):
        oracle.compare_spectrum(nonlinear(0.9), k=4)


def test_q_above_one_is_refused():
    with pytest.raises(ValueError, match=r"q=2.0: .*negative for q > 1"):
        oracle.build_problem(nonlinear(2.0))


def test_q_one_half_meets_its_gate_at_8191_points():
    comps = oracle.compare_spectrum(nonlinear(0.5), k=4, points=8191)
    assert min(c.order for c in comps) >= 1.9
    assert max(c.rel_error for c in comps) <= 1e-5


def test_q_one_is_compared_at_the_default_points():
    comps = oracle.compare_spectrum(nonlinear(1.0), k=4)
    assert min(c.order for c in comps) >= 1.9
    assert max(c.rel_error for c in comps) < 1e-7


def test_one_triple_per_key_and_k():
    solves = {}
    a = oracle.compare_spectrum(nonlinear(0.1), k=4, solves=solves)
    b = oracle.compare_spectrum(models.make_model("bounded-osc", nonlinearity=0.1), k=4,
                                solves=solves)
    assert len(solves) == 1
    assert [c.numeric for c in a] == [c.numeric for c in b]
    oracle.compare_spectrum(nonlinear(0.1), k=2, solves=solves)
    assert len(solves) == 2


def test_the_benchmark_calls_into_the_oracle():
    # perfbench's verify warm-up calls this outside any try, and its tracer
    # reads compare_spectrum's points argument and each row's rel_error
    import inspect

    assert "points" in inspect.signature(oracle.compare_spectrum).parameters
    exp = models.make_model("exp-mass", alpha=2.0, mu=1.0)
    (comp,) = oracle.compare_spectrum(exp, k=1, points=50)
    assert comp.rel_error <= comp.error_bar < oracle.LEVEL_TOL
