"""Independent finite-difference check of the analytic spectra.

Nothing here touches the ladder algebra: from its mass and potential alone,
each model is brought to Liouville normal form -p u'' + v u = E u with a
constant p, in its natural dimensionless coordinate, and discretized on a
uniform grid with Dirichlet walls by the three-point stencil
p (2 u_i - u_{i-1} - u_{i+1}) / h^2 + v_i u_i, a symmetric tridiagonal
matrix that reads v on the nodes only.

* singular-mass oscillators (zeta = sqrt(alpha) x, energies in units alpha):
  p = (1 - 2 q zeta^2)/2 and v = zeta^2 / (2 (1 - 2 q zeta^2)) vanish and
  blow up at zeta = +-1/sqrt(2q).  zeta = sin(theta)/sqrt(2q),
  u = p^(1/4) psi gives -q u'' + [(1/(4q) - q/4) tan^2 theta - q/2] u = E u
  on (-pi/2, pi/2).  By Frobenius analysis u ~ cos^lam theta at the ends,
  lam = 1/2 + 1/(2q), so the walls sit where that is e^-20:
  theta_w = arccos(exp(-20/lam)), below pi/2 for q <= 1, and on the states
  (about sqrt(2q) wide) at small q.  For q > 1 the tan^2 coefficient turns
  negative, an attractive inverse-square wall, and the model is refused;
* harmonic reference: p = 1/2, v = zeta^2/2, walls where v = 40;
* exp-mass (y = mu x, energies in units mu^2): m = e^-y/2, so
  H = -(d/dy) e^y (d/dy) + ((alpha^2 - 1) e^y + e^-y)/4 - (alpha + 1)/2.
  x = 2 e^(-y/2), u = e^(y/4) psi gives the radial oscillator
  -u'' + [(alpha^2 - 1/4)/x^2 + x^2/16 - (alpha + 1)/2] u = E u on x > 0.
  The vanishing-mass end y -> +inf is x = 0, where u ~ x^(1/2 +- alpha):
  limit-point for alpha >= 1, limit-circle for 1/2 <= alpha < 1, where the
  Dirichlet wall picks the principal solution x^(alpha + 1/2); either way
  the levels are n.  Below alpha = 1/2 both solutions vanish at x = 0, a
  wall picks no spectrum, and the model is refused.  The grid runs in
  y' = x - x* about the well x* = 2 sqrt(alpha), where with e = y'/x*
  v = (y' (2 + e)/(4 (1 + e)))^2 - 1/(4 x^2) - 1/2 cancels nothing and
  reads alpha only through x*, up to the largest double.  The walls are
  the roots of the quadratic in e where the square reaches 40.5, the left
  one moved out to where x^(alpha + 1/2) is e^-20 of its value at x* if
  that is farther.  As for the oscillators, u'' is unbounded at the x = 0
  wall for 1 < lam = alpha + 1/2 < 2, and at the default points the order
  check below refuses alpha from 0.508 to 1.060 (order 1.53 at 0.6);
  alpha = 1/2, where u ~ x, and every alpha above 1.061 pass.

Eigenvalues come from LAPACK's bisection (dstebz), whose absolute accuracy
is eps ||T||_1 in units of the energy scale.  ``build_problem`` refuses, with
a ValueError naming the model's parameter, a grid where that resolution is
not below LEVEL_TOL: the level comparisons could not tell a right spectrum
from a wrong one.  No model comes near it at the default points, where
eps ||T||_1 is at most 5.9e-12 (q = 1) and, for exp-mass, 1.5e-13 at any
alpha; the guard stands against a matrix that overflows.

Levels with an error bar.  ``compare_spectrum`` solves a grid triple of
M, 2M + 1 and 4M + 3 points, so h halves exactly, with 4M + 3 the largest
such size not above ``points`` (default POINTS = 255).  The stencil's
levels run E* + c h^2 + ..., so the Richardson value
E_R = (4 E_fine - E_mid)/3 drops the h^2 term, and |E_fine - E_mid|/3, the
finest plain grid's own error, is the reported estimate.  That holds only
where the grids are in their second-order regime, so the observed order
log2(|E_mid - E_coarse| / |E_fine - E_mid|) is checked: below ORDER_MIN, or
with an estimate not below LEVEL_TOL, the comparison raises ValueError
rather than report an error that would read as physics.  At the default
points the oscillators' lowest observed order is 1.87 at q = 0.5, 1.24 at
q = 0.9, and 2.00 at q = 1, where the tan^2 term vanishes.  The order and
the estimate are the one test of a grid; no rule on the node spacing is
added (the README gives the sweep behind that).

The oscillators and the harmonic reference have an even v on a grid
symmetric about 0, so their matrix splits exactly into an even and an odd
block of half size.  For even M the half blocks start at d +- e_c, with e_c
the coupling of the two centre nodes (+ even, - odd).  For odd M the even
block keeps the centre node with coupling sqrt(2) e, and the odd block
drops it.  The offdiagonals are negative (a Jacobi matrix), so by Sturm
oscillation the j-th eigenvector has j sign changes: the levels alternate
even, odd, even, ..., and the k lowest are the ceil(k/2) lowest of the even
block and the floor(k/2) lowest of the odd block.  Each bisection then runs
on half the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models
from .models import ModelSpec

__all__ = [
    "LEVEL_TOL",
    "ORDER_MIN",
    "POINTS",
    "GridEigenproblem",
    "LevelComparison",
    "build_problem",
    "lowest_eigenvalues",
    "min_points",
    "compare_spectrum",
]

#: relative level error the spectrum checks allow; grids whose bisection
#: cannot resolve levels this finely, and level estimates not below it, are refused
LEVEL_TOL = 0.01

#: lowest observed convergence order at which a grid triple's levels are trusted
ORDER_MIN = 1.9

#: default size of the finest grid of a comparison's triple
POINTS = 255


@dataclass(frozen=True)
class GridEigenproblem:
    """Symmetric tridiagonal discretization of one model Hamiltonian.

    diag/offdiag hold the dimensionless matrix; eigenvalues multiply by
    energy_scale to land in absolute units.  hamiltonian names the p, v
    family and its parameter; symmetric marks p and v even on a grid
    symmetric about 0; resolution is the bisection's eps ||T||_1.
    """

    spec: ModelSpec
    hamiltonian: str
    lo: float
    hi: float
    points: int
    h: float
    nodes: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray
    energy_scale: float
    symmetric: bool
    resolution: float

    @property
    def key(self) -> tuple:
        """What the matrix depends on: models with equal keys share levels."""
        return (self.hamiltonian, self.energy_scale, self.points)


def _assemble(
    spec: ModelSpec,
    hamiltonian: str,
    p: float,
    v: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    points: int,
    energy_scale: float,
    symmetric: bool = False,
) -> GridEigenproblem:
    h = (hi - lo) / (points + 1)
    nodes = lo + h * np.arange(1, points + 1)
    # an overflow leaves inf in the matrix, which the resolution refuses
    with np.errstate(over="ignore", invalid="ignore"):
        diag = 2.0 * p / h**2 + v(nodes)
        offdiag = np.full(points - 1, -p / h**2)
        if symmetric:
            # lo + h i rounds unevenly about 0; the mirror average is exactly
            # even, so the parity split in lowest_eigenvalues is exact
            diag = 0.5 * (diag + diag[::-1])
        col = np.abs(diag)
        col[1:] += np.abs(offdiag)
        col[:-1] += np.abs(offdiag)
    resolution = float(np.finfo(float).eps * col.max())
    if not resolution < LEVEL_TOL:
        raise ValueError(
            f"{hamiltonian}: the grid's eigenvalue resolution eps*||T||_1 = "
            f"{resolution:.2g} energy units is not below the level tolerance {LEVEL_TOL}"
        )
    for a in (nodes, diag, offdiag):
        a.setflags(write=False)
    return GridEigenproblem(
        spec=spec,
        hamiltonian=hamiltonian,
        lo=lo,
        hi=hi,
        points=points,
        h=h,
        nodes=nodes,
        diag=diag,
        offdiag=offdiag,
        energy_scale=energy_scale,
        symmetric=symmetric,
        resolution=resolution,
    )


def build_problem(spec: ModelSpec, points: int = POINTS) -> GridEigenproblem:
    """Discretize the model on one grid of its truncated natural domain.

    Every model is solved in Liouville form with constant p.  The
    singular-mass models are refused for q > 1 and exp-mass for
    alpha < 1/2.  A grid the bisection cannot resolve to LEVEL_TOL raises
    ValueError.
    """
    if points != int(points) or points < 3:
        raise ValueError(f"points must be an integer >= 3, got {points}")
    points = int(points)

    if spec.id in ("nonlinear-osc", "bounded-osc"):
        q = spec.nonlinearity
        if not q <= 1.0:
            raise ValueError(
                f"singular-osc q={q!r}: the Liouville potential's tan^2 coefficient "
                f"1/(4q) - q/4 is negative for q > 1; the oracle covers 0 < q <= 1"
            )
        lam = 0.5 + 0.5 / q
        # cos(theta_w) = exp(-20/lam) by the half angle, which keeps small q's digits
        wall = 2.0 * math.asin(math.sqrt(-0.5 * math.expm1(-20.0 / lam)))
        c = 0.25 / q - 0.25 * q

        def v(theta):
            return c * np.tan(theta) ** 2 - 0.5 * q

        return _assemble(spec, f"singular-osc q={q!r}", q, v, -wall, wall, points,
                         spec.alpha, symmetric=True)

    if spec.id == "harmonic":
        half = math.sqrt(80.0)  # v = zeta^2/2 reaches 40 energy units
        return _assemble(spec, "harmonic", 0.5, lambda z: z**2 / 2.0, -half, half, points,
                         spec.alpha, symmetric=True)

    # exp-mass in y' = x - x*, x = 2 e^(-y/2); the module docstring has the form
    a = spec.alpha
    if not a >= 0.5:
        raise ValueError(
            f"exp-mass alpha={a!r}: below alpha = 1/2 both solutions vanish at the x = 0 "
            f"endpoint and a wall there picks no spectrum; the oracle covers alpha >= 1/2"
        )
    x_star = 2.0 * math.sqrt(a)

    def v(y):
        e = y / x_star
        return (y * (2.0 + e) / (4.0 * (1.0 + e))) ** 2 - (0.5 / (x_star + y)) ** 2 - 0.5

    # the square reaches 40.5 where |e (2 + e)/(1 + e)| = g, a quadratic in e
    g = math.sqrt(162.0 / a)
    r = math.sqrt(g * g + 4.0)
    hi = 0.5 * x_star * (g + g * g / (r + 2.0))
    lo = min(-2.0 * x_star * g / (2.0 + g + r), x_star * math.expm1(-20.0 / (a + 0.5)))
    return _assemble(spec, f"exp-mass alpha={a!r}", 1.0, v, lo, hi, points, spec.mu**2)


def _lowest(diag: np.ndarray, offdiag: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvalues by LAPACK's bisection, as eigh_tridiagonal gets them."""
    if diag.size == 1:
        return diag.copy()
    from scipy.linalg.lapack import dstebz

    # range 2 selects by index, il..iu = 1..k; abstol 0 is eps ||T||_1
    m, w, _, _, info = dstebz(diag, offdiag, 2, 0.0, 1.0, 1, k, 0.0, "E")
    if info != 0 or m != k:
        raise np.linalg.LinAlgError(f"dstebz gave {m} of {k} eigenvalues (LAPACK info={info})")
    return w[:k]


def _parity_blocks(problem: GridEigenproblem) -> tuple[tuple, tuple]:
    """(diag, offdiag) of the even and the odd half block, from the right half."""
    d, e = problem.diag, problem.offdiag
    m = problem.points // 2
    if problem.points % 2:
        even = (d[m:], np.concatenate(([math.sqrt(2.0) * e[m]], e[m + 1:])))
        return even, (d[m + 1:], e[m + 1:])
    rest = d[m + 1:]
    return (
        (np.concatenate(([d[m] + e[m - 1]], rest)), e[m:]),
        (np.concatenate(([d[m] - e[m - 1]], rest)), e[m:]),
    )


def lowest_eigenvalues(problem: GridEigenproblem, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending, in absolute energy units.

    A symmetric problem takes the ceil(k/2) lowest even and floor(k/2)
    lowest odd levels from its half blocks.
    """
    if k != int(k) or not 1 <= k <= problem.points:
        raise ValueError(f"k must be an integer in 1..{problem.points}, got {k}")
    k = int(k)
    if problem.symmetric:
        (d_even, e_even), (d_odd, e_odd) = _parity_blocks(problem)
        vals = _lowest(d_even, e_even, (k + 1) // 2)
        if k > 1:
            vals = np.sort(np.concatenate((vals, _lowest(d_odd, e_odd, k // 2))))
    else:
        vals = _lowest(problem.diag, problem.offdiag, k)
    return vals * problem.energy_scale


def min_points(k: int) -> int:
    """Fewest finest-grid points for k levels: the coarse grid needs max(k, 3)."""
    return 4 * max(int(k), 3) + 3


@dataclass(frozen=True)
class LevelComparison:
    """One extrapolated level against the analytic spectrum.

    rel_error is relative to max(|E_analytic|, energy unit), so a zero
    ground level (exp-mass) stays meaningful, and error_bar, the estimate
    |E_fine - E_mid|/3, to max(|E_R|, energy unit); order is the level's
    observed convergence order.  The level passes when rel_error is below
    threshold, LEVEL_TOL.
    """

    n: int
    numeric: float
    analytic: float
    rel_error: float
    error_bar: float
    order: float
    threshold: float
    passed: bool


def _richardson(coarse: GridEigenproblem, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E_R, relative estimate, observed order) of the k lowest levels of a grid triple."""
    m = coarse.points
    e_coarse = lowest_eigenvalues(coarse, k)
    e_mid, e_fine = (lowest_eigenvalues(build_problem(coarse.spec, n), k)
                     for n in (2 * m + 1, 4 * m + 3))
    value = (4.0 * e_fine - e_mid) / 3.0
    bar = np.abs(e_fine - e_mid) / 3.0 / np.maximum(np.abs(value), coarse.energy_scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.log2(np.abs(e_mid - e_coarse) / np.abs(e_fine - e_mid))
    for n in range(k):
        if not (order[n] >= ORDER_MIN and bar[n] < LEVEL_TOL):
            raise ValueError(
                f"{coarse.hamiltonian}, M={4 * m + 3}: level n={n} converges at observed "
                f"order {order[n]:.3f} with error estimate {bar[n]:.2g}; a trusted level "
                f"needs order >= {ORDER_MIN} and an estimate below {LEVEL_TOL}"
            )
    return value, bar, order


def compare_spectrum(
    spec: ModelSpec, k: int = 4, points: int = POINTS, solves: dict | None = None
) -> list[LevelComparison]:
    """The k lowest extrapolated levels against the analytic spectrum.

    The grid triple's finest size is the largest 4M + 3 not above points,
    which must be at least min_points(k).  A triple whose levels fail the
    order or estimate check raises ValueError.  ``solves`` keeps each
    triple's levels by the coarse grid's key and k, so models sharing a
    Hamiltonian are solved once.
    """
    if points != int(points) or points < min_points(k):
        raise ValueError(
            f"points must be an integer >= {min_points(k)} for {k} levels, got {points}"
        )
    coarse = build_problem(spec, (int(points) + 1) // 4 - 1)
    solves = {} if solves is None else solves
    key = (coarse.key, k)
    if key not in solves:
        solves[key] = _richardson(coarse, k)
    out = []
    for n, (e_num, bar, order) in enumerate(zip(*solves[key])):
        e_ana = models.energy(spec, n)
        rel = abs(e_num - e_ana) / max(abs(e_ana), spec.energy_unit)
        out.append(LevelComparison(n, float(e_num), e_ana, rel, float(bar), float(order),
                                   LEVEL_TOL, rel < LEVEL_TOL))
    return out
