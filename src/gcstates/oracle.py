"""Independent finite-difference check of the analytic spectra.

Nothing here touches the ladder algebra: each model's Hamiltonian is
discretized directly in divergence form

    H psi = -d/dx[ p(x) d psi/dx ] + v(x) psi,     p = 1/(2 m(x)),

on a uniform grid with Dirichlet walls, using the three-point flux stencil

    (H psi)_i = [ p_{i-1/2} (psi_i - psi_{i-1}) + p_{i+1/2} (psi_i - psi_{i+1}) ] / h^2
                + v_i psi_i,

which keeps the matrix symmetric tridiagonal.  The models are assembled in
their natural dimensionless coordinates and the eigenvalues rescaled:

* singular-mass oscillators (zeta = sqrt(alpha) x, energies in units alpha):
  p = (1 - 2 q zeta^2)/2,  v = zeta^2 / (2 (1 - 2 q zeta^2)), walls inset a
  relative pad inside the mass singularities at +-1/sqrt(2q);
* harmonic reference: p = 1/2, v = zeta^2/2, walls where v = 40;
* exp-mass (y = mu x, energies in units mu^2): p = e^y,
  v = ((alpha^2 - 1) e^y + e^-y)/4 - (alpha + 1)/2.  The left wall sits
  where v has climbed 40 units above its minimum.  On the right the mass
  vanishes and bound states decay only at the finite rate
  kappa = sqrt(alpha^2 - 1)/2 per unit y, so the wall is pushed a further
  3/kappa beyond the 40-unit point; without that extension the wall shift
  dominates the discretization error and refining the grid stalls.

The default pad is 1e-6.  Near a mass singularity the eigenfunction behaves
like delta^s with s = 1/(4q), so the wall-position error scales as pad^{2s};
at q = 0.27 that exponent is below one and a looser pad (1e-3, say) leaves a
grid-independent error floor around 1e-4 that masks the h^2 convergence.

Eigenvalues come from LAPACK's bisection (stebz), whose absolute accuracy
is eps ||T||_1 in units of the energy scale.  ``build_problem`` refuses, with
a ValueError naming the model's parameter, a grid where that resolution is
not below LEVEL_TOL: the level comparisons could not tell a right spectrum
from a wrong one.  That happens for exp-mass as alpha nears 1, where the
right wall's 3/kappa extension makes e^y, and so ||T||_1, overflow.

The singular oscillators' walls sit at zeta = +-1/sqrt(2q), so their grid
spacing h = 2 (1 - pad) / (sqrt(2q) (M + 1)) grows as q shrinks while the
low states keep a width of order one.  Past h = ZETA_STEP_MAX = 0.25 the
levels are off by percents (at q = 1e-9, M = 2000, h is about 22 and E_0
comes out near 62 against 0.5), so ``compare_spectrum`` and the verify
spectrum family refuse such a grid with a ValueError (``require_fine_grid``)
naming q, M and h.  At q = 1e-5, M = 2000 (h = 0.22) the four lowest levels
are within 1.1%, and at q >= 1e-3, M >= 500 (h <= 0.089) within 0.18%.

The oscillators and the harmonic reference have even p and v on a grid
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
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import models
from .models import ModelSpec

__all__ = [
    "LEVEL_TOL",
    "GridEigenproblem",
    "LevelComparison",
    "build_problem",
    "lowest_eigenvalues",
    "require_fine_grid",
    "compare_levels",
    "compare_spectrum",
]

#: relative level error the spectrum checks allow; grids whose bisection
#: cannot resolve levels this finely are refused
LEVEL_TOL = 0.01

#: widest zeta spacing at which a singular-oscillator grid's levels are
#: compared with the analytic spectrum
ZETA_STEP_MAX = 0.25


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
    pad: float
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
        return (self.hamiltonian, self.energy_scale, self.points, self.pad)


def _assemble(
    spec: ModelSpec,
    hamiltonian: str,
    p: Callable[[np.ndarray], np.ndarray],
    v: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    points: int,
    pad: float,
    energy_scale: float,
    symmetric: bool = False,
) -> GridEigenproblem:
    h = (hi - lo) / (points + 1)
    nodes = lo + h * np.arange(1, points + 1)
    # an overflow leaves inf in the matrix, which the resolution refuses
    with np.errstate(over="ignore", invalid="ignore"):
        p_minus = p(nodes - h / 2.0)
        p_plus = p(nodes + h / 2.0)
        diag = (p_minus + p_plus) / h**2 + v(nodes)
        offdiag = -p_plus[:-1] / h**2
        if symmetric:
            # lo + h i rounds unevenly about 0; the mirror average is exactly
            # even, so the parity split in lowest_eigenvalues is exact
            diag = 0.5 * (diag + diag[::-1])
            offdiag = 0.5 * (offdiag + offdiag[::-1])
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
        pad=pad,
        h=h,
        nodes=nodes,
        diag=diag,
        offdiag=offdiag,
        energy_scale=energy_scale,
        symmetric=symmetric,
        resolution=resolution,
    )


def build_problem(spec: ModelSpec, points: int = 2000, pad: float = 1e-6) -> GridEigenproblem:
    """Discretize the model on its truncated natural domain.

    pad is the relative inset of the Dirichlet walls from the mass
    singularities and only applies to the singular-mass models.  A grid
    the bisection cannot resolve to LEVEL_TOL raises ValueError.
    """
    if points != int(points) or points < 3:
        raise ValueError(f"points must be an integer >= 3, got {points}")
    points = int(points)
    if not 0 < pad < 0.1:
        raise ValueError(f"pad must lie in (0, 0.1), got {pad}")

    if spec.id in ("nonlinear-osc", "bounded-osc"):
        q = spec.nonlinearity
        half = (1.0 - pad) / math.sqrt(2.0 * q)

        def p(z):
            return 0.5 * (1.0 - 2.0 * q * z**2)

        def v(z):
            return z**2 / (2.0 * (1.0 - 2.0 * q * z**2))

        return _assemble(spec, f"singular-osc q={q!r}", p, v, -half, half, points, pad,
                         spec.alpha, symmetric=True)

    if spec.id == "harmonic":
        half = math.sqrt(80.0)  # v = zeta^2/2 reaches 40 energy units
        return _assemble(
            spec,
            "harmonic",
            lambda z: np.full_like(z, 0.5),
            lambda z: z**2 / 2.0,
            -half,
            half,
            points,
            pad,
            spec.alpha,
            symmetric=True,
        )

    # exp-mass: confinement on the vanishing-mass side needs alpha > 1
    a = spec.alpha
    if not a > 1.0:
        raise ValueError(
            "exp-mass spectra can only be cross-checked for alpha > 1; the "
            f"potential is unconfined on the right for alpha = {a}"
        )

    def v(y):
        return ((a * a - 1.0) * np.exp(y) + np.exp(-y)) / 4.0 - (a + 1.0) / 2.0

    def p(y):
        return np.exp(y)

    y_bottom = -0.5 * math.log(a * a - 1.0)
    v_min = float(v(np.asarray(y_bottom)))
    y_lo = brentq(lambda y: v(np.asarray(y)) - (v_min + 40.0), y_bottom - 80.0, y_bottom)
    y_hi = brentq(lambda y: v(np.asarray(y)) - (v_min + 40.0), y_bottom, y_bottom + 80.0)
    kappa = 0.5 * math.sqrt(a * a - 1.0)
    y_hi += 3.0 / kappa
    return _assemble(spec, f"exp-mass alpha={a!r}", p, v, y_lo, y_hi, points, pad, spec.mu**2)


def _lowest(diag: np.ndarray, offdiag: np.ndarray, k: int) -> np.ndarray:
    return eigh_tridiagonal(
        diag, offdiag, select="i", select_range=(0, k - 1), eigvals_only=True
    )


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


@dataclass(frozen=True)
class LevelComparison:
    n: int
    numeric: float
    analytic: float
    rel_error: float


def compare_levels(spec: ModelSpec, numeric) -> list[LevelComparison]:
    """Grid levels E_0, E_1, ... against the model's analytic spectrum.

    Relative error uses max(|E_analytic|, energy_unit) in the denominator so
    that a zero ground-state energy (exp-mass) stays meaningful.
    """
    out = []
    for n, e_num in enumerate(numeric):
        e_ana = models.energy(spec, n)
        rel = abs(e_num - e_ana) / max(abs(e_ana), spec.energy_unit)
        out.append(LevelComparison(n, float(e_num), e_ana, rel))
    return out


def require_fine_grid(problem: GridEigenproblem) -> None:
    """Refuse a singular-oscillator grid too coarse to resolve its low states.

    The oscillator states spread over |zeta| of order one while the walls sit
    at +-1/sqrt(2q), so at small q a fixed M leaves only a few nodes across
    them.  A spacing h above ZETA_STEP_MAX raises ValueError naming q, M and
    h.  The matrix itself stays well defined, so build_problem accepts it.
    """
    if problem.spec.id in ("nonlinear-osc", "bounded-osc") and not problem.h <= ZETA_STEP_MAX:
        raise ValueError(
            f"{problem.hamiltonian}, M={problem.points}: the grid's zeta spacing "
            f"h = {problem.h:.2g} is above {ZETA_STEP_MAX}, too coarse to resolve "
            f"the low states; raise M"
        )


def compare_spectrum(
    spec: ModelSpec, k: int = 4, points: int = 2000, pad: float = 1e-6
) -> list[LevelComparison]:
    """Compare the k lowest grid eigenvalues against the analytic spectrum.

    A grid that require_fine_grid refuses raises ValueError.
    """
    problem = build_problem(spec, points=points, pad=pad)
    require_fine_grid(problem)
    return compare_levels(spec, lowest_eigenvalues(problem, k))
