"""Built-in solvable position-dependent-mass models and their spectra.

Each model is a one-dimensional Hamiltonian H = -d/dx[(1/2m(x)) d/dx] + V(x)
whose mass profile and potential close a shape-invariant ladder algebra: a
lowering operator L- connects eigenstate n to n-1, and the whole construction
downstream (coherent states, photon statistics, measures) consumes a model
only through its ladder family.  Only the grid oracle, which never sees the
algebra, looks at the model id.

Ladder families
---------------
``QuadraticLadder(q, unit)``
    e_n = n (1 + q (n + 1)), E_n = unit (n + 1/2 + q n (n+1)).  The
    generalized factorial is rho_n = n! q^n (b)_n with b = 2 + 1/q, so the
    normalizer is N(x) = 0F1(; b; x/q), a window sum, and the reduced measure
    weight is a modified Bessel kernel.  Labels need no rescaling (scale 1).

``LinearLadder(scale, unit, ground)``
    e_n = n, E_n = unit (n + ground), rho_n = n!, N(x) = exp(x): the
    harmonic ladder, with exactly Poissonian statistics.  ``scale`` relates
    the physical coherent-state label to e_n units.

Each family owns its closed forms (steps, energies, remainders, ln rho_n,
ln N at |zeta|^2 and at the overlap's complex conj(zeta_a) zeta_b, the
number mean and variance and the measure weight); ``ModelSpec.ladder`` resolves a
spec's family once.  Model-level sequences, with ``unit`` the model's
natural energy quantum:

* ``energy(spec, n)``    absolute eigenvalue E_n,
* ``remainder(spec, k)`` shape-invariance increment E_k - E_{k-1}, k >= 1,
* ``step(spec, n)``      dimensionless e_n = (E_n - E_0) / unit, the squared
                         ladder coefficient (L- maps state n to sqrt(e_n)
                         times state n-1),
* ``rho_log(spec, n)``   ln rho_n with rho_n = e_1 e_2 ... e_n (rho_0 = 1),
                         the generalized factorial that normalizes coherent
                         states.

The first three also take an integer index array n (or k) and give the
array of values, equal to the scalar calls bit for bit.

Built-in model ids
------------------
``nonlinear-osc``
    m(x) = (1 + lam x^2)^{-1} on the interval where the mass stays positive,
    V = m(x) alpha^2 x^2 / 2, in the lam < 0 regime where the spectrum is
    infinite.  Parameterized by alpha and the dimensionless nonlinearity
    q = |lam/alpha|/2 > 0 (make_model takes q, never lam); quadratic ladder
    with unit alpha.

``bounded-osc``
    m(x) = (1 - (lam x)^2)^{-1}, V = m(x) alpha^2 x^2 / 2.  The same
    quadratic ladder with q read as half the squared dimensionless profile
    slope.

``exp-mass``
    m(x) = e^{-mu x} / 2 with a Morse-like partner potential.  Linear ladder
    with E_n = n mu^2 (unit mu^2, no zero-point energy) and label scale mu,
    so rho in label units is n! mu^{2n}.

``harmonic``
    Constant-mass reference produced by ``harmonic_limit``; linear ladder
    with E_n = alpha (n + 1/2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConsistencyError
from .specfn import bessel_density_log, hyp0f1, hyp0f1_term_log, hyp0f1_terms, pochhammer_log

__all__ = [
    "MODEL_IDS",
    "ModelSpec",
    "QuadraticLadder",
    "LinearLadder",
    "make_model",
    "harmonic_limit",
    "energy",
    "remainder",
    "step",
    "rho_log",
    "rho_log_label",
]

MODEL_IDS = ("nonlinear-osc", "bounded-osc", "exp-mass")

@dataclass(frozen=True)
class QuadraticLadder:
    """Ladder of the two singular-mass oscillators, e_n = n (1 + q (n + 1)).

    Closed forms take n as an int (step, energy and remainder also as an
    index array), x = |zeta|^2 in step units (ln N, <n> and var n from one
    window of 0F1 terms), xi = |z|^2 > 0, and kernel_log w = conj(zeta_a) zeta_b.
    """

    q: float
    unit: float
    scale = 1.0

    @property
    def b(self) -> float:
        """Lower 0F1 parameter 2 + 1/q."""
        return 2.0 + 1.0 / self.q

    def step(self, n):
        return n * (1.0 + self.q * (n + 1))

    def energy(self, n):
        return self.unit * (n + 0.5 + self.q * n * (n + 1))

    def remainder(self, k):
        return self.unit * (1.0 + 2.0 * k * self.q)

    def rho_log(self, n: int) -> float:
        """ln[n! q^n (b)_n]."""
        return math.lgamma(n + 1) + (n * math.log(self.q) + pochhammer_log(self.b, n))

    def kernel_log(self, w: complex) -> complex:
        """ln N(w) at the overlap's complex w = conj(zeta_a) zeta_b."""
        return hyp0f1(self.b, w / self.q).value

    def mean_var(self, x: float) -> tuple[float, float]:
        """(<n>, var n) of P_n ~ t_n on the window, the variance centred."""
        return self._moments(x)[2:]

    def closed(self, x: float) -> tuple[float, float, float]:
        """(ln N, <n>, var n) from one window; ln N = ln 0F1(; b; x/q) = ln t_lo + ln sum."""
        lo, total, mean, var = self._moments(x)
        return hyp0f1_term_log(self.b, x / self.q, lo) + math.log(total), mean, var

    def _moments(self, x: float):
        """(lo, sum, <n>, var n) of specfn.hyp0f1_terms at w = x/q; x < 0 raises ValueError."""
        if x < 0:
            raise ValueError(f"x = {x:g} is negative")
        n, p = hyp0f1_terms(self.b, x / self.q)
        total = p.sum()
        mean = float(n @ p) / total
        d = n - mean
        return int(n[0]), total, mean, float((d * d) @ p) / total

    def weight_log(self, xi):
        """ln w~(xi) = ln[2 (xi/q)^{nu/2} K_nu(2 sqrt(xi/q)) / (q Gamma(b))]."""
        top, bottom = float(np.max(xi)), float(np.min(xi))
        if math.isfinite(top) and top / self.q == math.inf:
            raise ValueError(f"the weight at q = {self.q:g} overflows xi/q at xi = {top:g}; "
                             f"q must be at least {top / sys.float_info.max:.2g} there")
        if bottom > 0 and bottom / self.q == 0.0:
            raise ValueError(f"the weight at q = {self.q:g} underflows xi/q at xi = {bottom:g}; "
                             f"q must be at most {bottom / math.ulp(0.0):.2g} there")
        return bessel_density_log(1.0 + 1.0 / self.q, xi / self.q) - math.log(self.q)


@dataclass(frozen=True)
class LinearLadder:
    """Harmonic ladder e_n = n; E_0 = ground * unit, labels scaled by scale.

    Arguments as for QuadraticLadder.
    """

    scale: float
    unit: float
    ground: float

    def step(self, n):
        return n * 1.0

    def energy(self, n):
        return self.unit * (n + self.ground)

    def remainder(self, k):
        if isinstance(k, np.ndarray):
            return np.full(k.shape, self.unit)
        return self.unit

    def rho_log(self, n: int) -> float:
        return math.lgamma(n + 1)

    def kernel_log(self, w: complex) -> complex:
        return w

    def mean_var(self, x: float) -> tuple[float, float]:
        return x, x

    def closed(self, x: float) -> tuple[float, float, float]:
        return x, x, x

    def weight_log(self, xi):
        scale_sq = self.scale**2
        return -math.log(scale_sq) - xi / scale_sq


# The ladder each model id closes; a new solvable model is one entry here.
_LADDERS = {
    "nonlinear-osc": lambda s: QuadraticLadder(s.nonlinearity, s.alpha),
    "bounded-osc": lambda s: QuadraticLadder(s.nonlinearity, s.alpha),
    "exp-mass": lambda s: LinearLadder(s.mu, s.mu**2, 0.0),
    "harmonic": lambda s: LinearLadder(1.0, s.alpha, 0.5),
}


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model identity plus parameters.

    step_bias is a fault-injection hook used only by the negative-control
    path of the verification CLI: it scales every ladder step by (1 + bias)
    so that cross-checks against unbiased quantities must fail.  Normal
    construction through make_model always leaves it at zero.
    """

    id: str
    alpha: float = 1.0
    nonlinearity: float | None = None
    mu: float | None = None
    step_bias: float = 0.0

    @cached_property
    def ladder(self) -> QuadraticLadder | LinearLadder:
        """The model's ladder family, resolved on first use."""
        return _LADDERS[self.id](self)

    @property
    def energy_unit(self) -> float:
        return self.ladder.unit

    @property
    def label_scale(self) -> float:
        """Scale relating the physical coherent-state label to e_n units."""
        return self.ladder.scale


def make_model(
    model_id: str,
    alpha: float = 1.0,
    nonlinearity: float | None = None,
    mu: float | None = None,
) -> ModelSpec:
    """Validate parameters and build a ModelSpec.

    Every model takes alpha > 0.  The two singular-mass oscillators take the
    nonlinearity q > 0 and refuse a mu; exp-mass takes mu > 0 and refuses a
    nonlinearity.
    """
    if model_id not in MODEL_IDS:
        raise ValueError(
            f"unknown model {model_id!r}, expected one of {', '.join(MODEL_IDS)}"
        )
    given = dict(alpha=alpha, nonlinearity=nonlinearity, mu=mu)
    for name, value in given.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    if model_id != "exp-mass":
        if mu is not None:
            raise ValueError(f"{model_id} takes a nonlinearity (and alpha), not mu")
        if nonlinearity is None or not nonlinearity > 0:
            raise ValueError(f"{model_id} needs nonlinearity > 0, got {nonlinearity}")
        return ModelSpec(model_id, alpha=alpha, nonlinearity=float(nonlinearity))

    if nonlinearity is not None:
        raise ValueError("exp-mass takes mu (and alpha), not a nonlinearity")
    if mu is None or not mu > 0:
        raise ValueError(f"exp-mass needs mu > 0, got {mu}")
    # mu^2 is the energy unit and the weight's scale: it must be a normal double
    if not sys.float_info.min <= mu * mu <= sys.float_info.max:
        raise ValueError(
            f"exp-mass needs mu in about [1.5e-154, 1.3e154], where mu^2 is a "
            f"normal double, got {mu}"
        )
    return ModelSpec("exp-mass", alpha=alpha, mu=float(mu))


def harmonic_limit(spec: ModelSpec) -> ModelSpec:
    """Constant-mass harmonic reference in the same energy units.

    Defined for the quadratic ladder (q -> 0) and idempotent on a spec that
    is already harmonic.  exp-mass has no such limit.
    """
    if spec.id == "harmonic":
        return spec
    if not isinstance(spec.ladder, QuadraticLadder):
        raise ValueError(f"harmonic limit undefined for model {spec.id!r}")
    return ModelSpec("harmonic", alpha=spec.alpha)


def _check_n(n, name: str = "n"):
    if isinstance(n, np.ndarray):
        if n.dtype.kind not in "iu" or np.any(n < 0):
            raise ValueError(f"{name} must hold nonnegative integers, got {n}")
        return n
    if n != int(n) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


def energy(spec: ModelSpec, n):
    """Absolute eigenvalue E_n; n is an int or an integer index array."""
    return spec.ladder.energy(_check_n(n))


def remainder(spec: ModelSpec, k):
    """Shape-invariance energy increment E_k - E_{k-1}, defined for k >= 1.

    k is an int or an integer index array, every entry >= 1.
    """
    k = _check_n(k, "k")
    if np.any(k < 1):
        raise ValueError(f"remainder is defined for k >= 1, got {k}")
    return spec.ladder.remainder(k)


def step(spec: ModelSpec, n):
    """Dimensionless ladder step e_n = (E_n - E_0) / energy_unit.

    n is an int or an integer index array; ``step(spec, np.arange(m + 1))``
    gives e_0..e_m.
    """
    return spec.ladder.step(_check_n(n)) * (1.0 + spec.step_bias)


#: absolute part of the product vs closed ln rho_n agreement rho_log enforces
RHO_TOL = 1e-9


def rho_log(spec: ModelSpec, n: int) -> float:
    """ln rho_n, with rho_n = prod_{k=1..n} e_k and rho_0 = 1.

    Computed as the telescoping sum of ln e_k and cross-checked against the
    closed Gamma/Pochhammer form on every call; disagreement raises
    ConsistencyError.
    """
    n = _check_n(n)
    if n == 0:
        return 0.0
    product = math.fsum(map(math.log, step(spec, np.arange(1, n + 1)).tolist()))
    # closed Gamma form of the step product; bias enters as n ln(1 + bias)
    closed = spec.ladder.rho_log(n)
    if spec.step_bias:
        closed += n * math.log1p(spec.step_bias)
    if abs(product - closed) > RHO_TOL + 1e-12 * abs(product):
        raise ConsistencyError(
            f"rho_log({spec.id}, {n}): product form {product!r} vs closed "
            f"form {closed!r}"
        )
    return product


def rho_log_label(spec: ModelSpec, n: int) -> float:
    """ln rho_n in physical-label units: rho_n * label_scale^(2n).

    This is the moment sequence of the resolution-of-unity measure on the
    physical label plane (n! mu^{2n} for exp-mass).
    """
    out = rho_log(spec, _check_n(n))
    scale = spec.label_scale
    if scale != 1.0:
        out += 2.0 * n * math.log(scale)
    return out
