"""Lowering-operator eigenstates (generalized coherent states).

A state with label z solves L- |z> = zeta |z> inside the model's eigenbasis:

    |z> = N(|zeta|^2)^{-1/2} * sum_n  zeta^n / sqrt(rho_n) |phi_n>,

where zeta = z / label_scale is the label in the dimensionless units of the
ladder steps and rho_n is the generalized factorial.  The model's ladder
family supplies the closed normalization: 0F1(2 + 1/q; |z|^2/q) for the
quadratic ladder of the singular-mass oscillators (label_scale 1), and
exp(|zeta|^2) for the linear ladder (exp-mass: zeta = z/mu).

The weight |c_n|^2 holds its mass in a band of width O(|zeta|) around the
n where e_n reaches |zeta|^2, so a state lives on a window [n0, n0 + dim)
there (n0 = 0 for shallow labels), stored as log magnitude plus unit phase
because rho_n outruns double precision quickly.  Construction evaluates
ln N by two routes and refuses a state where they disagree (see construct).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import models
from .exceptions import ConsistencyError
from .models import ModelSpec

__all__ = [
    "CoherentState", "PEAK_INDEX_MAX", "construct", "coeffs_on",
    "annihilation_residual", "overlap", "overlap_kernel", "label_continuity",
    "to_record",
]

#: deepest peak index construct accepts (its anchor costs one log per index)
PEAK_INDEX_MAX = 10**8
_BLOCK = 1 << 18  # indices per array in the anchor sum
_LOG_SPAN_EDGE = math.log(1e-18)  # ln N sums weights down to here, whatever eps


@dataclass(frozen=True)
class CoherentState:
    """Coefficient expansion of one coherent state on its window [n0, n0 + dim).

    log_coeff[k] + i*arg(phase[k]) encodes the normalized coefficient
    c_{n0+k}; log_norm is ln N from the direct series, and log_norm_closed,
    mean_closed and var_closed are ln N, <n> and var n from the closed form.
    tail_bound bounds the discarded probability mass, on both sides, relative
    to the full norm.  P_n = exp(2 log_coeff) is good to (1 + |ln P_n|) 4.4e-16
    relative for |zeta|^2 <= 2 (against 40-digit references, at most 1.9 times
    (1 + |ln P_n|) 2.2e-16 for exp-mass and for q = 0.1); the cumulative sums'
    error grows with the distance from the mode, to (1 + |ln P_n|) 1e-15 at
    300 and 2.3e-14 at 1e4.
    """

    spec: ModelSpec
    z: complex
    zeta: complex
    n0: int
    dim: int
    log_coeff: np.ndarray
    phase: np.ndarray
    log_norm: float
    log_norm_closed: float
    mean_closed: float
    var_closed: float
    tail_bound: float
    eps: float

    def coeffs(self) -> np.ndarray:
        """Normalized complex coefficient vector c_n0..c_{n0+dim-1}."""
        return np.exp(self.log_coeff) * self.phase


def construct(spec: ModelSpec, z: complex, eps: float = 1e-12) -> CoherentState:
    """Build the coherent state with label z on the window set by eps.

    The weight |c_n|^2 rises while e_n < x = |zeta|^2 and falls after, so
    the window runs out from the mode (the last n with e_n < x, found by
    bisection on the steps) through the first weight at or below eps^2 on
    each side, or down to n = 0.  Each edge coefficient is O(eps), so the
    annihilation residual is O(eps |zeta|) and the discarded mass is far
    below eps.  Peaks past PEAK_INDEX_MAX, a |zeta|^2 past the double range,
    and a window that reaches a step past it, are refused with ValueError.

    ln N is checked against the ladder's closed form.  The quadratic ladder's
    x/e_{n+1} = w/((b + n)(n + 1)), w = x/q, so both sum the same terms and
    the check tests the window's anchor ln(x^n0/rho_n0), a step product,
    against Stirling's ln t_lo; the linear ladder's, the sum against ln N = x.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"label must be finite, got {z}")
    zeta = z / spec.label_scale
    try:
        x = abs(zeta) ** 2
    except OverflowError:
        x = math.inf
    if x == math.inf:  # also where zeta = z/mu itself overflows, for a tiny mu
        raise ValueError(f"label z = {z} puts |zeta|^2 past the double range, and the "
                         f"coherent-state peak past n = {PEAK_INDEX_MAX:g}")
    n0, log_coeff, log_norm, tail_bound = (
        _window(spec, x, eps) if x else (0, np.zeros(1), 0.0, 0.0))  # x = 0: the vacuum
    theta = cmath.phase(zeta)
    if theta == 0.0:  # a real label: exp(0j) = 1 + 0j exactly, for theta = -0.0 too
        phase = np.ones(len(log_coeff), dtype=complex)
    else:  # the window's phase apart from the per-index one keeps neighbours exact
        phase = cmath.exp(1j * theta * n0) * np.exp(1j * theta * np.arange(len(log_coeff)))
    # the closed normalizer only describes the unbiased ladder, so the check
    # is skipped under an injected fault; its tolerance grows with ln N
    closed, mean, var = spec.ladder.closed(abs(z) ** 2 / spec.label_scale**2)
    gap = abs(log_norm - closed)
    if spec.step_bias == 0.0 and gap > 1e-9 + 1e-12 * abs(log_norm):
        raise ConsistencyError(
            f"normalization mismatch for {spec.id}, z={z}: series ln N = "
            f"{log_norm!r}, closed form = {closed!r}"
        )

    log_coeff.setflags(write=False)
    phase.setflags(write=False)
    return CoherentState(
        spec=spec, z=z, zeta=zeta, n0=n0, dim=len(log_coeff), log_coeff=log_coeff, phase=phase,
        log_norm=log_norm, log_norm_closed=closed, mean_closed=mean, var_closed=var,
        tail_bound=tail_bound, eps=eps)


def _window(spec: ModelSpec, x: float, eps: float):
    """(n0, ln|c_n| on the window, series ln N, tail bound) for x = |zeta|^2 > 0.

    The log weights are one cumulative sum of ln(x/e_n) out from the mode; ln N
    anchors them with ln(x^n0/rho_n0) = sum of ln(x/e_k), k <= n0, not the closed form.
    """
    ladder_step, gain, log_x = spec.ladder.step, 1.0 + spec.step_bias, math.log(x)
    # e_n as models.step gives it, without its per-call validation (times 1.0 is exact)
    step = ladder_step if gain == 1.0 else lambda n: ladder_step(n) * gain

    def ln_ratio(lo, hi):  # ln(x / e_n) for n = lo..hi-1, in the fresh array of e_n
        e = step(np.arange(lo, hi, dtype=float))
        return np.subtract(log_x, np.log(e, out=e), out=e)

    # e_n >= n gain, so e_n >= x from n = x/gain + 1 on; bisect e_mode < x <= e_{mode+1}
    mode, top = 0, min(math.floor(x / gain) + 1, PEAK_INDEX_MAX)
    if step(top) < x:
        raise ValueError(f"|zeta|^2 = {x:g} puts the coherent-state peak past n = "
                         f"{PEAK_INDEX_MAX:g}, the deepest construct accepts")
    while top - mode > 1:
        mid = (mode + top) // 2
        mode, top = (mid, top) if step(mid) < x else (mode, mid)

    cut = 2.0 * math.log(eps)
    edge = min(cut, _LOG_SPAN_EDGE)
    # the reach of a Gaussian of variance x / (e_{mode+1} - e_mode) at the edge
    half = int(math.sqrt(-2.0 * edge) * (math.sqrt(x / (step(mode + 1) - step(mode))) + 2)) + 1
    while True:
        lo, hi = max(mode - half, 0), mode + half + 1
        if step(hi - 1) == math.inf:  # the window's top step overflows a double
            models.rho_log(spec, hi - 1)  # raises ValueError naming the first that does
        d, k = ln_ratio(lo + 1, hi), mode - lo
        # t_n - t_mode over [lo, hi), summed outward from the mode
        t = np.zeros(hi - lo)
        d[k:].cumsum(out=t[k + 1 :])
        d[:k][::-1].cumsum(out=t[:k][::-1])
        np.negative(t[:k], out=t[:k])
        log_sum = math.log(np.exp(t).sum())
        if t[-1] - log_sum <= edge and (lo == 0 or t[0] - log_sum <= edge):
            break
        half *= 2
    # first weight <= eps^2 on each side of the mode, or n = 0
    rel = t - log_sum
    small = rel <= cut
    end = k + 1 + int(small[k + 1 :].argmax())
    left = small[:k].nonzero()[0]
    start = int(left[-1]) if left.size else 0
    n0 = lo + start

    blocks = range(1, n0 + 1, _BLOCK)
    anchor = math.fsum(float(np.sum(ln_ratio(a, min(a + _BLOCK, n0 + 1)))) for a in blocks)
    # geometric bounds on the discarded mass: the term ratio falls outward
    after = lo + end + 1
    tail = math.exp(rel[end]) * x / step(after) / (1.0 - x / step(after + 1))
    if n0 > 0:
        tail += math.exp(rel[start]) * step(n0) / x / (1.0 - step(n0 - 1) / x)
    log_coeff = rel[start : end + 1]
    log_coeff *= 0.5
    return n0, log_coeff, float(anchor + log_sum - t[start]), tail


def coeffs_on(state: CoherentState, lo: int, hi: int) -> np.ndarray:
    """Coefficients c_lo..c_{hi-1}, zero outside the state's window (no buffer inside it)."""
    i, j = lo - state.n0, hi - state.n0
    if 0 <= i < j <= state.dim:
        return np.exp(state.log_coeff[i:j]) * state.phase[i:j]
    out = np.zeros(max(hi - lo, 0), dtype=complex)
    a, b = max(lo, state.n0), min(hi, state.n0 + state.dim)
    if a < b:
        k = slice(a - state.n0, b - state.n0)
        out[a - lo : b - lo] = np.exp(state.log_coeff[k]) * state.phase[k]
    return out


def annihilation_residual(state: CoherentState) -> float:
    """Norm of (L- - zeta) c over [n0 - 1, n0 + dim), L- stepping by sqrt(e_n).

    L-'s steps are read from the spectrum, e_n = (E_n - E_0) / unit, not from
    the ladder steps that built c, so a wrong step leaves a residual of about
    its relative error times |zeta|.  With the right steps, exact cancellation
    holds on every interior index and the residual is the pure leak at the
    two window edges, of order eps |zeta|.
    """
    lo, hi = max(state.n0 - 1, 0), state.n0 + state.dim
    c = coeffs_on(state, lo, hi + 1)
    n = np.arange(lo, hi + 1)
    n[0] = 0  # E_0, then E_n for n in (lo, hi]
    energies = models.energy(state.spec, n)
    steps = (energies[1:] - energies[0]) / state.spec.energy_unit
    return float(np.linalg.norm(np.sqrt(steps) * c[1:] - state.zeta * c[:-1]))


def overlap_kernel(a: CoherentState, b: CoherentState) -> complex:
    """<a|b> from the analytic kernel N(conj(zeta_a) zeta_b) / sqrt(Na Nb)."""
    if a.spec != b.spec:
        raise ValueError("overlap requires states of the same model")
    log_n = a.spec.ladder.kernel_log(a.zeta.conjugate() * b.zeta)
    return cmath.exp(log_n - 0.5 * (a.log_norm + b.log_norm))


def overlap(a: CoherentState, b: CoherentState) -> complex:
    """<a|b>, computed from the coefficient vectors and cross-checked.

    The coefficient sum and the analytic kernel must agree to 1e-8 in
    absolute value; disagreement raises ConsistencyError.
    """
    kernel = overlap_kernel(a, b)
    lo, hi = max(a.n0, b.n0), min(a.n0 + a.dim, b.n0 + b.dim)
    series = complex((coeffs_on(a, lo, hi).conj() * coeffs_on(b, lo, hi)).sum())
    if abs(series - kernel) > 1e-8:
        raise ConsistencyError(
            f"overlap mismatch for {a.spec.id}: series {series!r} vs kernel {kernel!r}"
        )
    return series


def label_continuity(state: CoherentState, delta: float) -> float:
    """Squared norm distance || |z + delta> - |z> ||^2 for a real shift.

    Scales like delta^2 / label_scale^2 for small delta, which is the
    quantitative form of label continuity.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    shifted = construct(state.spec, state.z + delta, eps=state.eps)
    lo = min(state.n0, shifted.n0)
    hi = max(state.n0 + state.dim, shifted.n0 + shifted.dim)
    return float(np.linalg.norm(coeffs_on(shifted, lo, hi) - coeffs_on(state, lo, hi)) ** 2)


def to_record(state: CoherentState) -> dict:
    """JSON-ready record of one state (used by the CLI).

    "coeffs" holds c_n0..c_{n0+dim-1}; "n0" is written only when non-zero.
    """
    return {
        "model": state.spec.id,
        "z_re": state.z.real,
        "z_im": state.z.imag,
        "dim": state.dim,
        "coeffs": [
            [float(lm), float(p.real), float(p.imag)]
            for lm, p in zip(state.log_coeff, state.phase)
        ],
        "log_norm": state.log_norm,
    } | ({"n0": state.n0} if state.n0 else {})
