"""Verification families: the checks behind ``gcstates verify``.

Each family (ladder algebra, annihilation residual, resolution-of-unity
moments, finite-difference spectrum) is a list of probes.  A probe takes one
model and yields detail rows (item, value, threshold, passed), each of which
compares two routes that share no formula, so a wrong ladder step fails
every row that reads one: the algebra rows set the steps e_n against the
closed energies, remainders and ln rho_n, and the residual lowers a state
built from the steps with an L- whose steps come from the energies.

``run`` is the one driver: it loops over the models, turns a numerical error
raised in a probe into a fail row (an internal invariant tripping is a
finding, not a crash), and computes each family's status and worst value.
The library is called through module attributes, so wrapping one of them
covers these calls.

Within one run no probe result is computed twice.  The algebra, annihilation
and moment probes read a model only through ``spec.ladder``, so ``run``
keeps each one's rows per (ladder, step_bias): nonlinear-osc and bounded-osc
at one q close the same ladder, and the second gets the first one's rows
under its own model name.  A probe that raised keeps nothing, so the next
model with that key runs it again.  The spectrum oracle reads the model id,
so its rows are never shared by ladder; models whose grid problems share an
``oracle.build_problem`` key share that run's one grid triple, and each is
compared with its own analytic spectrum.  Nothing is kept between runs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import coherent, measure, models, oracle
from .exceptions import ConsistencyError, ConvergenceError, QuadratureError

__all__ = ["REPORT_SCHEMA", "FAMILIES", "default_specs", "run"]

#: schema of the verify report; field names are frozen
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "array",
    "items": {
        "type": "object",
        "required": ["check_name", "status", "max_rel_error", "details"],
        "additionalProperties": False,
        "properties": {
            "check_name": {"type": "string"},
            "status": {"type": "string", "enum": ["pass", "fail"]},
            "max_rel_error": {"type": "number"},
            "details": {"type": "array", "items": {"type": "object"}},
        },
    },
}

FAMILIES = ("algebra", "annihilation", "moments", "spectrum")

_CHECK_ERRORS = (ConsistencyError, ConvergenceError, QuadratureError, ValueError)

IDENTITY_TOL = 1e-12  # telescoping and step-energy gaps, in energy units
OPERATOR_TOL = 1e-10  # commutator diagonal and raising reconstruction
RESIDUAL_TOL = 1e-10  # annihilation residual
LEVELS = 4  # levels the spectrum family compares


def default_specs(corrupt: bool = False) -> list[models.ModelSpec]:
    """The verified models; ``corrupt`` biases every ladder step by 1%."""
    specs = [
        models.make_model("nonlinear-osc", alpha=1.0, nonlinearity=0.1),
        models.make_model("bounded-osc", alpha=1.0, nonlinearity=0.1),
        models.make_model("exp-mass", alpha=2.0, mu=1.0),
    ]
    if corrupt:
        specs = [dataclasses.replace(s, step_bias=0.01) for s in specs]
    return specs


# ----------------------------------------------------------------- probes


def _identities(spec):
    unit = spec.energy_unit
    energies = models.energy(spec, np.arange(61))
    n = np.arange(1, 61)
    gap = float(np.max(np.abs(np.diff(energies) - models.remainder(spec, n)) / unit))
    yield "telescoping", gap, IDENTITY_TOL, gap <= IDENTITY_TOL

    rhs = energies[1:] - energies[0]
    lhs = unit * models.step(spec, n)
    gap = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), unit)))
    yield "step-energy identity", gap, IDENTITY_TOL, gap <= IDENTITY_TOL


def _rho_product(spec):
    logs = np.log(models.step(spec, np.arange(1, 201))).tolist()
    gap = max(abs(math.fsum(logs[:n]) - spec.ladder.rho_log(n)) for n in (10, 50, 200))
    yield "rho product vs closed form", gap, models.RHO_TOL, gap <= models.RHO_TOL


def _operators(spec):
    # [L-, L+] = e_{N+1} - e_N on state n; shape invariance says R(N + 1) / unit
    comm = np.diff(models.step(spec, np.arange(41)))
    expect = models.remainder(spec, np.arange(1, 41)) / spec.energy_unit
    gap = float(np.max(np.abs(comm - expect) / np.maximum(expect, 1.0)))
    yield "commutator diagonal", gap, OPERATOR_TOL, gap <= OPERATOR_TOL

    # |L+^n ground| = prod sqrt(e_k) against sqrt(rho_n) from the closed form
    half = 0.5 * np.cumsum(np.log(models.step(spec, np.arange(1, 7))))
    closed = 0.5 * np.array([spec.ladder.rho_log(n) for n in range(1, 7)])
    gap = float(np.max(np.abs(np.expm1(half - closed))))
    yield "raising reconstruction", gap, OPERATOR_TOL, gap <= OPERATOR_TOL


def _residual(spec, z_abs):
    state = coherent.construct(spec, z_abs, eps=1e-12)
    res = coherent.annihilation_residual(state)
    yield f"residual |z|={z_abs}", res, RESIDUAL_TOL, res < RESIDUAL_TOL


def _moments(spec, nmax):
    for rep in measure.verify_moments(spec, n_max=nmax):
        yield f"moment n={rep.n}", rep.rel_error, rep.threshold, rep.passed


def _levels(spec, points, solves):
    for comp in oracle.compare_spectrum(spec, LEVELS, points, solves):
        yield f"level n={comp.n}", comp.rel_error, comp.threshold, comp.passed


def run(
    only=None, corrupt: bool = False, nmax: int = 8, points: int = oracle.POINTS
) -> list[dict]:
    """The ``gcstates verify`` report for the families in ``only`` (default all).

    A probe that raises leaves one fail row (model, item, error, passed)
    that counts as a relative error of 1.0.  Bad arguments raise ValueError
    before any probe runs.
    """
    unknown = set(only or ()) - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown verify families: {', '.join(sorted(unknown))}")
    if nmax != int(nmax) or not 0 <= nmax <= 12:
        raise ValueError(f"nmax must be an integer in 0..12, got {nmax}")
    least = oracle.min_points(LEVELS)
    if points != int(points) or points < least:
        raise ValueError(f"points must be an integer >= {least}, got {points}")
    solves = {}
    # family -> (check_name, rows shared per ladder, [(item naming the fail row, probe)])
    table = {
        "algebra": ("spectral_algebra", True, [
            ("ladder identities", _identities),
            ("rho product vs closed form", _rho_product),
            ("operator checks", _operators),
        ]),
        "annihilation": ("annihilation", True, [
            (f"residual |z|={z}", lambda spec, z=z: _residual(spec, z))
            for z in (0.5, 1.5, 3.0)
        ]),
        "moments": ("moments", True, [
            ("moment quadrature", lambda spec: _moments(spec, nmax)),
        ]),
        "spectrum": ("spectrum", False, [
            ("finite-difference solve", lambda spec: _levels(spec, points, solves)),
        ]),
    }
    specs = default_specs(corrupt)
    report = []
    for family, (check_name, shared, probes) in table.items():
        if only and family not in only:
            continue
        details, kept = [], {}
        for spec in specs:
            for item, probe in probes:
                key = (item, spec.ladder, spec.step_bias)
                if key in kept:
                    details += [dict(row, model=spec.id) for row in kept[key]]
                    continue
                rows = []
                try:
                    for name, value, threshold, passed in probe(spec):
                        rows.append({"model": spec.id, "item": name, "value": value,
                                     "threshold": threshold, "passed": passed})
                except _CHECK_ERRORS as exc:
                    rows.append({"model": spec.id, "item": item,
                                 "error": f"{type(exc).__name__}: {exc}", "passed": False})
                else:
                    if shared:
                        kept[key] = rows
                details += rows
        report.append({
            "check_name": check_name,
            "status": "pass" if all(d["passed"] for d in details) else "fail",
            "max_rel_error": max([0.0, *(d.get("value", 1.0) for d in details)]),
            "details": details,
        })
    return report
