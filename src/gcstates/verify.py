"""Verification families: the checks behind ``gcstates verify``.

Each family (ladder algebra, annihilation residual, resolution-of-unity
moments, finite-difference spectrum) is a list of probes.  A probe takes one
model and yields detail rows (item, value, threshold, passed).  ``run`` is
the one driver: it loops over the models, turns a numerical error raised in
a probe into a fail row (an internal invariant tripping is a finding, not a
crash), and computes each family's status and worst value.  The library is
called through module attributes, so wrapping one of them covers these calls.

Within one run no probe result is computed twice.  The algebra, annihilation and
moment probes read a model only through ``spec.ladder``, so each runs once
per distinct (ladder, step_bias): nonlinear-osc and bounded-osc at one q
close the same ladder, and the second of them gets the first one's rows
under its own model name.  A probe that raised is not shared; the next
model with that key runs it again.  The spectrum family, whose oracle reads
the model id, makes one grid solve per distinct Hamiltonian instead: models
whose ``oracle.build_problem`` keys agree (the same two oscillators are one
problem in the oracle's coordinate) share the levels of that run's solve,
and each model is compared with its own analytic spectrum.  Nothing is kept
from one run to the next.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import coherent, fockrep, measure, models, oracle
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
    for n in (10, 50, 200):
        models.rho_log(spec, n)  # raises if product and closed split
    yield "rho product vs closed form", 0.0, models.RHO_TOL, True


def _operators(spec):
    ops = fockrep.build(spec, 40)
    comm = fockrep.commutator_diagonal(ops)
    expect = np.diff(models.step(spec, np.arange(40)))
    gap = float(np.max(np.abs(comm - expect) / np.maximum(expect, 1.0)))
    yield "commutator diagonal", gap, OPERATOR_TOL, gap <= OPERATOR_TOL

    states = fockrep.states_by_raising(ops, 6)
    gap = max(float(np.linalg.norm(v - e)) for v, e in zip(states, np.eye(7, 40)))
    yield "raising reconstruction", gap, OPERATOR_TOL, gap <= OPERATOR_TOL


def _residual(spec, z_abs):
    state = coherent.construct(spec, z_abs, eps=1e-12)
    res = coherent.annihilation_residual(state)
    yield f"residual |z|={z_abs}", res, RESIDUAL_TOL, res < RESIDUAL_TOL


def _moments(spec, nmax):
    for rep in measure.verify_moments(spec, n_max=nmax):
        cut = measure.MOMENT0_TOL if rep.n == 0 else measure.MOMENT_TOL
        yield f"moment n={rep.n}", rep.rel_error, cut, rep.passed


def _levels(spec, points, solves):
    problem = oracle.build_problem(spec, points=points)
    oracle.require_fine_grid(problem)
    if problem.key not in solves:
        solves[problem.key] = oracle.lowest_eigenvalues(problem, LEVELS)
    for comp in oracle.compare_levels(spec, solves[problem.key]):
        tol = oracle.LEVEL_TOL
        yield f"level n={comp.n}", comp.rel_error, tol, comp.rel_error < tol


def _per_ladder(probe):
    """probe, run once per distinct (ladder, step_bias) of the models it sees.

    The first model with a key runs the probe and its rows are kept for the
    later ones.  A probe that raises keeps nothing: the next model with that
    key runs it again, so each fail row names its own model.
    """
    rows = {}

    def shared(spec):
        key = (spec.ladder, spec.step_bias)
        if key in rows:
            yield from rows[key]
            return
        kept = []
        for row in probe(spec):
            kept.append(row)
            yield row
        rows[key] = kept

    return shared


def _table(nmax: int, points: int) -> dict:
    """Family -> (check_name, [(item naming the probe's fail row, probe)]).

    The algebra, annihilation and moment probes read a model only through
    its ladder, so each runs once per distinct ladder and the spectrum probe
    once per grid problem key.  The shared rows and solves live in this
    table's own dicts, so they last one run.
    """
    ladder_only = {
        "algebra": ("spectral_algebra", [
            ("ladder identities", _identities),
            ("rho product vs closed form", _rho_product),
            ("operator checks", _operators),
        ]),
        "annihilation": ("annihilation", [
            (f"residual |z|={z}", functools.partial(_residual, z_abs=z))
            for z in (0.5, 1.5, 3.0)
        ]),
        "moments": ("moments", [
            ("moment quadrature", functools.partial(_moments, nmax=nmax)),
        ]),
    }
    table = {
        family: (check_name, [(item, _per_ladder(probe)) for item, probe in probes])
        for family, (check_name, probes) in ladder_only.items()
    }
    table["spectrum"] = ("spectrum", [
        ("finite-difference solve", functools.partial(_levels, points=points, solves={})),
    ])
    return table


def run(only=None, corrupt: bool = False, nmax: int = 8, points: int = 2000) -> list[dict]:
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
    if points != int(points) or points < LEVELS:
        raise ValueError(f"points must be an integer >= {LEVELS}, got {points}")
    specs = default_specs(corrupt)
    report = []
    for family, (check_name, probes) in _table(nmax, points).items():
        if only and family not in only:
            continue
        details = []
        worst = 0.0
        for spec in specs:
            for item, probe in probes:
                try:
                    for name, value, threshold, passed in probe(spec):
                        details.append(
                            {"model": spec.id, "item": name, "value": value,
                             "threshold": threshold, "passed": passed}
                        )
                        worst = max(worst, value)
                except _CHECK_ERRORS as exc:
                    details.append(
                        {"model": spec.id, "item": item,
                         "error": f"{type(exc).__name__}: {exc}", "passed": False}
                    )
                    worst = max(worst, 1.0)
        report.append({
            "check_name": check_name,
            "status": "pass" if all(d["passed"] for d in details) else "fail",
            "max_rel_error": worst,
            "details": details,
        })
    return report
