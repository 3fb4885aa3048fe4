"""Command-line front end.

Subcommands
-----------
spectrum   energy levels, shape-invariance increments and ln rho_n
coherent   one coherent state as a JSON record (or a CSV coefficient table)
stats      photon statistics for one or more labels z
fig1       number distributions at matched mean occupation, long format
moments    resolution-of-unity moment check for one model
oracle     finite-difference spectrum comparison
verify     run every verification family and emit a JSON report

Exit codes: 0 success, 1 a verification-style check failed, 2 bad usage or
parameters, 3 a numerical routine failed (a series did not converge, a
quadrature could not certify its error, or two routes to one quantity
disagreed), reported as one ``error:`` line on stderr.  ``verify`` instead
records such failures as fail rows.  All floating-point text output carries
15 significant digits and rows are emitted in a deterministic order, so
byte-identical reruns are the norm.

A JSON config file (--config) may hold any long-option value under its
underscored name ({"model": "exp-mass", "mu": 2.0, ...}); explicit flags win
over the file, and a key that no subcommand option reads is an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import coherent as coherent_mod
from . import fockrep, measure, models, oracle, stats
from .exceptions import ConsistencyError, ConvergenceError, QuadratureError

# a numerical routine that fails outside verify exits with code 3
_NUMERICAL_ERRORS = (ConsistencyError, ConvergenceError, QuadratureError)

# an internal invariant tripping during verification is a *finding*, not a
# crash: these become fail rows in the report
_CHECK_ERRORS = (*_NUMERICAL_ERRORS, ValueError)

__all__ = ["main", "VERIFY_REPORT_SCHEMA"]

#: schema of the verify report; field names are frozen
VERIFY_REPORT_SCHEMA = {
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

_DEFAULT_NONLINEARITY = 0.1


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return "%.15g" % x


def _parse_z(text) -> complex:
    """Accept 1.5, -2, 0.5+0.3i, 1-2i, or plain j-notation."""
    if isinstance(text, (int, float)):
        return complex(text)
    s = str(text).strip().replace(" ", "")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"could not parse label {text!r} as a complex number")


def _component_z(args) -> complex | None:
    """Label assembled from --z-re/--z-im, or None if neither was given."""
    if args.z_re is None and args.z_im is None:
        return None
    re = args.z_re if args.z_re is not None else 0.0
    im = args.z_im if args.z_im is not None else 0.0
    return complex(re, im)


def _spec_from(args) -> models.ModelSpec:
    if args.model == "exp-mass":
        return models.make_model("exp-mass", alpha=args.alpha, mu=args.mu)
    if args.model == "nonlinear-osc" and getattr(args, "lambda_tilde", None) is not None:
        return models.make_model(
            "nonlinear-osc", alpha=args.alpha, lambda_tilde=args.lambda_tilde
        )
    nl = args.nonlinearity if args.nonlinearity is not None else _DEFAULT_NONLINEARITY
    return models.make_model(args.model, alpha=args.alpha, nonlinearity=nl)


def _emit(text: str, out: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    # numpy scalars (np.float64, np.bool_) slip into detail rows; unbox them
    return json.dumps(obj, indent=2, default=lambda o: o.item()) + "\n"


# ---------------------------------------------------------------- commands


def cmd_spectrum(args) -> int:
    spec = _spec_from(args)
    rows = []
    for n in range(args.nmax + 1):
        r = models.remainder(spec, n) if n >= 1 else None
        rows.append((n, models.energy(spec, n), r, models.rho_log(spec, n)))
    if args.format == "json":
        payload = [
            {"n": n, "E_n": e, "R_n": r, "rho_log_n": rho}
            for n, e, r, rho in rows
        ]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv(("n", "E_n", "R_n", "rho_log_n"), rows), args.out)
    return 0


def cmd_coherent(args) -> int:
    spec = _spec_from(args)
    z = _component_z(args)
    if z is None:
        z = _parse_z(args.z)
    state = coherent_mod.construct(spec, z, eps=args.eps)
    if args.format == "csv":
        rows = [
            (n, state.log_coeff[n], state.phase[n].real, state.phase[n].imag)
            for n in range(state.dim)
        ]
        _emit(_csv(("n", "log_mag", "phase_re", "phase_im"), rows), args.out)
    else:
        _emit(_json_text(coherent_mod.to_record(state)), args.out)
    return 0


def _stats_rows(spec, zs, eps):
    summaries = [
        stats.summary_series(coherent_mod.construct(spec, z, eps=eps)) for z in zs
    ]
    return [
        (
            spec.id,
            spec.nonlinearity,
            s.z_abs,
            s.mean,
            s.variance,
            s.mandel_q,
            s.classification,
        )
        for s in summaries
    ]


def cmd_stats(args) -> int:
    spec = _spec_from(args)
    if args.z_sweep is not None:
        start, stop, step_sz = args.z_sweep
        if step_sz <= 0 or stop < start:
            raise ValueError("z sweep needs start <= stop and a positive step")
        count = int(math.floor((stop - start) / step_sz + 1e-9)) + 1
        zs = [complex(start + i * step_sz) for i in range(count)]
    elif _component_z(args) is not None:
        zs = [_component_z(args)]
    else:
        zvals = args.z if isinstance(args.z, list) else [args.z]
        zs = [_parse_z(z) for z in zvals]
    rows = _stats_rows(spec, zs, args.eps)
    header = (
        "model", "lambda_prime", "z_abs", "mean", "variance",
        "mandel_q", "classification",
    )
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def cmd_fig1(args) -> int:
    target = args.zsq
    if not target > 0:
        raise ValueError("zsq must be positive")
    harmonic = models.harmonic_limit(
        models.make_model("nonlinear-osc", alpha=args.alpha, nonlinearity=0.1)
    )
    rows = []

    def add_panel(panel, spec, z_abs, lam):
        state = coherent_mod.construct(spec, z_abs)
        p = stats.distribution(state)
        for n in range(args.nmax + 1):
            rows.append((panel, lam, n, float(p[n]) if n < state.dim else 0.0))

    add_panel("harmonic", harmonic, math.sqrt(target), None)
    for lam in args.lambda_primes:
        spec = models.make_model("nonlinear-osc", alpha=args.alpha, nonlinearity=lam)
        z_abs = stats.match_mean_abs_z(spec, target)
        add_panel("nonlinear", spec, z_abs, lam)
    header = ("panel", "lambda_prime", "n", "P_n")
    if args.format == "json":
        _emit(_json_text([dict(zip(header, r)) for r in rows]), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def cmd_moments(args) -> int:
    spec = _spec_from(args)
    reports = measure.verify_moments(spec, n_max=args.nmax)
    rows = [(r.n, r.quadrature, r.analytic_rho, r.rel_error) for r in reports]
    header = ("n", "quadrature", "analytic", "rel_error")
    if args.format == "json":
        _emit(_json_text([dict(zip(header, r)) for r in rows]), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _params_text(spec) -> str:
    if spec.id == "exp-mass":
        return f"mu={_fmt(spec.mu)};alpha={_fmt(spec.alpha)}"
    return f"alpha={_fmt(spec.alpha)};lambda_prime={_fmt(spec.nonlinearity)}"


def cmd_oracle(args) -> int:
    spec = _spec_from(args)
    comps = oracle.compare_spectrum(
        spec, k=args.levels, points=args.points, pad=args.pad
    )
    rows = [
        (spec.id, _params_text(spec), c.n, c.numeric, c.analytic, c.rel_error, args.points)
        for c in comps
    ]
    header = ("model", "params", "n", "E_numeric", "E_analytic", "rel_error", "M")
    if args.format == "json":
        _emit(_json_text([dict(zip(header, r)) for r in rows]), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0 if max(c.rel_error for c in comps) < 0.01 else 1


# ------------------------------------------------------------ verification


def _default_specs(corrupt: bool) -> list:
    specs = [
        models.make_model("nonlinear-osc", alpha=1.0, nonlinearity=0.1),
        models.make_model("bounded-osc", alpha=1.0, nonlinearity=0.1),
        models.make_model("exp-mass", alpha=2.0, mu=1.0),
    ]
    if corrupt:
        # negative control: bias every ladder step by 1%
        specs = [dataclasses.replace(s, step_bias=0.01) for s in specs]
    return specs


def _entry(name, details, max_rel) -> dict:
    status = "pass" if all(d.get("passed", False) for d in details) else "fail"
    return {
        "check_name": name,
        "status": status,
        "max_rel_error": max_rel,
        "details": details,
    }


def _fail_row(spec, item, exc) -> dict:
    return {
        "model": spec.id,
        "item": item,
        "error": f"{type(exc).__name__}: {exc}",
        "passed": False,
    }


def _check_algebra(specs) -> dict:
    details = []
    worst = 0.0
    for spec in specs:
        unit = spec.energy_unit
        gap = 0.0
        for n in range(1, 61):
            lhs = models.energy(spec, n) - models.energy(spec, n - 1)
            gap = max(gap, abs(lhs - models.remainder(spec, n)) / unit)
        details.append(
            {"model": spec.id, "item": "telescoping", "value": gap,
             "threshold": 1e-12, "passed": gap <= 1e-12}
        )
        worst = max(worst, gap)

        gap = 0.0
        for n in range(1, 61):
            lhs = unit * models.step(spec, n)
            rhs = models.energy(spec, n) - models.energy(spec, 0)
            gap = max(gap, abs(lhs - rhs) / max(abs(rhs), unit))
        details.append(
            {"model": spec.id, "item": "step-energy identity", "value": gap,
             "threshold": 1e-12, "passed": gap <= 1e-12}
        )
        worst = max(worst, gap)

        try:
            for n in (10, 50, 200):
                models.rho_log(spec, n)  # raises if product and closed split
            details.append(
                {"model": spec.id, "item": "rho product vs closed form",
                 "value": 0.0, "threshold": 1e-9, "passed": True}
            )
        except _CHECK_ERRORS as exc:
            details.append(_fail_row(spec, "rho product vs closed form", exc))
            worst = max(worst, 1.0)

        try:
            ops = fockrep.build(spec, 40)
            comm = fockrep.commutator_diagonal(ops)
            expect = np.diff(models.step(spec, np.arange(40)))
            gap = float(np.max(np.abs(comm - expect) / np.maximum(expect, 1.0)))
            details.append(
                {"model": spec.id, "item": "commutator diagonal", "value": gap,
                 "threshold": 1e-10, "passed": gap <= 1e-10}
            )
            worst = max(worst, gap)

            gap = 0.0
            for n in range(7):
                v = fockrep.eigenstate_by_raising(ops, n)
                e = np.zeros(40)
                e[n] = 1.0
                gap = max(gap, float(np.linalg.norm(v - e)))
            details.append(
                {"model": spec.id, "item": "raising reconstruction", "value": gap,
                 "threshold": 1e-10, "passed": gap <= 1e-10}
            )
            worst = max(worst, gap)
        except _CHECK_ERRORS as exc:
            details.append(_fail_row(spec, "operator checks", exc))
            worst = max(worst, 1.0)
    return _entry("spectral_algebra", details, worst)


def _check_annihilation(specs) -> dict:
    details = []
    worst = 0.0
    for spec in specs:
        for z_abs in (0.5, 1.5, 3.0):
            try:
                state = coherent_mod.construct(spec, z_abs, eps=1e-12)
                ops = fockrep.build(spec, max(state.dim, 2))
                res = coherent_mod.annihilation_residual(state, ops)
            except _CHECK_ERRORS as exc:
                details.append(_fail_row(spec, f"residual |z|={z_abs}", exc))
                worst = max(worst, 1.0)
                continue
            details.append(
                {"model": spec.id, "item": f"residual |z|={z_abs}", "value": res,
                 "threshold": 1e-10, "passed": res < 1e-10}
            )
            worst = max(worst, res)
    return _entry("annihilation", details, worst)


def _check_moments(specs, nmax) -> dict:
    details = []
    worst = 0.0
    for spec in specs:
        try:
            reports = measure.verify_moments(spec, n_max=nmax)
        except _CHECK_ERRORS as exc:
            details.append(_fail_row(spec, "moment quadrature", exc))
            worst = max(worst, 1.0)
            continue
        for rep in reports:
            details.append(
                {"model": spec.id, "item": f"moment n={rep.n}",
                 "value": rep.rel_error,
                 "threshold": 1e-8 if rep.n == 0 else 1e-6,
                 "passed": rep.passed}
            )
            worst = max(worst, rep.rel_error)
    return _entry("moments", details, worst)


def _check_spectrum(specs, points) -> dict:
    details = []
    worst = 0.0
    for spec in specs:
        try:
            comps = oracle.compare_spectrum(spec, k=4, points=points)
        except _CHECK_ERRORS as exc:
            details.append(_fail_row(spec, "finite-difference solve", exc))
            worst = max(worst, 1.0)
            continue
        for comp in comps:
            details.append(
                {"model": spec.id, "item": f"level n={comp.n}",
                 "value": comp.rel_error, "threshold": 0.01,
                 "passed": comp.rel_error < 0.01}
            )
            worst = max(worst, comp.rel_error)
    return _entry("spectrum", details, worst)


def cmd_verify(args) -> int:
    wanted = args.only or ["algebra", "annihilation", "moments", "spectrum"]
    specs = _default_specs(args.corrupt_steps)
    report = []
    if "algebra" in wanted:
        report.append(_check_algebra(specs))
    if "annihilation" in wanted:
        report.append(_check_annihilation(specs))
    if "moments" in wanted:
        report.append(_check_moments(specs, args.nmax))
    if "spectrum" in wanted:
        report.append(_check_spectrum(specs, args.points))
    _emit(_json_text(report), args.out)
    return 0 if all(e["status"] == "pass" for e in report) else 1


# ----------------------------------------------------------------- parser


def _add_model_opts(sub) -> None:
    sub.add_argument(
        "--model",
        choices=models.MODEL_IDS,
        default="nonlinear-osc",
        help="built-in model (default nonlinear-osc)",
    )
    sub.add_argument("--alpha", type=float, default=1.0, help="oscillator scale alpha")
    sub.add_argument(
        "--lambda-prime",
        "--nonlinearity",
        dest="nonlinearity",
        type=float,
        default=None,
        help="dimensionless nonlinearity q (default 0.1); for bounded-osc "
        "this is half the squared profile slope",
    )
    sub.add_argument(
        "--lambda-tilde",
        dest="lambda_tilde",
        type=float,
        default=None,
        help="raw mass parameter lam/alpha for nonlinear-osc (negative)",
    )
    sub.add_argument("--mu", type=float, default=1.0, help="exp-mass decay rate mu")


def _add_z_component_opts(sub) -> None:
    sub.add_argument(
        "--z-re", dest="z_re", type=float, default=None,
        help="real part of the label (alternative to --z)",
    )
    sub.add_argument(
        "--z-im", dest="z_im", type=float, default=None,
        help="imaginary part of the label (alternative to --z)",
    )


def _add_out_opts(sub, default_format="csv") -> None:
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default_format,
        help=f"output format (default {default_format})",
    )
    sub.add_argument(
        "--config", default=None,
        help="JSON file of option defaults (explicit flags win)",
    )


def build_parser(cfg: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcstates",
        description="Coherent states over shape-invariant position-dependent-"
        "mass spectra: construction, statistics, and verification.",
    )
    parser.add_argument(
        "--config", default=None,
        help="JSON file of option defaults (explicit flags win)",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    built = []

    s = subs.add_parser("spectrum", help="energy levels and ladder sequences")
    _add_model_opts(s)
    _add_out_opts(s)
    s.add_argument("--nmax", type=int, default=10, help="highest level")
    built.append(s)
    s.set_defaults(func=cmd_spectrum)

    s = subs.add_parser("coherent", help="construct one coherent state")
    _add_model_opts(s)
    _add_out_opts(s, default_format="json")
    s.add_argument("--z", default="0", help="label, e.g. 1.5 or 0.5+0.3i")
    _add_z_component_opts(s)
    s.add_argument("--eps", type=float, default=1e-12, help="truncation tolerance")
    built.append(s)
    s.set_defaults(func=cmd_coherent)

    s = subs.add_parser("stats", help="photon statistics")
    _add_model_opts(s)
    _add_out_opts(s)
    s.add_argument("--z", nargs="+", default=["1"], help="one or more labels")
    _add_z_component_opts(s)
    s.add_argument(
        "--z-sweep", dest="z_sweep", nargs=3, type=float, default=None,
        metavar=("START", "STOP", "STEP"), help="real label sweep",
    )
    s.add_argument("--eps", type=float, default=1e-12)
    built.append(s)
    s.set_defaults(func=cmd_stats)

    s = subs.add_parser(
        "fig1", help="number distributions at matched mean occupation"
    )
    _add_out_opts(s)
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--zsq", type=float, default=10.0, help="harmonic |z|^2")
    s.add_argument(
        "--lambda-primes", dest="lambda_primes", nargs="+", type=float,
        default=[0.07, 0.17, 0.27],
    )
    s.add_argument("--nmax", type=int, default=30)
    built.append(s)
    s.set_defaults(func=cmd_fig1)

    s = subs.add_parser("moments", help="resolution-of-unity moment check")
    _add_model_opts(s)
    _add_out_opts(s)
    s.add_argument("--nmax", type=int, default=8, help="highest moment (max 12)")
    built.append(s)
    s.set_defaults(func=cmd_moments)

    s = subs.add_parser("oracle", help="finite-difference spectrum comparison")
    _add_model_opts(s)
    _add_out_opts(s)
    s.add_argument("--levels", type=int, default=4, help="levels to compare")
    s.add_argument("--points", type=int, default=2000, help="grid points")
    s.add_argument("--pad", type=float, default=1e-6, help="relative wall inset")
    built.append(s)
    s.set_defaults(func=cmd_oracle)

    s = subs.add_parser("verify", help="run every verification family")
    _add_out_opts(s, default_format="json")
    s.add_argument(
        "--only", action="append",
        choices=("algebra", "annihilation", "moments", "spectrum"),
        help="restrict to one family (repeatable)",
    )
    s.add_argument("--nmax", type=int, default=8, help="moment depth")
    s.add_argument("--points", type=int, default=2000, help="oracle grid points")
    s.add_argument(
        "--corrupt-steps", action="store_true",
        help="negative control: bias the ladder steps and expect failure",
    )
    built.append(s)
    s.set_defaults(func=cmd_verify)

    # subparsers re-apply their own action defaults over the root namespace,
    # so config values must be installed per subcommand
    cfg = cfg or {}
    known = set()
    for sub in built:
        dests = {a.dest for a in sub._actions} - {"help", "config"}
        known |= dests
        rel = {k: v for k, v in cfg.items() if k in dests}
        if rel:
            sub.set_defaults(**rel)
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return parser


def _load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = {}
        for i, tok in enumerate(argv):
            if tok == "--config" and i + 1 < len(argv):
                cfg = _load_config(argv[i + 1])
            elif tok.startswith("--config="):
                cfg = _load_config(tok.split("=", 1)[1])
        parser = build_parser(cfg)
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
