"""Command-line front end.

Subcommands
-----------
spectrum   energy levels, shape-invariance increments and ln rho_n
coherent   one coherent state as a JSON record (or a CSV coefficient table)
stats      photon statistics for one or more labels z
fig1       number distributions at matched mean occupation, long format
moments    resolution-of-unity moment check for one model
oracle     finite-difference spectrum comparison
verify     the gcstates.verify report as JSON; takes --out, not --format

Exit codes: 0 success, 1 a verification-style check failed, 2 bad usage or
parameters (an unreadable --config or --out path among them), 3 a numerical
routine failed (a series did not converge, a quadrature could not certify
its error, or two routes to one quantity disagreed), reported as one
``error:`` line on stderr.  ``verify`` instead records such failures as fail
rows.  All floating-point text output carries 15 significant digits and rows
are emitted in a deterministic order, so byte-identical reruns are the norm.

Each parameter has one spelling, and an option's prefix is refused (--conf
is not --config, exit 2): a model takes --lambda-prime (q) or --mu, refusing
the other family's (exit 2), spectrum and oracle also take the energy scale
--alpha, which nothing else reads, and a label is one complex --z
(1.5, 0.5+0.3i).  A JSON config file (--config) may hold any option under its
long name with - read as _ ({"model": "exp-mass", "mu": 2.0}), each key as
a given flag; explicit flags win over the file, and a key that the chosen
subcommand does not read is an error (exit 2), even when another subcommand
has that option.  The parser is built once per process for each config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import coherent as coherent_mod
from . import measure, models, oracle, stats, verify
from .exceptions import ConsistencyError, ConvergenceError, QuadratureError

# a numerical routine that fails outside verify exits with code 3
_NUMERICAL_ERRORS = (ConsistencyError, ConvergenceError, QuadratureError, OverflowError)

__all__ = ["main", "VERIFY_REPORT_SCHEMA"]

#: schema of the verify report (field names frozen), as gcstates.verify has it
# kept as a cli name because the benchmark harness (perfbench) validates against it
VERIFY_REPORT_SCHEMA = verify.REPORT_SCHEMA

#: most labels one stats --z-sweep may ask for
SWEEP_MAX_LABELS = 10**6


def _points_help(minimum: str) -> str:
    return (f"finest grid of the oracle's triple M, 2M+1, 4M+3, rounded down to "
            f"4M+3 (default {oracle.POINTS}; at least {minimum})")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return "%.15g" % x


def _parse_z(text) -> complex:
    """Accept 1.5, -2, 0.5+0.3i, 1-2i, or plain j-notation."""
    s = text.strip().replace(" ", "")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"could not parse label {text!r} as a complex number")


def _spec_from(args) -> models.ModelSpec:
    # a family's own parameter defaults when absent; make_model refuses the other's
    exp = args.model == "exp-mass"
    q = 0.1 if args.lambda_prime is None and not exp else args.lambda_prime
    mu = 1.0 if args.mu is None and exp else args.mu
    alpha = getattr(args, "alpha", 1.0)  # only spectrum and oracle read the energies
    return models.make_model(args.model, alpha=alpha, nonlinearity=q, mu=mu)


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


def _write(args, header, rows) -> None:
    """Rows as CSV, or with --format json as objects keyed by the header."""
    if args.format == "json":
        _emit(_json_text([dict(zip(header, row)) for row in rows]), args.out)
    else:
        _emit(_csv(header, rows), args.out)


# ---------------------------------------------------------------- commands


def cmd_spectrum(args) -> int:
    if args.nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {args.nmax}")
    spec = _spec_from(args)
    rows = []
    for n in range(args.nmax + 1):
        r = models.remainder(spec, n) if n >= 1 else None
        rows.append((n, models.energy(spec, n), r, models.rho_log(spec, n)))
    _write(args, ("n", "E_n", "R_n", "rho_log_n"), rows)
    return 0


def cmd_coherent(args) -> int:
    spec = _spec_from(args)
    state = coherent_mod.construct(spec, _parse_z(args.z), eps=args.eps)
    if args.format == "csv":
        rows = [
            (state.n0 + k, state.log_coeff[k], state.phase[k].real, state.phase[k].imag)
            for k in range(state.dim)
        ]
        _emit(_csv(("n", "log_mag", "phase_re", "phase_im"), rows), args.out)
    else:
        _emit(_json_text(coherent_mod.to_record(state)), args.out)
    return 0


def cmd_stats(args) -> int:
    spec = _spec_from(args)
    if args.z_sweep is not None:
        start, stop, step_sz = args.z_sweep
        if not (all(map(math.isfinite, args.z_sweep)) and step_sz > 0 and stop >= start):
            raise ValueError("z sweep needs finite start <= stop and a positive step")
        span = (stop - start) / step_sz + 1e-9
        if not span < SWEEP_MAX_LABELS:
            raise ValueError(f"z sweep asks for more than {SWEEP_MAX_LABELS} labels")
        count = int(math.floor(span)) + 1
        zs = [complex(start + i * step_sz) for i in range(count)]
    else:
        zs = [_parse_z(z) for z in args.z]
    rows = []
    for z in zs:
        s = stats.summary_series(coherent_mod.construct(spec, z, eps=args.eps))
        rows.append((spec.id, spec.nonlinearity, s.z_abs, s.mean, s.variance,
                     s.mandel_q, s.classification))
    header = (
        "model", "lambda_prime", "z_abs", "mean", "variance",
        "mandel_q", "classification",
    )
    _write(args, header, rows)
    return 0


def cmd_fig1(args) -> int:
    target = args.zsq
    if not (target > 0 and math.isfinite(target)):
        raise ValueError(f"zsq must be positive and finite, got {target}")
    if args.nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {args.nmax}")
    harmonic = models.harmonic_limit(models.make_model("nonlinear-osc", nonlinearity=0.1))

    def p_n(spec, z_abs):
        c = coherent_mod.coeffs_on(coherent_mod.construct(spec, z_abs), 0, args.nmax + 1)
        return (c.real**2 + c.imag**2).tolist()

    panels = [("harmonic", None, p_n(harmonic, math.sqrt(target)))]
    for lam in args.lambda_primes:
        spec = models.make_model("nonlinear-osc", nonlinearity=lam)
        panels.append(("nonlinear", lam, p_n(spec, stats.match_mean_abs_z(spec, target))))
    header = ("panel", "lambda_prime", "n", "P_n")
    if args.format == "json":
        _write(args, header, [(pn, lam, n, p) for pn, lam, ps in panels for n, p in enumerate(ps)])
        return 0
    # the CSV of _write, with each panel's prefix formatted once and each
    # P_n = 0 outside a state's window written as the "0" %.15g gives
    lines = [",".join(header)]
    for panel, lam, ps in panels:
        prefix = f"{panel},{_fmt(lam)},"
        lines += [f"{prefix}{n},0" if p == 0.0 else f"{prefix}{n},{p:.15g}"
                  for n, p in enumerate(ps)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_moments(args) -> int:
    spec = _spec_from(args)
    reports = measure.verify_moments(spec, n_max=args.nmax)
    rows = [(r.n, r.quadrature, r.analytic_rho, r.rel_error) for r in reports]
    _write(args, ("n", "quadrature", "analytic", "rel_error"), rows)
    return 0 if all(r.passed for r in reports) else 1


def _params_text(spec) -> str:
    if spec.id == "exp-mass":
        return f"mu={_fmt(spec.mu)};alpha={_fmt(spec.alpha)}"
    return f"alpha={_fmt(spec.alpha)};lambda_prime={_fmt(spec.nonlinearity)}"


def cmd_oracle(args) -> int:
    spec = _spec_from(args)
    comps = oracle.compare_spectrum(spec, k=args.levels, points=args.points)
    rows = [
        (spec.id, _params_text(spec), c.n, c.numeric, c.analytic, c.rel_error, args.points,
         c.error_bar)
        for c in comps
    ]
    header = ("model", "params", "n", "E_numeric", "E_analytic", "rel_error", "M", "error_bar")
    _write(args, header, rows)
    return 0 if all(c.passed for c in comps) else 1


def cmd_verify(args) -> int:
    report = verify.run(args.only, args.corrupt_steps, args.nmax, args.points)
    _emit(_json_text(report), args.out)
    return 0 if all(e["status"] == "pass" for e in report) else 1


# ----------------------------------------------------------------- parser


def _add_model_opts(sub, alpha=False) -> None:
    sub.add_argument(
        "--model",
        choices=models.MODEL_IDS,
        default="nonlinear-osc",
        help="built-in model (default nonlinear-osc)",
    )
    if alpha:
        sub.add_argument("--alpha", type=float, default=1.0, help="energy scale alpha")
    sub.add_argument(
        "--lambda-prime",
        type=float,
        help="the oscillators' dimensionless nonlinearity q (default 0.1); for "
        "bounded-osc this is half the squared profile slope",
    )
    sub.add_argument("--mu", type=float, help="exp-mass decay rate mu (default 1.0)")


def _add_out_opts(sub, default_format="csv") -> None:
    sub.add_argument("--out", default="-", help="output path, - for stdout")
    if default_format:
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
        allow_abbrev=False,
        description="Coherent states over shape-invariant position-dependent-"
        "mass spectra: construction, statistics, and verification.",
    )
    parser.add_argument(
        "--config", default=None,
        help="JSON file of option defaults (explicit flags win)",
    )
    subs = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    s = subs.add_parser("spectrum", help="energy levels and ladder sequences")
    _add_model_opts(s, alpha=True)
    _add_out_opts(s)
    s.add_argument("--nmax", type=int, default=10, help="highest level")
    s.set_defaults(func=cmd_spectrum)

    s = subs.add_parser("coherent", help="construct one coherent state")
    _add_model_opts(s)
    _add_out_opts(s, default_format="json")
    s.add_argument("--z", default="0", help="label, e.g. 1.5 or 0.5+0.3i")
    s.add_argument("--eps", type=float, default=1e-12, help="truncation tolerance")
    s.set_defaults(func=cmd_coherent)

    s = subs.add_parser("stats", help="photon statistics")
    _add_model_opts(s)
    _add_out_opts(s)
    s.add_argument("--z", nargs="+", default=["1"], help="one or more labels")
    s.add_argument(
        "--z-sweep", dest="z_sweep", nargs=3, type=float, default=None,
        metavar=("START", "STOP", "STEP"), help="real label sweep",
    )
    s.add_argument("--eps", type=float, default=1e-12)
    s.set_defaults(func=cmd_stats)

    s = subs.add_parser(
        "fig1", help="number distributions at matched mean occupation"
    )
    _add_out_opts(s)
    s.add_argument("--zsq", type=float, default=10.0, help="harmonic |z|^2")
    s.add_argument(
        "--lambda-primes", dest="lambda_primes", nargs="+", type=float,
        default=[0.07, 0.17, 0.27],
    )
    s.add_argument("--nmax", type=int, default=30)
    s.set_defaults(func=cmd_fig1)

    s = subs.add_parser("moments", help="resolution-of-unity moment check")
    _add_model_opts(s)
    _add_out_opts(s)
    s.add_argument("--nmax", type=int, default=8, help="highest moment (max 12)")
    s.set_defaults(func=cmd_moments)

    s = subs.add_parser("oracle", help="finite-difference spectrum comparison")
    _add_model_opts(s, alpha=True)
    _add_out_opts(s)
    s.add_argument("--levels", type=int, default=4, help="levels to compare")
    s.add_argument("--points", type=int, default=oracle.POINTS,
                   help=_points_help("4*max(levels, 3)+3"))
    s.set_defaults(func=cmd_oracle)

    s = subs.add_parser("verify", help="run every verification family")
    _add_out_opts(s, default_format=None)
    s.add_argument(
        "--only", action="append", choices=verify.FAMILIES,
        help="restrict to one family (repeatable)",
    )
    s.add_argument("--nmax", type=int, default=8, help="moment depth")
    s.add_argument("--points", type=int, default=oracle.POINTS,
                   help=_points_help(str(oracle.min_points(verify.LEVELS))))
    s.add_argument(
        "--corrupt-steps", action="store_true",
        help="negative control: bias the ladder steps and expect failure",
    )
    s.set_defaults(func=cmd_verify)

    # subparsers re-apply their own action defaults over the root namespace,
    # so config values must be installed per subcommand; keys and values a
    # subcommand cannot read are left for main to reject once it is chosen
    cfg = cfg or {}
    for sub in subs.choices.values():
        actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
        unknown = sorted(set(cfg) - set(actions))
        errors = [f"unknown config keys: {', '.join(unknown)}"] if unknown else []
        values = {}
        for key in (k for k in cfg if k in actions):
            try:
                values[key] = _from_config(actions[key], cfg[key])
            except ValueError:
                errors.append(f"config key {key} cannot be {json.dumps(cfg[key])}")
        sub.set_defaults(**values, config_errors=errors)
    return parser


@functools.lru_cache(maxsize=32)
def _parser(cfg_json: str) -> argparse.ArgumentParser:
    # keyed on the config's JSON text in file order, so error texts keep it
    return build_parser(json.loads(cfg_json))


def _from_config(action, value):
    """A config value read as the command line reads the option it sets."""
    if action.nargs == 0 and isinstance(value, bool):  # a switch
        return value
    many = action.nargs not in (None, 0) or isinstance(action, argparse._AppendAction)
    items = value if many and isinstance(value, list) else [value]
    if action.nargs == 0 or any(v is None or isinstance(v, (bool, list, dict)) for v in items):
        raise ValueError("switches take true or false, other options numbers or strings")
    out = [(action.type or str)(str(v)) for v in items]
    if action.choices and not set(out) <= set(action.choices):
        raise ValueError("not one of the choices")
    return out if many else out[0]


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
        args = _parser(json.dumps(cfg)).parse_args(argv)
        if args.config_errors:
            raise ValueError("; ".join(args.config_errors))
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
