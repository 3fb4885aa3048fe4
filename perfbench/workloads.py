"""The three benchmark workloads: inputs, ops, warm-up calls and checks.

Each workload supplies

* ``inputs(seed)``: the fixed list of op inputs one pass runs, built from
  the seed alone (the ops receive only these generated values);
* ``warm_up(inputs)``: one small call into each module the workload uses;
* ``op(item)``: the timed operation, returning plain comparable values;
* ``check(inputs, outputs)``: correctness checks of one pass of outputs
  against references the benchmark computes itself, returning a list of
  problems (empty when every check passes);
* ``once()``: checks made once per run outside any timed op.

Every call into gcstates goes through a module attribute (``cli.main``,
``coherent.construct``, ...), so the traced run sees it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import jsonschema
import mpmath

from gcstates import cli, coherent, fockrep, measure, models, oracle, stats


class OpError(RuntimeError):
    """An op that could not produce its result."""


def cli_run(argv) -> tuple[int, str]:
    """Run one in-process gcstates command, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _rel(a: float, b: float, floor: float = 0.0) -> float:
    """|a - b| relative to max(|b|, floor); 0 when both are exactly zero."""
    den = max(abs(b), floor)
    return abs(a - b) / den if den else abs(a - b)


def _stratum(rng: random.Random, i: int, count: int, lo: float, hi: float) -> float:
    """A uniform draw from the i-th of count equal slices of [lo, hi]."""
    return lo + (i + rng.random()) / count * (hi - lo)


# ------------------------------------------------------------------ verify

VERIFY_FAMILIES = {"spectral_algebra", "annihilation", "moments", "spectrum"}
DEFAULT_Q = 0.1  # the CLI's default nonlinearity
DEFAULT_MU = 1.0  # the CLI's default exp-mass rate
MOMENT_NMAX = 8  # the CLI's default moment depth


class Verify:
    """One in-process ``gcstates verify``: all four families, default models.

    The op takes no generated input, so the list holds a single op and the
    seed leaves it unchanged.
    """

    name = "verify"

    def inputs(self, seed: int) -> list:
        return [("verify",)]

    def warm_up(self, inputs) -> None:
        osc = models.make_model("nonlinear-osc", nonlinearity=DEFAULT_Q)
        exp = models.make_model("exp-mass", alpha=2.0, mu=DEFAULT_MU)
        cli_run(["spectrum", "--nmax", "2"])
        measure.weight_tilde_log(osc, 1.0)
        measure.verify_moments(exp, n_max=1)
        coherent.construct(osc, 0.5)
        fockrep.build(osc, 4)
        oracle.compare_spectrum(exp, k=1, points=50)

    def op(self, argv):
        return cli_run(argv)

    def check(self, inputs, outputs) -> list[str]:
        problems = []
        for rc, text in outputs:
            report = json.loads(text)
            try:
                jsonschema.validate(report, cli.VERIFY_REPORT_SCHEMA)
            except jsonschema.ValidationError as exc:
                problems.append(f"verify report off schema: {exc.message}")
            names = {e["check_name"] for e in report}
            if names != VERIFY_FAMILIES:
                problems.append(f"verify report families {sorted(names)}")
            failing = [e["check_name"] for e in report if e["status"] != "pass"]
            if failing or rc != 0:
                problems.append(f"verify exit {rc}, failing entries {failing}")
        return problems

    def once(self) -> list[str]:
        problems = []
        rc, text = cli_run(["verify", "--corrupt-steps"])
        status = {e["check_name"]: e["status"] for e in json.loads(text)}
        if rc != 1 or status.get("moments") != "fail" or status.get("spectral_algebra") != "fail":
            problems.append(f"--corrupt-steps control: exit {rc}, statuses {status}")
        for argv, rho in (
            (["--model", "nonlinear-osc"], _rho_oscillator(DEFAULT_Q)),
            (["--model", "bounded-osc"], _rho_oscillator(DEFAULT_Q)),
            (["--model", "exp-mass"], _rho_exp(DEFAULT_MU)),
        ):
            rc, text = cli_run(["moments", *argv])
            rows = _csv_rows(text)
            errs = [_rel(float(r[1]), float(rho(int(r[0])))) for r in rows]
            if rc != 0 or len(rows) != MOMENT_NMAX + 1 or max(errs) > 1e-6:
                problems.append(
                    f"moments {argv}: exit {rc}, {len(rows)} rows, "
                    f"worst quadrature error {max(errs, default=math.inf):.3g}"
                )
        return problems


def _rho_oscillator(q: float):
    """Exact rho_n = prod_{k=1..n} k (1 + q (k + 1)) for the float q given."""
    qf = Fraction(q)

    def rho(n: int) -> Fraction:
        out = Fraction(1)
        for k in range(1, n + 1):
            out *= k * (1 + qf * (k + 1))
        return out

    return rho


def _rho_exp(mu: float):
    """Exact rho_n = mu^(2n) n! in physical label units."""
    mf = Fraction(mu)
    return lambda n: mf ** (2 * n) * math.factorial(n)


# ------------------------------------------------------------------ labels

LABEL_OSC = 64  # oscillator studies per pass, q log-uniform in [0.02, 2]
LABEL_EXP = 32  # exp-mass studies per pass, mu uniform in [0.5, 2]
LABELS_PER_BAND = 4  # K = 8 labels per study
SHALLOW = (0.1, 3.0)  # |z| range of the shallow band, clear of the one-term vacuum
DEEP = (3.0, 30.0)  # |z| range of the deep band
ZSQ = (1.0, 20.0)  # fig1 harmonic |z|^2 range
LAMBDA_PRIMES = (0.07, 0.17, 0.27)  # fig1's default nonlinear panels


@dataclass(frozen=True)
class Study:
    spec: models.ModelSpec
    labels: tuple  # complex labels, in increasing |z|
    zsq: float
    nmax: int  # fig1 rows per panel, past the reach of a Poisson(zsq) tail


@dataclass(frozen=True)
class StudyResult:
    dims: tuple
    series: tuple
    closed: tuple
    overlaps: tuple
    fig1: str


class Labels:
    """Label studies: construct, series and closed statistics, overlaps, fig1."""

    name = "labels"

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        count = LABEL_OSC + LABEL_EXP
        zsqs = [_stratum(rng, i, count, *ZSQ) for i in range(count)]
        rng.shuffle(zsqs)
        studies = []
        for i in range(count):
            if i < LABEL_OSC:
                log_q = _stratum(rng, i, LABEL_OSC, math.log(0.02), math.log(2.0))
                model_id = ("nonlinear-osc", "bounded-osc")[i % 2]
                spec = models.make_model(model_id, nonlinearity=math.exp(log_q))
            else:
                mu = _stratum(rng, i - LABEL_OSC, LABEL_EXP, 0.5, 2.0)
                spec = models.make_model("exp-mass", mu=mu)
            labels = []
            for lo, hi in (SHALLOW, DEEP):
                for j in range(LABELS_PER_BAND):
                    r = _stratum(rng, j, LABELS_PER_BAND, lo, hi)
                    labels.append(r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            zsq = zsqs[i]
            nmax = math.ceil(zsq + 12.0 * math.sqrt(zsq) + 30.0)
            studies.append(Study(spec, tuple(labels), zsq, nmax))
        rng.shuffle(studies)
        return studies

    def warm_up(self, studies) -> None:
        spec = studies[0].spec
        a = coherent.construct(spec, 0.5)
        b = coherent.construct(spec, 0.5j)
        stats.summary_series(a)
        stats.summary_closed(a)
        coherent.overlap(a, b)
        cli_run(["fig1", "--zsq", "1", "--nmax", "3"])

    def op(self, study: Study) -> StudyResult:
        states = [coherent.construct(study.spec, z) for z in study.labels]
        series = tuple(stats.summary_series(s) for s in states)
        closed = tuple(stats.summary_closed(s) for s in states)
        overlaps = tuple(coherent.overlap(a, b) for a, b in zip(states, states[1:]))
        rc, fig = cli_run(["fig1", "--zsq", repr(study.zsq), "--nmax", str(study.nmax)])
        if rc != 0:
            raise OpError(f"fig1 --zsq {study.zsq} exited {rc}")
        return StudyResult(tuple(s.dim for s in states), series, closed, overlaps, fig)

    def check(self, studies, results) -> list[str]:
        problems = []
        mpmath.mp.dps = 30
        for study, res in zip(studies, results):
            spec = study.spec
            where = f"{spec.id} q={spec.nonlinearity} mu={spec.mu}"
            for z, ser, clo in zip(study.labels, res.series, res.closed):
                mean, second = _moments_mp(spec, abs(z))
                gap = max(_rel(ser.mean, mean), _rel(ser.second_moment, second))
                if gap > 1e-10:
                    problems.append(f"labels {where} |z|={abs(z):.6g}: series moments off by {gap:.3g}")
                if spec.id == "exp-mass":
                    ok = abs(clo.mandel_q) <= 1e-9
                else:
                    ok = ser.mandel_q < 0 and clo.mandel_q < 0
                if not ok:
                    problems.append(
                        f"labels {where} |z|={abs(z):.6g}: Mandel Q series "
                        f"{ser.mandel_q:.3g}, closed {clo.mandel_q:.3g}"
                    )
            if any(abs(o) > 1.0 + 1e-12 for o in res.overlaps):
                problems.append(f"labels {where}: overlap above 1")
            problems += _check_fig1(study, res.fig1)
        return problems

    def once(self) -> list[str]:
        return []


def _moments_mp(spec, abs_z: float) -> tuple[float, float]:
    """Closed (<n>, <n^2>) from N(x) = sum x^n / rho_n, in mpmath.

    For the oscillators rho_n = n! q^n (b)_n with b = 2 + 1/q, so
    N(x) = 0F1(; b; x/q), <n> = x N'/N and <n(n-1)> = x^2 N''/N.
    """
    x = mpmath.mpf(abs_z) ** 2
    if spec.id == "exp-mass":
        xi = x / mpmath.mpf(spec.mu) ** 2
        return float(xi), float(xi + xi**2)
    q = mpmath.mpf(spec.nonlinearity)
    b = 2 + 1 / q
    f0 = mpmath.hyp0f1(b, x / q)
    mean = x / (q * b) * mpmath.hyp0f1(b + 1, x / q) / f0
    falling = x**2 / (q**2 * b * (b + 1)) * mpmath.hyp0f1(b + 2, x / q) / f0
    return float(mean), float(mean + falling)


def _check_fig1(study: Study, text: str) -> list[str]:
    panels: dict = {}
    for panel, lam, n, p in _csv_rows(text):
        panels.setdefault((panel, lam), []).append((int(n), float(p)))
    expected = [("harmonic", "")] + [("nonlinear", "%.15g" % lam) for lam in LAMBDA_PRIMES]
    if list(panels) != expected or any(len(v) != study.nmax + 1 for v in panels.values()):
        return [f"fig1 --zsq {study.zsq}: panels {list(panels)}"]
    problems = []
    lam = study.zsq
    for n, p in panels[expected[0]]:
        pmf = math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
        if abs(p - pmf) > 1e-10 * pmf + 1e-15:
            problems.append(f"fig1 --zsq {lam}: harmonic P_{n} = {p!r}, Poisson {pmf!r}")
            break
    for key in expected[1:]:
        mean = math.fsum(n * p for n, p in panels[key])
        if _rel(mean, lam) > 1e-9:
            problems.append(f"fig1 --zsq {lam}: panel {key[1]} has mean {mean!r}")
    return problems


# ----------------------------------------------------------------- spectra

# The oracle needs M = 8000 for q below about 3e-3, 4000 up to 1.3e-2, 2000
# up to 0.27 and 1000 above, and 4000 for every exp-mass case.  With 48
# oscillator and 16 exp-mass cases the slowest (M = 8000) group holds about
# 14% of the ops and the M = 8000 and 4000 groups together about 59%, so the
# p90 and the median each fall inside one group instead of on a boundary,
# whatever the seed.
SPEC_OSC = 48  # oscillator cases per pass, q log-uniform in [1e-3, 0.3]
SPEC_EXP = 16  # exp-mass cases per pass, alpha in [1.5, 4], mu in [0.5, 2]
SPEC_NMAX = 200
LEVELS = 4
LEVEL_TOL = 1e-5  # relative to max(|E_n|, energy unit)
M_START, M_LAST = 500, 16000


@dataclass(frozen=True)
class Case:
    model_id: str
    alpha: float
    q: float | None  # oscillators
    mu: float | None  # exp-mass
    levels: tuple  # the benchmark's own E_0..E_3

    @property
    def argv(self) -> tuple:
        """Model options shared by the spectrum and oracle commands."""
        if self.model_id == "exp-mass":
            return ("--model", "exp-mass", "--alpha", repr(self.alpha), "--mu", repr(self.mu))
        return ("--model", self.model_id, "--lambda-prime", repr(self.q))

    @property
    def unit(self) -> float:
        return self.mu**2 if self.model_id == "exp-mass" else self.alpha


@dataclass(frozen=True)
class CaseResult:
    listing: str
    oracle: str
    points: int


def _energy(model_id: str, alpha: float, q, mu, n: int) -> float:
    if model_id == "exp-mass":
        return n * mu**2
    return alpha * (n + 0.5 + q * n * (n + 1))


def _case(model_id: str, alpha: float = 1.0, q=None, mu=None) -> Case:
    models.make_model(model_id, alpha=alpha, nonlinearity=q, mu=mu)  # raises if invalid
    levels = tuple(_energy(model_id, alpha, q, mu, n) for n in range(LEVELS))
    return Case(model_id, alpha, q, mu, levels)


class Spectra:
    """Spectrum listing, then the oracle to 1e-5 on a doubling grid."""

    name = "spectra"

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        cases = []
        for i in range(SPEC_OSC):
            q = math.exp(_stratum(rng, i, SPEC_OSC, math.log(1e-3), math.log(0.3)))
            cases.append(_case(("nonlinear-osc", "bounded-osc")[i % 2], q=q))
        for i in range(SPEC_EXP):
            alpha = _stratum(rng, i, SPEC_EXP, 1.5, 4.0)
            cases.append(_case("exp-mass", alpha=alpha, mu=rng.uniform(0.5, 2.0)))
        rng.shuffle(cases)
        return cases

    def warm_up(self, cases) -> None:
        cli_run(["spectrum", *cases[0].argv, "--nmax", "2"])
        cli_run(["oracle", *cases[0].argv, "--levels", "1", "--points", "50"])

    def op(self, case: Case) -> CaseResult:
        rc, listing = cli_run(["spectrum", *case.argv, "--nmax", str(SPEC_NMAX)])
        if rc != 0:
            raise OpError(f"spectrum {case.argv} exited {rc}")
        points = M_START
        while True:
            rc, text = cli_run(
                ["oracle", *case.argv, "--levels", str(LEVELS), "--points", str(points)]
            )
            if rc not in (0, 1):
                raise OpError(f"oracle {case.argv} exited {rc}")
            numeric = [float(r[3]) for r in _csv_rows(text)]
            err = max(_rel(e, ref, case.unit) for e, ref in zip(numeric, case.levels))
            if err <= LEVEL_TOL:
                return CaseResult(listing, text, points)
            points *= 2
            if points > M_LAST:
                raise OpError(f"oracle {case.argv}: error {err:.3g} above {LEVEL_TOL} at M = {M_LAST}")

    def check(self, cases, results) -> list[str]:
        problems = []
        for case, res in zip(cases, results):
            rows = _csv_rows(res.listing)
            ref = _listing_reference(case)
            worst = max(
                (_rel(float(got), want) for row, want_row in zip(rows, ref)
                 for got, want in zip(row[1:], want_row) if want is not None),
                default=math.inf,
            )
            if len(rows) != SPEC_NMAX + 1 or rows[0][2] != "" or worst > 1e-12:
                problems.append(f"spectrum {case.argv}: listing off by {worst:.3g}")
            rows = _csv_rows(res.oracle)
            errs = [_rel(float(r[3]), want, case.unit) for r, want in zip(rows, case.levels)]
            analytic = [_rel(float(r[4]), want) for r, want in zip(rows, case.levels)]
            if len(rows) != LEVELS or max(errs) > LEVEL_TOL or max(analytic) > 1e-12:
                problems.append(f"oracle {case.argv} at M = {res.points}: level errors {errs}")
        return problems

    def once(self) -> list[str]:
        return []


def _listing_reference(case: Case) -> list[tuple]:
    """(E_n, R_n, ln rho_n) for n = 0..SPEC_NMAX, ln rho_n by math.fsum."""
    out = []
    logs = []
    for n in range(SPEC_NMAX + 1):
        if case.model_id == "exp-mass":
            r = case.mu**2 if n else None
            step = n
        else:
            r = case.alpha * (1.0 + 2.0 * n * case.q) if n else None
            step = n * (1.0 + case.q * (n + 1))
        if n:
            logs.append(math.log(step))
        out.append((_energy(case.model_id, case.alpha, case.q, case.mu, n), r, math.fsum(logs)))
    return out


WORKLOADS = {w.name: w for w in (Verify(), Labels(), Spectra())}
