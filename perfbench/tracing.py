"""In-memory call tracing for the benchmark's traced runs.

``install`` wraps every public function of the gcstates modules, both where
it is defined and wherever another module (or the package itself) imported
it by name, so a call reaches the same wrapper whichever name it goes
through.  Each wrapped call is one span.  The tracer keeps, per span name,
the call count and the self time (the span's duration minus the time its
child spans cover), plus work counts read from return values and arguments:
series terms, state dimensions, integrand evaluations and grid points.

Aggregates cover every call.  The raw spans (id, parent id, op index, name,
start, end) are also kept in memory up to ``span_cap`` of them and written
out when the run ends; further spans are counted in ``dropped``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

#: relative level error at which a finite-difference solve counts as useful
ORACLE_TOL = 1e-5

#: labels with |z| up to this bound are the shallow band, the rest are deep
SHALLOW_MAX = 3.0


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.stack: list[list] = []  # [child time, span id, name] per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.next_id = 0
        self.op = None  # index of the op being run, stamped on each span

    def wrap(self, name, fn, key=None, before=None, after=None):
        """Return fn wrapped in a span called name (or key(bound args)).

        before(bound) may replace bound arguments before the call and
        after(result, bound) reads counts from the result.  Both get the
        call's arguments bound to fn's signature with defaults applied.
        """
        sig = inspect.signature(fn)
        needs_args = key or before or after
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            label = name
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if key:
                    label = key(bound)
                if before:
                    before(bound)
                args, kwargs = bound.args, bound.kwargs
            span_id = self.next_id
            self.next_id += 1
            frame = [0.0, span_id, label]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = None
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                calls[label] += 1
                self_s[label] += dur - frame[0]
                if len(spans) < self.span_cap:
                    spans.append((span_id, parent, self.op, label, t0, t1))
                else:
                    self.dropped += 1
            if after:
                after(out, bound)
            return out

        return traced

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": fields,
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                fh,
            )


def _hooks(tracer: Tracer) -> dict:
    """Per-function span keys and work counters, by qualified name."""
    counts = tracer.counts

    def terms(name):
        def after(out, bound):
            counts[name + ".terms"] += out.terms_used

        return after

    def construct_key(bound):
        band = "shallow" if abs(complex(bound.arguments["z"])) <= SHALLOW_MAX else "deep"
        return "coherent.construct." + band

    def construct_after(state, bound):
        counts["coherent.construct.dim_total"] += state.dim

    def count_evals(bound):
        f = bound.arguments["f"]

        def counted(x):
            counts["specfn.integrate_halfline.evals"] += 1
            return f(x)

        bound.arguments["f"] = counted

    def compare_after(comps, bound):
        counts["oracle.compare_spectrum.points_total"] += bound.arguments["points"]
        counts["oracle.compare_spectrum.solves"] += 1
        if max(c.rel_error for c in comps) <= ORACLE_TOL:
            counts["oracle.compare_spectrum.useful"] += 1

    return {
        "specfn.hyp0f1": {"after": terms("specfn.hyp0f1")},
        "specfn.hyp0f1_complex": {"after": terms("specfn.hyp0f1_complex")},
        "specfn.integrate_halfline": {"before": count_evals},
        "coherent.construct": {"key": construct_key, "after": construct_after},
        "oracle.compare_spectrum": {"after": compare_after},
    }


def count_quad_evals(tracer: Tracer, quad):
    """scipy's quad, adding its integrand evaluations to the open span.

    The count comes from quad's own ``neval``, so no Python layer is added
    around the integrand; the value and error returned are unchanged.
    """

    @functools.wraps(quad)
    def counted(*args, **kwargs):
        value, err, info, *_ = quad(*args, full_output=1, **kwargs)
        if tracer.stack:
            tracer.counts[tracer.stack[-1][2] + ".quad_evals"] += info["neval"]
        return value, err

    return counted


def install(tracer: Tracer, package, modules) -> None:
    """Wrap the public functions of modules, and their by-name imports.

    ``specfn.quad`` is replaced too, so that ``specfn.bessel_k.quad_evals``
    counts the evaluations of bessel_k's own integrand.
    """
    hooks = _hooks(tracer)
    wrapped = {}  # id(original) -> wrapper
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrapped[id(fn)] = tracer.wrap(name, fn, **hooks.get(name, {}))
    for mod in (package, *modules):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    for mod in modules:
        if mod.__name__.endswith(".specfn"):
            mod.quad = count_quad_evals(tracer, mod.quad)
