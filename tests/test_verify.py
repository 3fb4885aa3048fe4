"""The verification families as library code."""

import dataclasses
import json

import pytest

from gcstates import cli, verify


def test_run_gives_the_cli_report(capsys):
    report = verify.run(only=["algebra"])
    assert cli.main(["verify", "--only", "algebra"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(cli._json_text(report))


@pytest.mark.parametrize(
    "kwargs, match",
    [({"nmax": 13}, "nmax"), ({"nmax": -1}, "nmax"), ({"nmax": 2.5}, "nmax"),
     ({"points": 2}, "points"), ({"points": 3}, "points"), ({"points": 18}, ">= 19")],
)
def test_run_rejects_bad_arguments_before_any_probe(kwargs, match, monkeypatch):
    def no_probe(*args, **kw):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(verify.models, "make_model", no_probe)
    with pytest.raises(ValueError, match=match):
        verify.run(only=["algebra"], **kwargs)


def test_run_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown verify families"):
        verify.run(only=["moment"])


def test_one_solve_per_distinct_hamiltonian_per_run(monkeypatch):
    keys = []
    real = verify.oracle.lowest_eigenvalues

    def counted(problem, k):
        keys.append(problem.key)
        return real(problem, k)

    monkeypatch.setattr(verify.oracle, "lowest_eigenvalues", counted)
    first = verify.run(only=["spectrum"], points=500)
    # nonlinear-osc and bounded-osc at one q share a problem; exp-mass is its
    # own; each is solved on grids of 124, 249 and 499 points
    assert len(keys) == len(set(keys)) == 6
    assert sorted(key[2] for key in keys) == [124, 124, 249, 249, 499, 499]
    assert verify.run(only=["spectrum"], points=500) == first
    assert len(keys) == 12 and keys[6:] == keys[:6]

    rows = {}
    for row in first[0]["details"]:
        rows.setdefault(row["model"], []).append(row)
    assert rows["nonlinear-osc"] == [
        dict(row, model="nonlinear-osc") for row in rows["bounded-osc"]
    ]


def test_one_probe_run_per_distinct_ladder_per_run(monkeypatch):
    ladders = {"remainder": [], "verify_moments": [], "construct": []}
    for module, name in [(verify.models, "remainder"), (verify.measure, "verify_moments"),
                         (verify.coherent, "construct")]:
        real = getattr(module, name)

        def counted(spec, *args, _real=real, _calls=ladders[name], **kw):
            _calls.append((spec.ladder, spec.step_bias))
            return _real(spec, *args, **kw)

        monkeypatch.setattr(module, name, counted)

    first = verify.run(only=["algebra", "annihilation", "moments"], nmax=2)
    # nonlinear-osc and bounded-osc at one q close one ladder; exp-mass its own.
    # remainder is read once by the identities and once by the commutator
    counts = {name: len(calls) for name, calls in ladders.items()}
    assert counts == {"remainder": 4, "verify_moments": 2, "construct": 6}
    assert all(len(set(calls)) == 2 for calls in ladders.values())
    # nothing is kept from one run to the next
    assert verify.run(only=["algebra", "annihilation", "moments"], nmax=2) == first
    assert {name: len(calls) for name, calls in ladders.items()} == {
        name: 2 * n for name, n in counts.items()
    }


@pytest.mark.parametrize("corrupt", [False, True])
def test_shared_rows_differ_only_in_model(corrupt):
    for family in verify.run(corrupt=corrupt, nmax=4, points=500):
        rows = {}
        for row in family["details"]:
            rows.setdefault(row["model"], []).append(row)
        assert list(rows) == ["nonlinear-osc", "bounded-osc", "exp-mass"]
        assert rows["bounded-osc"] == [
            dict(row, model="bounded-osc") for row in rows["nonlinear-osc"]
        ]


def test_a_raising_probe_is_not_shared(monkeypatch):
    calls = []

    def broken(spec, n_max):
        calls.append(spec.id)
        raise verify.QuadratureError("no quadrature")

    monkeypatch.setattr(verify.measure, "verify_moments", broken)
    (report,) = verify.run(only=["moments"])
    assert calls == ["nonlinear-osc", "bounded-osc", "exp-mass"]
    assert report["status"] == "fail"
    assert report["details"] == [
        {"model": m, "item": "moment quadrature",
         "error": "QuadratureError: no quadrature", "passed": False}
        for m in calls
    ]


def test_rows_before_a_raise_are_kept_for_each_model(monkeypatch):
    # the raising row, after the commutator row, is the first to read rho_log
    def broken(ladder, n):
        raise verify.ConsistencyError(f"closed rho broke at n = {n}")

    for ladder in (verify.models.QuadraticLadder, verify.models.LinearLadder):
        monkeypatch.setattr(ladder, "rho_log", broken)
    (report,) = verify.run(only=["algebra"])
    rows = [(d["model"], d["item"], d.get("error")) for d in report["details"]
            if d["item"] in ("commutator diagonal", "operator checks")]
    assert rows == [
        row for m in ("nonlinear-osc", "bounded-osc", "exp-mass")
        for row in [(m, "commutator diagonal", None),
                    (m, "operator checks", "ConsistencyError: closed rho broke at n = 1")]
    ]


# rows whose two sides read only energies, or rho_0 = 1: a step bias cannot reach them
ENERGY_ONLY = {"telescoping", "moment n=0"} | {f"level n={n}" for n in range(verify.LEVELS)}


def test_corrupt_steps_fail_every_row_that_reads_a_step():
    report = verify.run(corrupt=True)
    passed = sorted((d["model"], d["item"]) for f in report for d in f["details"]
                    if d["passed"])
    assert passed == sorted((m, item) for m in ("nonlinear-osc", "bounded-osc", "exp-mass")
                            for item in ENERGY_ONLY)
    failed = {d["item"] for f in report for d in f["details"] if not d["passed"]}
    assert failed == {
        "step-energy identity", "commutator diagonal", "raising reconstruction",
        "rho product vs closed form", "residual |z|=0.5", "residual |z|=1.5",
        "residual |z|=3.0", *(f"moment n={n}" for n in range(1, 9)),
    }
    assert len(passed) == 18 and sum(len(f["details"]) for f in report) == 63
    status = {f["check_name"]: f["status"] for f in report}
    assert status == {"spectral_algebra": "fail", "annihilation": "fail",
                      "moments": "fail", "spectrum": "pass"}


def test_a_step_bias_of_1e_8_fails_every_step_reading_algebra_and_residual_row(monkeypatch):
    real = verify.default_specs

    def biased(corrupt=False):
        return [dataclasses.replace(s, step_bias=1e-8) for s in real(corrupt)]

    monkeypatch.setattr(verify, "default_specs", biased)
    algebra, annihilation, moments = verify.run(only=["algebra", "annihilation", "moments"])
    assert all(d["passed"] == (d["item"] == "telescoping") for d in algebra["details"])
    assert not any(d["passed"] for d in annihilation["details"])
    # a moment's relative error grows like n * 1e-8, far below MOMENT_TOL = 1e-6,
    # so at this bias the moment family cannot fail
    assert verify.measure.MOMENT_TOL == 1e-6
    assert moments["status"] == "pass"


def test_coarse_oscillator_grid_leaves_fail_rows():
    # points = 100 gives a coarse grid of 24 points, 0.28 apart in zeta at q = 0.1
    (report,) = verify.run(only=["spectrum"], points=100)
    osc = [d for d in report["details"] if d["model"] != "exp-mass"]
    assert [d["model"] for d in osc] == ["nonlinear-osc", "bounded-osc"]
    assert all("spacing h = 0.28 is above 0.25" in d["error"] for d in osc)
    assert report["status"] == "fail"
