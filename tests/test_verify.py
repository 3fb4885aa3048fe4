"""The verification families as library code."""

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
     ({"points": 2}, "points"), ({"points": 3}, "points")],
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
    # nonlinear-osc and bounded-osc at one q share a problem; exp-mass is its own
    assert len(keys) == len(set(keys)) == 2
    assert verify.run(only=["spectrum"], points=500) == first
    assert len(keys) == 4 and keys[2:] == keys[:2]

    rows = {}
    for row in first[0]["details"]:
        rows.setdefault(row["model"], []).append(row)
    assert rows["nonlinear-osc"] == [
        dict(row, model="nonlinear-osc") for row in rows["bounded-osc"]
    ]


def test_one_probe_run_per_distinct_ladder_per_run(monkeypatch):
    ladders = {"build": [], "verify_moments": [], "construct": []}
    for module, name in [(verify.fockrep, "build"), (verify.measure, "verify_moments"),
                         (verify.coherent, "construct")]:
        real = getattr(module, name)

        def counted(spec, *args, _real=real, _calls=ladders[name], **kw):
            _calls.append((spec.ladder, spec.step_bias))
            return _real(spec, *args, **kw)

        monkeypatch.setattr(module, name, counted)

    first = verify.run(only=["algebra", "annihilation", "moments"], nmax=2)
    # nonlinear-osc and bounded-osc at one q close one ladder; exp-mass its own
    counts = {name: len(calls) for name, calls in ladders.items()}
    assert counts == {"build": 2, "verify_moments": 2, "construct": 6}
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
    def broken(ops, n_max):
        raise verify.ConsistencyError(f"chain broke for {ops.spec.id}")

    monkeypatch.setattr(verify.fockrep, "states_by_raising", broken)
    (report,) = verify.run(only=["algebra"])
    rows = [(d["model"], d["item"], d.get("error")) for d in report["details"]
            if d["item"] in ("commutator diagonal", "operator checks")]
    assert rows == [
        row for m in ("nonlinear-osc", "bounded-osc", "exp-mass")
        for row in [(m, "commutator diagonal", None),
                    (m, "operator checks", f"ConsistencyError: chain broke for {m}")]
    ]


def test_coarse_oscillator_grid_leaves_fail_rows():
    (report,) = verify.run(only=["spectrum"], points=8)
    osc = [d for d in report["details"] if d["model"] != "exp-mass"]
    assert [d["model"] for d in osc] == ["nonlinear-osc", "bounded-osc"]
    assert all("spacing h = 0.5 is above 0.25" in d["error"] for d in osc)
    assert report["status"] == "fail"
