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
