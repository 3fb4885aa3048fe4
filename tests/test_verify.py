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
     ({"points": 2}, "points")],
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
