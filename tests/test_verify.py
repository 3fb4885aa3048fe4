"""The verification families as library code."""

import json

import pytest

from gcstates import cli, verify


def test_run_gives_the_cli_report(capsys):
    report = verify.run(only=["algebra"])
    assert cli.main(["verify", "--only", "algebra"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(cli._json_text(report))


def test_run_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown verify families"):
        verify.run(only=["moment"])
