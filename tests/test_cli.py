"""Command-line interface: formats, exit codes, determinism."""

import json
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from gcstates import cli, coherent
from gcstates.exceptions import QuadratureError


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_csv_golden(capsys):
    code, out = run(
        ["spectrum", "--model", "nonlinear-osc", "--lambda-prime", "0.1",
         "--nmax", "2"], capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "n,E_n,R_n,rho_log_n",
        "0,0.5,,0",
        "1,1.7,1.2,0.182321556793955",
        "2,3.1,1.4,1.13783300182139",
    ]


GOLDEN = pathlib.Path(__file__).parent / "golden"


# expected stdout frozen from the CLI before the ladder-family refactor; the
# three further verify families were frozen before verification left the CLI,
# verify_corrupt_moments re-captured when ln K_nu moved to Amos's kve, and
# moments and verify_corrupt_moments again when the moment check became one
# fixed-grid trapezoid sum (each time only round-off digits moved)
GOLDEN_CASES = [
    ("coherent", ["coherent", "--z", "0.3+0.2i"], 0),
    ("stats", ["stats", "--model", "bounded-osc", "--lambda-prime", "0.17",
               "--z", "0.5", "1.5", "2+1i"], 0),
    ("fig1", ["fig1", "--zsq", "2", "--nmax", "4"], 0),
    ("moments", ["moments", "--model", "exp-mass"], 0),
    ("oracle", ["oracle", "--points", "500"], 0),
    ("verify", ["verify", "--only", "algebra"], 0),
    ("verify_annihilation", ["verify", "--only", "annihilation"], 0),
    ("verify_spectrum", ["verify", "--only", "spectrum", "--points", "500"], 0),
    ("verify_corrupt_moments",
     ["verify", "--corrupt-steps", "--only", "moments", "--nmax", "2"], 1),
]


# ids name each case "<name>-args<i>", independent of the exit code column
@pytest.mark.parametrize(
    "name, args, exit_code", GOLDEN_CASES,
    ids=[f"{case[0]}-args{i}" for i, case in enumerate(GOLDEN_CASES)],
)
def test_subcommand_golden(name, args, exit_code, capsys):
    code, out = run(args, capsys)
    assert code == exit_code
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_spectrum_json(capsys):
    code, out = run(["spectrum", "--nmax", "1", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"n": 0, "E_n": 0.5, "R_n": None, "rho_log_n": 0.0}


def test_output_is_byte_deterministic(capsys):
    args = ["stats", "--model", "bounded-osc", "--lambda-prime", "0.17",
            "--z", "0.5", "1.5", "2+1i"]
    _, first = run(args, capsys)
    _, second = run(args, capsys)
    assert first == second
    assert first.count("\n") == 4


def test_coherent_json_record_round_trip(capsys):
    code, out = run(
        ["coherent", "--model", "exp-mass", "--mu", "1", "--z", "1+0.5i"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["model"] == "exp-mass"
    assert rec["z_re"] == 1.0 and rec["z_im"] == 0.5
    coeffs = coherent.coeffs_from_record(rec)
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_coherent_csv_table(capsys):
    code, out = run(["coherent", "--z", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,log_mag,phase_re,phase_im"
    assert len(lines) > 5


def test_z_components_equal_combined_form(capsys):
    combined = ["--z", "0.5+0.3i", "--format", "csv"]
    split = ["--z-re", "0.5", "--z-im", "0.3", "--format", "csv"]
    _, a = run(["coherent"] + combined, capsys)
    _, b = run(["coherent"] + split, capsys)
    assert a == b
    _, a = run(["stats"] + combined, capsys)
    _, b = run(["stats"] + split, capsys)
    assert a == b


def test_z_component_alone_defaults_other_to_zero(capsys):
    _, a = run(["stats", "--z-re", "2"], capsys)
    _, b = run(["stats", "--z", "2"], capsys)
    assert a == b


def test_spectrum_nmax_zero_single_row(capsys):
    code, out = run(["spectrum", "--nmax", "0"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,E_n,R_n,rho_log_n", "0,0.5,,0"]


def test_stats_expmass_poissonian_row(capsys):
    code, out = run(
        ["stats", "--model", "exp-mass", "--mu", "1", "--z", "2"], capsys
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "exp-mass"
    assert row[1] == ""  # no nonlinearity column value
    assert float(row[3]) == pytest.approx(4.0, abs=1e-10)
    assert row[6] == "Poissonian"


def test_stats_sweep(capsys):
    code, out = run(["stats", "--z-sweep", "0.5", "1.5", "0.5"], capsys)
    assert code == 0
    zs = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert zs == [0.5, 1.0, 1.5]


def test_fig1_long_format(capsys):
    code, out = run(
        ["fig1", "--nmax", "5", "--lambda-primes", "0.17", "--zsq", "4"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "panel,lambda_prime,n,P_n"
    panels = {line.split(",")[0] for line in lines[1:]}
    assert panels == {"harmonic", "nonlinear"}
    assert len(lines) == 1 + 2 * 6


def test_moments_pass_and_exit_zero(capsys):
    code, out = run(
        ["moments", "--model", "exp-mass", "--mu", "2", "--nmax", "3"], capsys
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["1", "4", "32", "384"]


def test_oracle_small_grid(capsys):
    code, out = run(
        ["oracle", "--model", "nonlinear-osc", "--lambda-prime", "0.27",
         "--points", "800", "--levels", "2"], capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model,params,n,E_numeric,E_analytic,rel_error,M"
    assert lines[1].split(",")[4] == "0.5"


def test_verify_only_moments(capsys):
    code, out = run(["verify", "--only", "moments", "--nmax", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, cli.VERIFY_REPORT_SCHEMA)
    assert [e["check_name"] for e in report] == ["moments"]
    assert report[0]["status"] == "pass"


def test_verify_corruption_detected(capsys):
    code, out = run(
        ["verify", "--corrupt-steps", "--only", "moments", "--nmax", "2"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, cli.VERIFY_REPORT_SCHEMA)
    assert report[0]["status"] == "fail"


def test_verify_turns_a_raising_probe_into_fail_rows(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise QuadratureError("injected failure")

    monkeypatch.setattr("gcstates.oracle.compare_spectrum", broken)
    code, out = run(["verify", "--only", "spectrum"], capsys)
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, cli.VERIFY_REPORT_SCHEMA)
    [entry] = report
    assert entry["status"] == "fail"
    assert entry["max_rel_error"] == 1.0
    models = [row["model"] for row in entry["details"]]
    assert models == ["nonlinear-osc", "bounded-osc", "exp-mass"]
    for row in entry["details"]:
        assert row["item"] == "finite-difference solve"
        assert row["error"].startswith("QuadratureError: ")
        assert row["passed"] is False


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "exp-mass", "mu": 2.0, "nmax": 3}))
    code, out = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["0,0,,0", "1,4,4,0",
                                    "2,8,4,0.693147180559945",
                                    "3,12,4,1.79175946922805"]
    # explicit flag beats the file
    code, out = run(["spectrum", "--config", str(cfg), "--nmax", "1"], capsys)
    assert len(out.splitlines()) == 3


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # "threshold" is no option's dest, so no subcommand would read it
    for text in ('{"bogus": 1}', '{"threshold": 1}'):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2


def test_config_rejects_keys_the_subcommand_does_not_read(tmp_path, capsys):
    # "format" is an option of spectrum and friends, but verify has none
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"format": "csv"}')
    code = cli.main(["--config", str(cfg), "verify", "--only", "algebra"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown config keys: format" in captured.err
    code, out = run(["--config", str(cfg), "spectrum", "--nmax", "1"], capsys)
    assert code == 0
    assert out.startswith("n,E_n,R_n,rho_log_n\n")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out = run(["spectrum", "--nmax", "1", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,E_n,R_n,rho_log_n\n")


@pytest.mark.parametrize(
    "args",
    [
        ["coherent", "--z", "not-a-number"],
        ["stats", "--z-sweep", "2", "1", "0.5"],
        ["fig1", "--zsq", "-1"],
        ["spectrum", "--model", "nonlinear-osc", "--lambda-prime", "-0.1"],
        ["spectrum", "--model", "nonlinear-osc", "--lambda-tilde", "0.3"],
        ["spectrum", "--lambda-prime", "inf", "--nmax", "2"],
        ["stats", "--z", "nan"],
        ["fig1", "--zsq", "inf"],
        ["stats", "--z-sweep", "0", "inf", "1"],
        ["spectrum", "--nmax", "-1"],
        ["fig1", "--nmax", "-1"],
    ],
)
def test_bad_parameters_exit_two(args, capsys):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ['{"nmax": 2.5}', '{"nmax": null}', '{"alpha": [1]}'])
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["spectrum", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config key ")
    assert captured.err.count("\n") == 1


NUMERICAL_FAILURES = [
    # |zeta|^2 = 1e6 exhausts the coherent series budget
    (["stats", "--model", "exp-mass", "--mu", "1e-3", "--z", "1"], "ConvergenceError"),
    (["coherent", "--z", "1e200"], "OverflowError"),
    (["stats", "--model", "exp-mass", "--mu", "1e-300", "--z", "1"], "OverflowError"),
    (["moments", "--lambda-prime", "1e300", "--nmax", "2"], "OverflowError"),
    # the weight's scale mu^2 = 1e-24 is too close to the moment grid's edge
    (["moments", "--model", "exp-mass", "--mu", "1e-12"], "QuadratureError"),
]


def test_numerical_error_exits_three(capsys):
    for args, error in NUMERICAL_FAILURES:
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 3, args
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}: ")
        assert captured.err.count("\n") == 1


def test_unknown_model_exits_two_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--model", "box"])
    assert exc.value.code == 2


def test_verify_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--format", "csv"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_console_script_end_to_end():
    # one subprocess run to cover the installed entry point
    proc = subprocess.run(
        [sys.executable, "-m", "gcstates.cli", "spectrum", "--nmax", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,E_n,R_n,rho_log_n\n")
