"""Command-line interface: formats, exit codes, determinism."""

import json
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from gcstates import cli, coherent, models
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
# fixed-grid trapezoid sum, and coherent, stats, fig1 and verify_annihilation
# when coherent states moved onto a window around their peak, stats when
# the series variance became a centred sum, and fig1 when the mean match
# became Newton's method, whose roots differ from brentq's by one ulp (each
# time only round-off digits moved), and oracle and verify_spectrum when the
# oscillator levels came from the even and odd half blocks (their E_numeric,
# and the rel_error or value derived from it, moved by under 2 eps ||T||_1);
# verify_all was captured after that change; verify_corrupt_all (every
# family's fail rows under --corrupt-steps) was captured before the ladder
# probes were shared between models with one ladder
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
    ("verify_all", ["verify"], 0),
    ("verify_corrupt_all", ["verify", "--corrupt-steps"], 1),
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


def test_stats_deep_expmass_variance(capsys):
    # <n^2> - <n>^2 would cancel about 8 of the 16 digits here
    code, out = run(["stats", "--model", "exp-mass", "--z", "1e4"], capsys)
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(1e8, rel=1e-12)


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


@pytest.mark.parametrize("args", [
    ["fig1", "--zsq", "1e-300"],
    ["fig1", "--lambda-primes", "1e300", "--nmax", "2"],
])
def test_fig1_extreme_targets_exit_zero(args, capsys):
    # the matched |z| lies far outside any fixed bracket: 1e-150 and 1e150
    code, out = run(args, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    nmax = int(args[-1]) if "--nmax" in args else 30
    assert len(rows) == (nmax + 1) * (2 if "--lambda-primes" in args else 4)
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


def test_fig1_json_carries_the_csv_values(capsys):
    args = ["fig1", "--zsq", "3.7", "--nmax", "12", "--lambda-primes", "0.07", "2"]
    code, text = run(args, capsys)
    assert code == 0
    csv_rows = [tuple(line.split(",")) for line in text.splitlines()[1:]]
    code, text = run(args + ["--format", "json"], capsys)
    assert code == 0
    json_rows = [(r["panel"], r["lambda_prime"], r["n"], r["P_n"]) for r in json.loads(text)]
    assert len(json_rows) == len(csv_rows) == 3 * 13
    for (panel, lam, n, p), row in zip(json_rows, csv_rows):
        assert row == (panel, "" if lam is None else "%.15g" % lam, str(n), "%.15g" % p)


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

    monkeypatch.setattr("gcstates.oracle.lowest_eigenvalues", broken)
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


# one parser serves every call with the same config, so nothing one call
# parses may leak into the next
def test_config_value_does_not_outlive_its_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nmax": 1}')
    _, out = run(["spectrum", "--config", str(cfg)], capsys)
    assert len(out.splitlines()) == 3
    _, out = run(["spectrum"], capsys)
    assert len(out.splitlines()) == 1 + 11


def test_explicit_flag_equal_to_default_beats_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nmax": 1}')
    _, out = run(["spectrum", "--config", str(cfg), "--nmax", "10"], capsys)
    assert len(out.splitlines()) == 1 + 11


def test_list_options_fall_back_to_their_defaults(capsys):
    run(["fig1", "--lambda-primes", "0.1", "--nmax", "2"], capsys)
    _, out = run(["fig1", "--nmax", "2"], capsys)
    panels = {tuple(line.split(",")[:2]) for line in out.splitlines()[1:]}
    assert panels == {("harmonic", ""), ("nonlinear", "0.07"),
                      ("nonlinear", "0.17"), ("nonlinear", "0.27")}
    run(["stats", "--z", "2"], capsys)
    _, out = run(["stats"], capsys)
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["1"]


def test_rejected_config_leaves_later_calls_alone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"format": "csv"}')
    assert cli.main(["--config", str(cfg), "verify", "--only", "algebra"]) == 2
    capsys.readouterr()
    code, _ = run(["verify", "--only", "algebra"], capsys)
    assert code == 0


def test_parser_is_built_once_for_many_calls(monkeypatch, capsys):
    builds = []
    real = cli.build_parser

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(20):
        assert cli.main(["spectrum", "--nmax", "1"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


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
        ["verify", "--only", "moments", "--nmax", "13"],
        ["verify", "--only", "moments", "--nmax", "-1"],
        ["verify", "--only", "spectrum", "--points", "2"],
        # mu^2 leaves the normal double range
        ["stats", "--model", "exp-mass", "--mu", "1e-300", "--z", "1"],
        ["spectrum", "--model", "exp-mass", "--mu", "1e-300", "--nmax", "2"],
        ["moments", "--model", "exp-mass", "--mu", "1e-170"],
        ["spectrum", "--model", "exp-mass", "--mu", "1e200"],
        # |zeta|^2 = 4e8 puts the coherent-state peak past PEAK_INDEX_MAX
        ["stats", "--model", "exp-mass", "--z", "2e4"],
        # sweeps whose label count is infinite or past SWEEP_MAX_LABELS
        ["stats", "--z-sweep", "0", "1e308", "1e-308"],
        ["stats", "--z-sweep", "0", "1e12", "1"],
        # a subnormal target mean
        ["fig1", "--zsq", "1e-310"],
        # the spectrum family compares 4 levels
        ["verify", "--only", "spectrum", "--points", "3"],
        # the bisection cannot resolve the exp-mass grid this close to alpha = 1
        ["oracle", "--model", "exp-mass", "--alpha", "1.00003", "--points", "200"],
        ["oracle", "--model", "exp-mass", "--alpha", "1.0001", "--points", "200"],
        ["oracle", "--model", "exp-mass", "--alpha", "1.001"],
        ["oracle", "--model", "exp-mass", "--alpha", "1.05"],
        # oscillator grids whose zeta spacing is too coarse for the low states
        ["oracle", "--lambda-prime", "1e-9", "--levels", "2"],
        ["oracle", "--lambda-prime", "1e-6", "--levels", "2"],
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


@pytest.mark.parametrize(
    "args",
    [
        ["fig1", "--zsq", "1e6"],
        ["stats", "--model", "exp-mass", "--mu", "1e-3", "--z", "1"],
        ["stats", "--lambda-prime", "0.1", "--z", "1e5"],
    ],
)
def test_deep_labels_exit_zero(args, capsys):
    # each state sits on a window far from n = 0; construct checks its ln N
    code, out = run(args, capsys)
    assert code == 0
    if args[0] == "fig1":
        # the matched-mean distributions all sit near n = 1e6, past nmax = 30
        assert {line.rsplit(",", 1)[1] for line in out.splitlines()[1:]} == {"0"}
    elif "exp-mass" in args:
        row = out.splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(1e6, rel=1e-10)
        assert row[6] == "Poissonian"


def test_coherent_csv_gives_absolute_indices(capsys):
    args = ["coherent", "--model", "exp-mass", "--mu", "0.5", "--z", "30"]
    code, out = run(args + ["--format", "csv"], capsys)
    state = coherent.construct(models.make_model("exp-mass", mu=0.5), 30)
    assert code == 0
    assert state.n0 > 0
    rows = out.splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(state.n0, state.n0 + state.dim))
    code, out = run(args, capsys)
    assert json.loads(out)["n0"] == state.n0


NUMERICAL_FAILURES = [
    (["coherent", "--z", "1e200"], "OverflowError"),
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
