"""Command-line interface: formats, exit codes, determinism."""

import argparse
import json
import pathlib
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from gcstates import cli, coherent, measure, models, oracle
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
# verify_corrupt_moments re-captured when ln K_nu moved to Amos's algorithm, and
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
# probes were shared between models with one ladder; verify_spectrum,
# verify_all and verify_corrupt_all were re-captured when the exp-mass walls
# became the exact roots of a quadratic in e^y instead of brentq's (the walls
# moved by under 3e-13 in y, and the exp-mass level rows' value and
# max_rel_error by under 2e-12); oracle, verify_spectrum, verify_all and
# verify_corrupt_all were re-captured when the levels became Richardson
# values of a grid triple, with a Liouville grid for the oscillators and a
# grid in t = y + ln s for exp-mass (only the spectrum levels, their
# rel_error or value, the spectrum max_rel_error and the oracle's new
# error_bar column moved); verify, verify_annihilation, verify_all and
# verify_corrupt_all were re-captured when the algebra rows began to set the
# steps against the closed remainders and ln rho_n instead of dense
# matrices built from the same steps, and the residual's L- began to read
# its steps from the energies (only round-off values moved without the
# control; under --corrupt-steps the commutator, raising, rho product and
# residual rows now fail); verify_corrupt_moments, verify_all and
# verify_corrupt_all were re-captured when the oscillators' weight began to
# add ln q after the rest of the Amos sum in specfn.bessel_density_log (only
# the q = 0.1 moment values and their max_rel_error moved, by round-off);
# stats_deep_osc (n0 = 43 and 81) and stats_deep_exp (n0 = 3106 and 2376)
# were captured before the per-label path stopped building throwaway arrays,
# the first goldens whose windows start past n = 0, so they pin the left
# cumulative sum and the anchor ln(x^n0 / rho_n0); verify_corrupt_moments,
# verify_all and verify_corrupt_all were re-captured when the moment sum
# moved into the weight's own scale t = xi/S (only the oscillators' moment
# values and max_rel_error moved, each by under 3e-15); moments,
# verify_corrupt_moments, verify_all and verify_corrupt_all were re-captured
# when ln K_nu became one trapezoid sum on its integral and the moment grid
# was cut to t in [1e-17, 1e4] (only round-off digits moved: each moment by
# under 5e-15 relative, each rel_error and max_rel_error by under 7e-15)
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
    ("stats_deep_osc", ["stats", "--lambda-prime", "0.02", "--z", "20+3i", "28-1i"], 0),
    ("stats_deep_exp", ["stats", "--model", "exp-mass", "--mu", "0.5",
                        "--z", "30+5i", "25-10i"], 0),
]


# ids name each case "<name>-args<i>", independent of the exit code column;
# new cases go at the end so the earlier cases keep their ids
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
    log_mag, re_part, im_part = np.asarray(rec["coeffs"]).T
    coeffs = np.exp(log_mag) * (re_part + 1j * im_part)
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_coherent_csv_table(capsys):
    code, out = run(["coherent", "--z", "1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,log_mag,phase_re,phase_im"
    assert len(lines) > 5


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
    assert lines[0] == "model,params,n,E_numeric,E_analytic,rel_error,M,error_bar"
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
    # "threshold" is no option's dest, so no subcommand would read it, and
    # "nonlinearity" is the library's name for --lambda-prime, not an option's
    for text in ('{"bogus": 1}', '{"threshold": 1}', '{"nonlinearity": 0.2}'):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2


def test_config_key_is_the_option_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lambda_prime": 0.2}')
    code, out = run(["spectrum", "--config", str(cfg), "--nmax", "1"], capsys)
    assert code == 0
    assert out.splitlines()[2].startswith("1,1.9,1.4,")


def _option_actions():
    """(command, action) for every action of the root parser and each subcommand."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in [("gcstates", parser), *subs.choices.items()]:
        for action in sub._actions:
            yield command, action


def test_every_option_dest_is_its_underscored_long_name():
    # config keys are dests, so this makes every option its own config key
    for command, action in _option_actions():
        longs = [o for o in action.option_strings if o.startswith("--")]
        if longs:  # the subcommand positional has none
            assert [o[2:].replace("-", "_") for o in longs] == [action.dest], (command, longs)


def test_readme_cli_section_names_only_real_options():
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    tokens = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    known = {o for _, action in _option_actions() for o in action.option_strings}
    assert tokens and tokens <= known, sorted(tokens - known)


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
        ["spectrum", "--model", "bounded-osc", "--lambda-prime", "-0.2"],
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
        # the spectrum family compares 4 levels, so its coarse grid needs at
        # least 4 points and the finest 4*4 + 3 = 19
        ["verify", "--only", "spectrum", "--points", "18"],
        # the bisection cannot resolve the exp-mass grid this close to alpha = 1
        ["oracle", "--model", "exp-mass", "--alpha", "1.00003", "--points", "200"],
        ["oracle", "--model", "exp-mass", "--alpha", "1.0001", "--points", "200"],
        ["oracle", "--model", "exp-mass", "--alpha", "1.001"],
        ["oracle", "--model", "exp-mass", "--alpha", "1.05"],
        # a flag of the other model family
        ["spectrum", "--model", "exp-mass", "--lambda-prime", "0.5"],
        ["spectrum", "--mu", "3"],
        # the oracle's range: q > 1 turns the Liouville tan^2 wall attractive,
        # and at q = 0.9 the grid triple converges at observed order 1.24
        ["oracle", "--lambda-prime", "2"],
        ["oracle", "--lambda-prime", "0.9"],
        # t (2 + 1/q) overflows on the moment grid below q ~ 5.6e-305
        ["moments", "--lambda-prime", "1e-306"],
        # the ladder step e_1 = 1 + 2q overflows a double, in ln rho_n and in the window
        ["spectrum", "--lambda-prime", "1e308", "--nmax", "3"],
        ["coherent", "--lambda-prime", "1e308", "--z", "1"],
        # |zeta|^2 overflows a double: |z|^2 at 1e200, and zeta = z/mu itself at mu = 1e-150
        ["coherent", "--z", "1e200"],
        ["stats", "--model", "exp-mass", "--mu", "1e-150", "--z", "1e160"],
        # e_4 = 4 (1 + 5q) overflows a double, so rho_4 does
        ["moments", "--lambda-prime", "1e307"],
    ],
)
def test_bad_parameters_exit_two(args, capsys):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_huge_q_refusal_names_q_and_the_first_overflowing_rho(capsys):
    assert cli.main(["moments", "--lambda-prime", "1e307"]) == 2
    assert capsys.readouterr().err == (
        "error: nonlinear-osc at q = 1e+307: the ladder step e_4 overflows a double, "
        "and rho_n with it from n = 4\n")


@pytest.mark.parametrize("args", [
    ["--lambda-prime", "1e10", "--nmax", "2"],
    ["--lambda-prime", "1e160"],
    ["--lambda-prime", "1e300", "--nmax", "0"],
    ["--model", "exp-mass", "--mu", "1e-12"],
    ["--lambda-prime", "1e-300", "--nmax", "2"],
], ids=["q1e10", "q1e160", "q1e300", "mu1e-12", "q1e-300"])
def test_moments_answer_far_from_the_grid_in_xi(args, capsys):
    # the weight's mass sits near xi = S, here from 1e-24 to 2e300, but the
    # sum runs in t = xi/S, where it sits at t ~ 1 for every q and mu
    code, out = run(["moments", *args], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert all(float(r[3]) < 1e-6 for r in rows)


@pytest.mark.parametrize("args", [["coherent", "--z", "1e200"], ["stats", "--z", "1e155"],
                                  ["coherent", "--z", "1e100+1e200i"]])
def test_overflowing_label_refusal_names_the_label_and_the_peak_limit(args, capsys):
    assert cli.main(args) == 2
    label = complex(args[-1].replace("i", "j"))
    assert capsys.readouterr().err == (
        f"error: label z = {label} puts |zeta|^2 past the double range, and the "
        f"coherent-state peak past n = 1e+08\n")


@pytest.mark.parametrize("q", ["1e-9", "1e-6"])
def test_small_q_coarse_oracle_levels_are_within_their_bars(q, capsys):
    # the coarse grid of --points 100 has M = 24 nodes, 0.51 apart in zeta at
    # the centre; its levels still converge at order 2 and meet their bars
    code, out = run(["oracle", "--lambda-prime", q, "--levels", "2", "--points", "100"],
                    capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        rel_error, error_bar = float(row[5]), float(row[7])
        assert rel_error <= error_bar < oracle.LEVEL_TOL


def test_tiny_q_refusal_names_q_and_the_moment_grid(capsys):
    assert cli.main(["moments", "--lambda-prime", "1e-306"]) == 2
    assert capsys.readouterr().err == (
        "error: the weight at q = 1e-306 overflows t (2 + 1/q) at t = 10000; "
        "q must be at least 5.6e-305 there\n")


@pytest.mark.parametrize("alpha", ["1.4e154", "1e200"])
def test_huge_expmass_alpha_is_refused_without_warnings(alpha):
    # in a fresh process, where a numpy RuntimeWarning would reach stderr;
    # alpha^2 - 1 overflows past 1.34e154
    proc = subprocess.run(
        [sys.executable, "-m", "gcstates.cli", "oracle", "--model", "exp-mass",
         "--alpha", alpha, "--points", "200"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: exp-mass alpha={float(alpha)!r}: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("alpha", ["1e13", "1e15", "1e18", "1e20", "1e154"])
def test_large_expmass_alpha_levels_hold_under_their_error_bars(alpha, capsys):
    # the grid in t = y + ln s keeps these levels; in y they were off by up
    # to 0.94, reported as a failed check (exit 1)
    code, out = run(["oracle", "--model", "exp-mass", "--alpha", alpha], capsys)
    assert code == 0
    for row in out.splitlines()[1:]:
        cols = row.split(",")
        rel_error, error_bar = float(cols[5]), float(cols[7])
        assert rel_error <= error_bar < 0.01


@pytest.mark.parametrize("cfg, model", [
    ({"mu": 2.0}, "nonlinear-osc"),
    ({"lambda_prime": 0.2}, "exp-mass"),
    ({"model": "exp-mass", "lambda_prime": 0.2}, None),
])
def test_config_key_of_the_other_family_exits_two(tmp_path, capsys, cfg, model):
    # a config key counts as a given flag, so the chosen model refuses it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["spectrum", "--config", str(path)] + (["--model", model] if model else [])
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text", ['{"nmax": 2.5}', '{"nmax": null}', '{"alpha": [1]}', '{"model": "box"}'],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["spectrum", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config key ")
    assert captured.err.count("\n") == 1


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["spectrum", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "error: config file must hold a JSON object\n")


def test_config_equals_form_applies_its_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"nmax": 1}')
    code, out = run(["spectrum", f"--config={cfg}"], capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["n", "0", "1"]


def test_unreadable_paths_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    for args in (
        ["spectrum", "--config", str(missing / "cfg.json")],
        ["spectrum", "--config", str(tmp_path)],
        ["spectrum", "--out", str(missing / "x.csv")],
        ["verify", "--only", "algebra", "--out", str(tmp_path)],
    ):
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_nonpositive_alpha_exits_two(alpha, capsys):
    assert cli.main(["spectrum", "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: alpha must be positive, got {float(alpha)}\n"


def test_oracle_params_column_names_the_exp_mass_parameters(capsys):
    args = ["oracle", "--model", "exp-mass", "--alpha", "2", "--levels", "2", "--points", "500"]
    code, out = run(args, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[:3] for row in rows] == [
        ["exp-mass", "mu=1;alpha=2", "0"], ["exp-mass", "mu=1;alpha=2", "1"],
    ]


@pytest.mark.parametrize(
    "args",
    [
        ["fig1", "--zsq", "1e6"],
        ["stats", "--model", "exp-mass", "--mu", "1e-3", "--z", "1"],
        ["stats", "--lambda-prime", "0.1", "--z", "1e5"],
        # 0F1 of order b = 2 + 1/q near 1e6 and 1e10, where Bessel I underflows
        ["stats", "--lambda-prime", "1e-6", "--z", "2000"],
        ["fig1", "--zsq", "1e7", "--lambda-primes", "1e-10", "--nmax", "1"],
        # b = 2 + 1/q = 1e300, whose square overflowed in the window's mode
        ["stats", "--lambda-prime", "1e-300", "--z", "1"],
        ["fig1", "--lambda-primes", "1e-300"],
    ],
)
def test_deep_labels_exit_zero(args, capsys):
    # each state sits on a window far from n = 0; construct checks its ln N
    code, out = run(args, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    if "1e-300" in args:
        # q = 1e-300 is the harmonic limit: Poissonian, and fig1's two panels agree
        if args[0] == "stats":
            assert rows[0][3:] == ["1", "1", "0", "Poissonian"]
        else:
            panels = {(r[0], int(r[2])): float(r[3]) for r in rows}
            for n in range(31):
                assert panels["nonlinear", n] == pytest.approx(panels["harmonic", n], rel=1e-12)
    elif args[0] == "fig1":
        # the matched-mean distributions all sit near n = 1e6, past nmax = 30
        assert {row[-1] for row in rows} == {"0"}
    elif "exp-mass" in args:
        assert float(rows[0][3]) == pytest.approx(1e6, rel=1e-10)
        assert rows[0][6] == "Poissonian"


def test_fig1_coefficient_holds_its_digits_at_tiny_labels(capsys):
    # P_1 = |z|^2 = 1e-300: P_1 = |exp(ln c_1)|^2 keeps about
    # (1 + |ln P_1|) 2.2e-16 relative, with ln P_1 = -691 here
    code, out = run(["fig1", "--zsq", "1e-300", "--nmax", "1"], capsys)
    assert code == 0
    p1 = float(out.splitlines()[2].split(",")[3])
    assert out.splitlines()[2].startswith("harmonic,,1,")
    assert p1 == pytest.approx(1e-300, rel=1e-13)


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


def test_numerical_error_exits_three(monkeypatch, capsys):
    # no grid sum certifies a relative error below round-off
    monkeypatch.setattr(measure, "CERTIFY_TOL", 1e-20)
    assert cli.main(["moments"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: QuadratureError: ")
    assert captured.err.count("\n") == 1


def test_unknown_model_exits_two_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--model", "box"])
    assert exc.value.code == 2


# each parameter has one spelling: --lambda-prime for q, --z for a label
@pytest.mark.parametrize("args", [
    ["spectrum", "--model", "bounded-osc", "--lambda-tilde", "-0.2"],
    ["spectrum", "--nonlinearity", "0.2"],
    ["coherent", "--z-re", "1"],
    ["stats", "--z-im", "1"],
    ["oracle", "--pad", "1e-3"],
    # nor is an option's prefix: --conf once read as --config, but never loaded its file
    ["spectrum", "--conf", "n1.json"],
    ["spectrum", "--nm", "2"],
    # nor is an option a subcommand never reads: only spectrum and oracle take --alpha
    ["stats", "--alpha", "2"],
    ["fig1", "--alpha", "2"],
], ids=["lambda-tilde", "nonlinearity", "z-re", "z-im", "pad", "conf", "nm", "stats-alpha",
        "fig1-alpha"])
def test_second_spellings_exit_two_via_argparse(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
