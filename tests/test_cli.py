import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import epflab
from epflab import cli, harness, report

# The CLI subprocess imports the same epflab sources as the tests.
SRC = str(Path(epflab.__file__).resolve().parent.parent)
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "epflab.cli", *args],
        capture_output=True, text=True, timeout=300, env=CLI_ENV,
    )


def test_list_problems():
    out = run_cli("list-problems")
    assert out.returncode == 0
    for name in ("toy-lin-1", "toy-eq-1", "toy-socp-1", "toy-socp-2", "toy-sdp-1"):
        assert name in out.stdout


def test_unknown_problem_exit_3():
    out = run_cli("check-kkt", "--problem", "nope", "--x", "0")
    assert out.returncode == 3


def test_bad_numeric_exit_3():
    out = run_cli("check-kkt", "--problem", "toy-lin-1", "--x", "zero")
    assert out.returncode == 3


def test_check_kkt_pass():
    out = run_cli("check-kkt", "--problem", "toy-socp-1", "--x", "1,1", "--lambda", "-2,2")
    assert out.returncode == 0
    assert "kkt_residual" in out.stdout


def test_check_kkt_fail_exit_2():
    out = run_cli("check-kkt", "--problem", "toy-eq-1", "--x", "1,1", "--mu", "0")
    assert out.returncode == 2


def test_sweep_csv(tmp_path):
    dest = tmp_path / "sweep.csv"
    out = run_cli("sweep", "--problem", "toy-lin-1", "--penalty", "linear",
                  "--c-min", "0.5", "--c-max", "8", "--c-steps", "4",
                  "--starts", "8", "--seed", "0", "--out", str(dest))
    assert out.returncode == 0
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "c,best_F,best_x_0,feas_gap,dist_to_xstar,starts_agreeing"
    assert len(lines) == 5


def test_estimate_cstar_json(tmp_path):
    dest = tmp_path / "cstar.json"
    out = run_cli("estimate-cstar", "--problem", "toy-lin-1", "--penalty", "linear",
                  "--c-lo", "0.25", "--c-hi", "64", "--starts", "8", "--out", str(dest))
    assert out.returncode == 0
    doc = json.loads(dest.read_text())
    assert abs(doc["c_star"] - 1.0) <= 0.05


def test_estimate_cstar_not_found_exit_2():
    # toy-eq-1 with the HPR multiplier forced to 0 is the plain quadratic
    # penalty, which is not exact at any finite c.
    out = run_cli("estimate-cstar", "--problem", "toy-eq-1", "--penalty", "al-hpr",
                  "--lambda", "0", "--c-lo", "1", "--c-hi", "64", "--starts", "8")
    assert out.returncode == 2
    assert "not found" in out.stderr


def test_gradcheck_smooth_penalty():
    out = run_cli("gradcheck", "--problem", "toy-eq-1", "--penalty", "al-hpr",
                  "--c", "4", "--points", "10")
    assert out.returncode == 0


def test_localize_json(tmp_path):
    dest = tmp_path / "report.json"
    out = run_cli("localize", "--problem", "toy-lin-1", "--penalty", "linear",
                  "--c-min", "0.5", "--c-max", "32", "--c-steps", "6",
                  "--starts", "8", "--out", str(dest))
    assert out.returncode == 0
    doc = json.loads(dest.read_text())
    assert doc["verdicts"]["penalty_type"] is True


def test_config_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c-steps": 4, "starts": 8, "c-max": 8.0}))
    dest = tmp_path / "sweep.csv"
    out = run_cli("sweep", "--problem", "toy-lin-1", "--penalty", "linear",
                  "--config", str(cfg), "--out", str(dest))
    assert out.returncode == 0
    assert len(dest.read_text().strip().split("\n")) == 5


def _write_config(tmp_path, values):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(values))
    return str(path)


SOCP_SWEEP = ("sweep", "--problem", "toy-socp-1", "--penalty", "c1-socp",
              "--c-min", "0.5", "--c-max", "8", "--c-steps", "2", "--starts", "2")


def test_config_kappa_matches_flag(tmp_path):
    from_config = run_cli(*SOCP_SWEEP, "--config", _write_config(tmp_path, {"kappa": 3}))
    from_flag = run_cli(*SOCP_SWEEP, "--kappa", "3")
    default = run_cli(*SOCP_SWEEP)
    assert from_config.returncode == from_flag.returncode == default.returncode == 0
    assert from_config.stdout == from_flag.stdout
    assert from_config.stdout != default.stdout


def test_config_json_boolean_matches_flag(tmp_path):
    args = ("estimate-cstar", "--problem", "toy-lin-1", "--penalty", "linear",
            "--c-lo", "0.5", "--c-hi", "8", "--starts", "4")
    from_config = run_cli(*args, "--config", _write_config(tmp_path, {"strict": False}))
    from_flag = run_cli(*args, "--strict", "false")
    assert from_config.returncode == from_flag.returncode == 0, from_config.stderr
    assert from_config.stdout == from_flag.stdout


def test_config_lambda_matches_flag(tmp_path):
    args = ("estimate-cstar", "--problem", "toy-eq-1", "--penalty", "al-hpr",
            "--c-lo", "1", "--c-hi", "64", "--starts", "8")
    from_config = run_cli(*args, "--config", _write_config(tmp_path, {"lambda": "0"}))
    from_flag = run_cli(*args, "--lambda", "0")
    assert from_config.returncode == from_flag.returncode == 2
    assert from_config.stdout == from_flag.stdout


def test_config_unknown_key_exit_3(tmp_path):
    out = run_cli("sweep", "--problem", "toy-lin-1", "--penalty", "linear",
                  "--c-steps", "2", "--starts", "1",
                  "--config", _write_config(tmp_path, {"startz": 8}))
    assert out.returncode == 3
    assert "startz" in out.stderr


def test_config_ill_typed_value_exit_3(tmp_path):
    for values in ({"starts": "many"}, {"c-max": "big"}):
        out = run_cli("sweep", "--problem", "toy-lin-1", "--penalty", "linear",
                      "--c-steps", "2", "--starts", "1",
                      "--config", _write_config(tmp_path, values))
        assert out.returncode == 3, values
        assert "Traceback" not in out.stderr


def test_config_explicit_flag_wins(tmp_path):
    dest = tmp_path / "sweep.csv"
    out = run_cli("sweep", "--problem", "toy-lin-1", "--penalty", "linear", "--c-steps", "3",
                  "--config", _write_config(tmp_path, {"c-steps": 5, "starts": 4, "c_max": 8.0}),
                  "--out", str(dest))
    assert out.returncode == 0
    lines = dest.read_text().strip().split("\n")
    assert len(lines) == 4
    assert float(lines[-1].split(",")[0]) == 8.0


def test_gradcheck_gives_up_when_f_is_never_finite():
    # With alpha = 1e-14 the barrier domain of the C1 penalty misses every draw.
    out = subprocess.run(
        [sys.executable, "-m", "epflab.cli", "gradcheck", "--problem", "toy-eq-1",
         "--penalty", "c1-socp", "--alpha", "1e-14", "--points", "1"],
        capture_output=True, text=True, timeout=60, env=CLI_ENV,
    )
    assert out.returncode == 2
    assert "checked 0 of 1 points" in out.stderr


def test_localize_al_hpr_lambda_length_exit_3():
    # toy-lin-1 has one 2-entry SOC block and no equality, so --lambda takes two entries.
    for lam in ("1", "1,5,0"):
        out = run_cli("localize", "--problem", "toy-lin-1", "--penalty", "al-hpr", "--lambda", lam,
                      "--c-steps", "4", "--starts", "2")
        assert out.returncode == 3, lam
        assert "Traceback" not in out.stderr


def test_check_kkt_non_finite_input_exit_3():
    for flag, value in (("--x", "nan,1"), ("--x", "inf,1"), ("--lambda", "nan,2")):
        args = {"--x": "1,1", "--lambda": "-2,2", flag: value}
        out = run_cli("check-kkt", "--problem", "toy-socp-1", *[a for kv in args.items() for a in kv])
        assert out.returncode == 3, (flag, value, out.stdout)
        assert "kkt_residual" not in out.stdout


def test_check_kkt_nan_residual_exit_2():
    # Finite entries whose products overflow give a residual that is not
    # finite, which fails, on an SOC problem and on an SDP problem alike.  On
    # toy-socp-1 it is inf: both points lie on the Lorentz cone's boundary,
    # at distance 0, and the stationarity term overflows.
    for problem, x, lam, shown in (("toy-socp-1", "1e308,1e308", "-1e308,1e308", "inf"),
                                   ("toy-sdp-1", "1e308,-1e308", "1e308,0,0,1e308", "nan")):
        out = run_cli("check-kkt", "--problem", problem, "--x", x, "--lambda", lam)
        assert out.returncode == 2, (problem, out.stderr)
        assert f"kkt_residual = {shown}" in out.stdout, problem
        assert "RuntimeWarning" not in out.stderr, (problem, out.stderr)


def test_check_kkt_mu_length_exit_3():
    for problem, mu in (("toy-eq-1", "1,2"), ("toy-socp-1", "5")):
        out = run_cli("check-kkt", "--problem", problem, "--x", "1,1", "--mu", mu)
        assert out.returncode == 3, (problem, mu)
        assert "--mu" in out.stderr


def test_penalty_lambda_non_finite_exit_3():
    out = run_cli("gradcheck", "--problem", "toy-lin-1", "--penalty", "al-hpr", "--lambda", "nan,0",
                  "--points", "1")
    assert out.returncode == 3


def test_gradcheck_points_below_one_exit_3():
    out = run_cli("gradcheck", "--problem", "toy-eq-1", "--penalty", "al-hpr", "--points", "0")
    assert out.returncode == 3
    assert "checked" not in out.stdout


def test_penalty_option_the_kind_does_not_read_exit_3(tmp_path):
    base = ("estimate-cstar", "--problem", "toy-lin-1", "--c-lo", "0.5", "--c-hi", "8",
            "--starts", "2")
    for extra, option in ((("--penalty", "linear", "--q", "2"), "q"),
                          (("--penalty", "linear", "--config", _write_config(tmp_path, {"q": 2})),
                           "q"),
                          (("--penalty", "c1-socp", "--lambda", "1"), "--lambda")):
        out = run_cli(*base, *extra)
        assert out.returncode == 3, (extra, out.stderr)
        assert option in out.stderr and "Traceback" not in out.stderr
        assert out.stdout == ""


def test_penalty_that_does_not_fit_the_problem_exit_3():
    # toy-lin-1's objective is negative on part of its box, which qorder does not allow.
    out = run_cli("estimate-cstar", "--problem", "toy-lin-1", "--penalty", "qorder", "--starts", "2")
    assert out.returncode == 3
    assert "f >= 0 on the whole box" in out.stderr and "Traceback" not in out.stderr


def test_cone_multiplier_layout_errors_exit_3():
    # --lambda lists the SOC blocks' entries, then the SDP matrix row-major, which must
    # be symmetric; a wrong count or an asymmetric matrix is an input error.
    for args, message in ((("gradcheck", "--problem", "toy-sdp-1", "--penalty", "al-hpr",
                            "--lambda", "1,2,0,0", "--points", "1"), "symmetric"),
                          (("check-kkt", "--problem", "toy-sdp-1", "--x", "0.5,1",
                            "--lambda", "1,2,0,0"), "symmetric"),
                          (("check-kkt", "--problem", "toy-socp-1", "--x", "1,1",
                            "--lambda", "-2,2,0"), "takes 2 cone multiplier entries")):
        out = run_cli(*args)
        assert out.returncode == 3, (args, out.stderr)
        assert message in out.stderr and "Traceback" not in out.stderr, args
        assert out.stdout == "", args


def test_localize_builds_the_penalty_once(monkeypatch, tmp_path):
    built, parsed = [], []
    make_penalty, penalty_kwargs = cli.make_penalty, cli._penalty_kwargs

    def counting_make_penalty(*args, **kwargs):
        built.append(args[1])
        return make_penalty(*args, **kwargs)

    def counting_penalty_kwargs(*args):
        parsed.append(args[0]["lam"])
        return penalty_kwargs(*args)

    monkeypatch.setattr(cli, "make_penalty", counting_make_penalty)
    monkeypatch.setattr(report, "make_penalty", counting_make_penalty)
    monkeypatch.setattr(cli, "_penalty_kwargs", counting_penalty_kwargs)
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli.main, [
        "localize", "--problem", "toy-lin-1", "--penalty", "al-hpr", "--lambda", "-1,0",
        "--starts", "2", "--c-max", "8", "--c-steps", "4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["params"] == {"lambda_0": -1.0, "lambda_1": 0.0}
    assert built == ["al-hpr"] and parsed == ["-1,0"]


# toy-lin-1's al-hpr takes two --lambda entries; one does not fit the problem.
@pytest.mark.parametrize("extra", [("--problem", "toy-lin-1", "--penalty", "al-hpr",
                                    "--lambda", "1"),
                                   ("--problem", "toy-lin-1", "--penalty", "linear", "--q", "2")],
                         ids=["unfitting-penalty", "unread-option"])
def test_localize_rejects_penalty_before_solving(monkeypatch, extra):
    def no_sweep(*args, **kwargs):
        raise AssertionError("solved before the penalty was checked")

    monkeypatch.setattr(report, "c_sweep", no_sweep)
    monkeypatch.setattr(sys, "argv", ["epflab", "localize", *extra, "--starts", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3


def _run_in_process(monkeypatch, capsys, args):
    """Exit code and standard error of ``epflab *args``, run in this process."""
    monkeypatch.setattr(sys, "argv", ["epflab", *args])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    return exc.value.code, capsys.readouterr().err


_C1_SOCP = ("--problem", "toy-socp-1", "--penalty", "c1-socp")
_GRADCHECK = ("gradcheck", "--problem", "toy-socp-1", "--points", "3", "--penalty")
_CSTAR = ("estimate-cstar", "--problem", "toy-socp-1", "--penalty", "linear", "--starts", "2")
_SWEEP = ("sweep", "--problem", "toy-socp-1", "--penalty", "linear", "--starts", "2")


# A NaN or infinite penalty parameter, c or c bracket is an input error
# (exit 3), never a predicate that fails (exit 2) or a report of +inf F.
@pytest.mark.parametrize("command,option,value", [
    (("localize", *_C1_SOCP), "--alpha", "nan"),
    (("localize", *_C1_SOCP), "--alpha", "inf"),
    ((*_GRADCHECK, "c1-socp"), "--kappa", "nan"),
    ((*_GRADCHECK, "c1-socp"), "--kappa", "inf"),
    ((*_GRADCHECK, "c1-socp"), "--zeta1", "nan"),
    ((*_GRADCHECK, "c1-socp"), "--zeta2", "inf"),
    ((*_GRADCHECK, "qorder"), "--q", "nan"),
    ((*_GRADCHECK, "qorder"), "--q", "inf"),
    ((*_GRADCHECK, "linear"), "--c", "nan"),
    ((*_GRADCHECK, "al-hpr"), "--c", "inf"),
    (_CSTAR, "--c-hi", "inf"),
    (_CSTAR, "--c-lo", "nan"),
    (_SWEEP, "--c-max", "inf"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v.lstrip("-"))
def test_non_finite_input_exit_3(monkeypatch, capsys, command, option, value):
    code, err = _run_in_process(monkeypatch, capsys, (*command, option, value))
    assert code == 3, err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("problem,kind", [("toy-socp-1", "c1-sdp"), ("toy-sdp-1", "c1-socp")])
def test_c1_kind_on_the_other_cone_exit_3_before_any_evaluation(monkeypatch, capsys, problem, kind):
    def evaluated(*args, **kwargs):
        raise AssertionError("F evaluated before the cone was checked")

    monkeypatch.setattr(harness, "c1_state", evaluated)
    code, err = _run_in_process(monkeypatch, capsys, ("estimate-cstar", "--problem", problem,
                                                      "--penalty", kind, "--starts", "2"))
    assert code == 3, err
    assert f"{kind} does not fit {problem}" in err
