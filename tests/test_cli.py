import json
import os
import subprocess
import sys
from pathlib import Path

import epflab

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
    # toy-lin-1 has one scalar inequality and no equality, so --lambda takes one entry.
    out = run_cli("localize", "--problem", "toy-lin-1", "--penalty", "al-hpr", "--lambda", "1,5",
                  "--c-steps", "4", "--starts", "2")
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
