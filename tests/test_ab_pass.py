"""tools/ab_pass.py runs a workload with two trees and compares their answers."""

import argparse
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _ab_pass():
    spec = importlib.util.spec_from_file_location("ab_pass", ROOT / "tools" / "ab_pass.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_of_a_tree_against_itself(capsys):
    src = str(ROOT / "src")
    ab_pass = _ab_pass()
    assert ab_pass.main([src, src, "--workload", "classic-battery", "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    # One line per pair, in the workload's order, with each side's median.
    pairs = [line for line in out if line.startswith("pair ")]
    workload = ab_pass.WORKLOADS["classic-battery"]
    names = [f"pair {problem}/{penalty}: " for problem, penalty in workload.pairs]
    assert len(pairs) == len(names) and all(map(str.startswith, pairs, names))
    assert all(" s, new median " in line and line.endswith("%)") for line in pairs)
    assert out[0].startswith("round 0: base ")
    shas = [line.rsplit(" ", 1)[1] for line in out if "answers sha256" in line]
    assert len(shas) == 2 and shas[0] == shas[1]
    assert "failed tasks 0" in out[1] and "failed tasks 0" in out[2]
    assert out[-1].endswith("answers same")


def test_seed_lists_print_one_answers_hash_per_seed_and_side(capsys):
    src = str(ROOT / "src")
    ab_pass = _ab_pass()
    assert ab_pass.main([src, src, "--workload", "classic-battery", "--rounds", "1",
                         "--seed", "0,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    shas = {}
    for side in ("base", "new"):
        summary = next(line for line in out if line.startswith(f"{side}: median "))
        assert summary.endswith("failed tasks 0")
        for seed in (0, 1):
            line = next(line for line in out if line.startswith(f"{side} seed {seed}: "))
            shas[side, seed] = line.split("answers sha256 ")[1]
    assert shas["base", 0] == shas["new", 0] and shas["base", 1] == shas["new", 1]
    assert shas["base", 0] != shas["base", 1]
    assert out[-1].endswith("answers same")


def test_seed_list_parsing():
    ab_pass = _ab_pass()
    assert ab_pass.seed_list("7") == [7]
    assert ab_pass.seed_list("0,1,2,3") == [0, 1, 2, 3]
    for text in ("", "0,,1", "a", "1.5"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab_pass.seed_list(text)


def test_a_tree_against_itself_prints_equal_f_evaluation_counts(capsys):
    src = str(ROOT / "src")
    ab_pass = _ab_pass()
    assert ab_pass.main([src, src, "--workload", "classic-battery", "--rounds", "1",
                         "--seed", "0,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    counts = {}
    for seed in (0, 1):
        line = next(line for line in out if line.startswith(f"F evaluations seed {seed}: "))
        base, new = line.split(": ", 1)[1].split(" (")[0].split(", ")
        counts[seed] = int(base.removeprefix("base ")), int(new.removeprefix("new "))
        assert line.endswith("(+0.0%)")
    assert counts[0][0] == counts[0][1] > 0 and counts[1][0] == counts[1][1] > 0
    assert counts[0] != counts[1]
