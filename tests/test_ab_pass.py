"""tools/ab_pass.py runs a workload with two trees and compares their answers."""

import argparse
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# One cheap pair of classic-battery and one of c1-battery: the output
# format of a whole pass, in a fraction of its time.
PAIRS = "toy-eq-1/linear,toy-sdp-1/linear"


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
                         "--seed", "0,1", "--pair", PAIRS]) == 0
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
                         "--seed", "0,1", "--pair", PAIRS]) == 0
    out = capsys.readouterr().out.splitlines()
    counts = {}
    for seed in (0, 1):
        line = next(line for line in out if line.startswith(f"F evaluations seed {seed}: "))
        base, new = line.split(": ", 1)[1].split(" (")[0].split(", ")
        counts[seed] = int(base.removeprefix("base ")), int(new.removeprefix("new "))
        assert line.endswith("(+0.0%)")
    assert counts[0][0] == counts[0][1] > 0 and counts[1][0] == counts[1][1] > 0
    assert counts[0] != counts[1]


def test_workload_list_parsing():
    ab_pass = _ab_pass()
    assert ab_pass.workload_list("classic-battery") == ["classic-battery"]
    assert ab_pass.workload_list("cstar-direct,classic-battery") == ["cstar-direct", "classic-battery"]
    assert ab_pass.workload_list("all") == sorted(ab_pass.WORKLOADS) == [
        "c1-battery", "classic-battery", "cstar-direct"]
    for text in ("", "classic", "classic-battery,", "all,classic-battery"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab_pass.workload_list(text)


def test_a_workload_list_prints_one_block_per_workload(capsys):
    src = str(ROOT / "src")
    ab_pass = _ab_pass()
    names = ["classic-battery", "c1-battery"]
    assert ab_pass.main([src, src, "--workload", ",".join(names), "--rounds", "1",
                         "--pair", PAIRS]) == 0
    out = capsys.readouterr().out.splitlines()
    starts = [i for i, line in enumerate(out) if line.startswith("== workload ")]
    assert [out[i] for i in starts] == [f"== workload {name} ==" for name in names]
    assert starts[0] == 0
    for name, start, end in zip(names, starts, starts[1:] + [len(out)]):
        block = out[start + 1:end]
        assert block[0].startswith("round 0: base ")
        pairs = [line for line in block if line.startswith("pair ")]
        named = set(ab_pass.pair_list(PAIRS)) & set(ab_pass.WORKLOADS[name].pairs)
        assert len(pairs) == len(named) == 1
        shas = [line.rsplit(" ", 1)[1] for line in block if "answers sha256" in line]
        assert len(shas) == 2 and shas[0] == shas[1]
        assert block[-1].endswith("answers same")


def test_pair_list_parsing():
    ab_pass = _ab_pass()
    assert ab_pass.pair_list("toy-socp-1/c1-socp") == [("toy-socp-1", "c1-socp")]
    assert ab_pass.pair_list("toy-eq-1/linear,toy-sdp-1/c1-sdp") == [("toy-eq-1", "linear"),
                                                                     ("toy-sdp-1", "c1-sdp")]
    for text in ("", "toy-socp-1", "toy-socp-1/", "toy-socp-1/c1-sdp", "toy-eq-1/linear/x",
                 "toy-eq-1/linear,", "no-such/linear"):
        with pytest.raises(argparse.ArgumentTypeError):
            ab_pass.pair_list(text)


def test_named_pairs_run_alone_with_their_task_seeds(capsys, monkeypatch):
    src = str(ROOT / "src")
    ab_pass = _ab_pass()
    seen = []
    run_task = ab_pass.run_task

    def recording(lib, workload, problem, penalty, seed):
        seen.append((problem, penalty, seed))
        return run_task(lib, workload, problem, penalty, seed)

    monkeypatch.setattr(ab_pass, "run_task", recording)
    pairs = [("toy-socp-2", "qorder"), ("toy-lin-1", "linear")]
    assert ab_pass.main([src, src, "--workload", "classic-battery", "--rounds", "1",
                         "--pair", ",".join(map("/".join, pairs))]) == 0
    out = capsys.readouterr().out.splitlines()
    # In the workload's order, each with the seed of its index in a full pass.
    workload = ab_pass.WORKLOADS["classic-battery"]
    index = {pair: i for i, pair in enumerate(workload.pairs)}
    expected = [(*pair, ab_pass.task_seed(0, 0, index[pair])) for pair in sorted(pairs, key=index.get)]
    assert seen == expected * 2
    assert [line.split(":")[0] for line in out if line.startswith("pair ")] == [
        f"pair {problem}/{penalty}" for problem, penalty, _ in expected]
    assert out[-1].endswith("answers same")


@pytest.mark.parametrize("argv", [["--pair", "toy-socp-1/c1-sdp"],
                                  ["--workload", "classic-battery", "--pair", "toy-sdp-1/c1-sdp"]])
def test_a_pair_that_cannot_run_is_an_argument_error(argv, capsys):
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as info:
        _ab_pass().main([src, src, *argv])
    assert info.value.code == 2
    assert "pair" in capsys.readouterr().err
