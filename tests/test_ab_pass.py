"""tools/ab_pass.py runs a workload with two trees and compares their answers."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab_pass():
    spec = importlib.util.spec_from_file_location("ab_pass", ROOT / "tools" / "ab_pass.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_of_a_tree_against_itself(capsys):
    src = str(ROOT / "src")
    assert _ab_pass().main([src, src, "--workload", "classic-battery", "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("round 0: base ")
    shas = [line.rsplit(" ", 1)[1] for line in out if "answers sha256" in line]
    assert len(shas) == 2 and shas[0] == shas[1]
    assert "failed tasks 0" in out[1] and "failed tasks 0" in out[2]
    assert out[-1].endswith("answers same")
