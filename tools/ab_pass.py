"""Compare two epflab source trees on one perfbench workload, in one process.

    python3 tools/ab_pass.py BASE_SRC NEW_SRC --workload classic-battery --rounds 10

BASE_SRC and NEW_SRC are ``src`` directories (each holding ``epflab/``),
for instance a clean checkout of the parent commit and this tree.  Both
are imported side by side under distinct package names, and each round
runs one pass of the workload with each of them, alternating which goes
first.  A pass is every (problem, penalty) pair of the workload once,
called as ``perfbench/workloads.py`` calls it (that module is only
imported), with the task seeds of pass index = round index, so both
sides of a round solve the same tasks.

It prints the CPU seconds (``time.process_time``) of each side per
round, each side's median and interquartile range, the median gap, the
rounds NEW won, the failed tasks per side (the workload's gate) and the
SHA-256 of each side's answers: the ``serialize_report`` text of every
``localize`` task, and ``(c_star, history, confirm)`` of every
``estimate_c_star`` task.  Equal hashes mean the two trees gave the same
answers bit for bit.  CPU time of one process is less noisy than wall
time on a shared host, but it is not the benchmark's ``wall_s``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, check, run_task, task_seed  # noqa: E402


def load_tree(src: Path, name: str):
    """Import ``src/epflab`` as the package ``name``; returns its modules as
    run_task wants them."""
    package = Path(src).resolve() / "epflab"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{part: importlib.import_module(f"{name}.{part}")
                              for part in ("harness", "problems", "report", "solvers")})


class _Recorder:
    """A module whose answer-returning function also feeds a hash."""

    def __init__(self, module, attr, digest, encode):
        self._module, self._attr, self._digest, self._encode = module, attr, digest, encode

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if name != self._attr:
            return fn

        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._digest.update(self._encode(out).encode("utf-8"))
            return out

        return recorded


def recording(lib, digest):
    """``lib`` with serialize_report and estimate_c_star feeding ``digest``."""
    cstar = lambda res: repr((res.c_star, res.history, res.confirm))
    return SimpleNamespace(
        harness=_Recorder(lib.harness, "estimate_c_star", digest, cstar),
        problems=lib.problems,
        report=_Recorder(lib.report, "serialize_report", digest, lambda text: text),
        solvers=lib.solvers)


def run_pass(lib, workload, seed, pass_index):
    """CPU seconds of one pass, and the number of tasks that failed the gate."""
    failed = 0
    start = time.process_time()
    for i, (problem, penalty) in enumerate(workload.pairs):
        outcome = run_task(lib, workload, problem, penalty, task_seed(seed, pass_index, i))
        failed += bool(check(workload, problem, penalty, outcome)[0])
    return time.process_time() - start, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="src directory of the base tree")
    parser.add_argument("new", type=Path, help="src directory of the tree under test")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="classic-battery")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workload = WORKLOADS[args.workload]
    sides = {"base": load_tree(args.base, "epflab_ab_base"),
             "new": load_tree(args.new, "epflab_ab_new")}
    digests = {side: hashlib.sha256() for side in sides}
    libs = {side: recording(lib, digests[side]) for side, lib in sides.items()}
    cpu = {side: [] for side in sides}
    failed = {side: 0 for side in sides}
    for r in range(args.rounds):
        order = ("base", "new") if r % 2 == 0 else ("new", "base")
        for side in order:
            seconds, bad = run_pass(libs[side], workload, args.seed, r)
            cpu[side].append(seconds)
            failed[side] += bad
        print(f"round {r}: base {cpu['base'][-1]:.3f} s, new {cpu['new'][-1]:.3f} s "
              f"({order[0]} first)", flush=True)
    wins = sum(n < b for b, n in zip(cpu["base"], cpu["new"]))
    for side in sides:
        q1, q3 = quartiles(cpu[side])
        print(f"{side}: median {statistics.median(cpu[side]):.3f} s, IQR {q3 - q1:.3f} s "
              f"({q1:.3f}-{q3:.3f}), failed tasks {failed[side]}, "
              f"answers sha256 {digests[side].hexdigest()}")
    gap = statistics.median(cpu["new"]) - statistics.median(cpu["base"])
    same = digests["base"].hexdigest() == digests["new"].hexdigest()
    print(f"median gap {gap:+.3f} s ({gap / statistics.median(cpu['base']):+.1%}), "
          f"new faster in {wins} of {args.rounds} rounds, answers {'same' if same else 'DIFFER'}")
    return 0 if same and not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
