"""Compare two epflab source trees on perfbench workloads, in one process.

    python3 tools/ab_pass.py BASE_SRC NEW_SRC --workload classic-battery --rounds 10
    python3 tools/ab_pass.py BASE_SRC NEW_SRC --workload all --rounds 1 --seed 0,1,2,3
    python3 tools/ab_pass.py BASE_SRC NEW_SRC --workload c1-battery --pair toy-socp-1/c1-socp

BASE_SRC and NEW_SRC are ``src`` directories (each holding ``epflab/``),
for instance a clean checkout of the parent commit and this tree.  Both
are imported side by side under distinct package names, and each round
runs one pass of the workload with each of them, alternating which goes
first.  A pass is every (problem, penalty) pair of the workload once,
called as ``perfbench/workloads.py`` calls it (that module is only
imported), with the task seeds of pass index = round index, so both
sides of a round solve the same tasks.  ``--seed`` takes one seed or a
comma-separated list; a round then runs one pass per seed on each side.
``--workload`` takes one workload, a comma-separated list, or ``all``
(every workload, in name order); each workload then runs its own rounds
and prints its own block, after a ``== workload NAME ==`` line when
there are several.  ``--pair PROBLEM/KIND`` (or a comma-separated list)
runs only the named pairs of each workload, each with the task seed it
has in a full pass; a pair that no workload runs, or a workload that
runs none of the named pairs, is an error.

It prints the CPU seconds (``time.process_time``) of each side per
round, each side's median and interquartile range, each pair's median
per side (so a change to one layer shows which pairs moved), the median
gap, the rounds NEW won, the failed tasks per side (the workload's gate)
and the SHA-256 of each side's answers, one per seed: the
``serialize_report`` text of every ``localize`` task, and
``(c_star, history, confirm)`` of every ``estimate_c_star`` task.  Equal
hashes mean the two trees gave the same answers bit for bit.  Per seed
it also prints each side's F evaluations over all rounds (calls of
``PenaltyHandle``), a count that does not depend on the host's speed,
and next to them its state computations (calls of a handle's ``state``,
the memo's misses): equal counts on both sides mean the two memos kept
the same points apart.
CPU time of one process is less noisy than wall time on a shared host,
but it is not the benchmark's ``wall_s``.
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
    lib = SimpleNamespace(**{part: importlib.import_module(f"{name}.{part}")
                             for part in ("harness", "problems", "report", "solvers")})
    lib.f_evals = counting_f(lib.harness.PenaltyHandle)
    lib.states = counting_states(lib.harness.PenaltyHandle)
    return lib


def counting_f(handle_class):
    """Make every F(x, c) of ``handle_class`` count itself; returns a
    function that gives the count so far."""
    call = handle_class.__call__
    count = 0

    def counted(self, x, c):
        nonlocal count
        count += 1
        return call(self, x, c)

    handle_class.__call__ = counted
    return lambda: count


def counting_states(handle_class):
    """Make every handle of ``handle_class`` built from now on count the
    calls of its ``state`` (the memo's misses); returns a function that
    gives the count so far."""
    init = handle_class.__init__
    count = 0

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        state = self.state

        def counted(x):
            nonlocal count
            count += 1
            return state(x)

        self.state = counted

    handle_class.__init__ = counted_init
    return lambda: count


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
        solvers=lib.solvers,
        f_evals=lib.f_evals,
        states=lib.states)


def run_pass(lib, workload, tasks, seed, pass_index):
    """CPU seconds of each task in one pass (``tasks`` holds the index of
    each pair to run in the workload), the number of tasks that failed the
    gate, and the F evaluations and state computations of the pass."""
    failed = 0
    seconds = []
    evals, states = lib.f_evals(), lib.states()
    for i in tasks:
        problem, penalty = workload.pairs[i]
        start = time.process_time()
        outcome = run_task(lib, workload, problem, penalty, task_seed(seed, pass_index, i))
        seconds.append(time.process_time() - start)
        failed += bool(check(workload, problem, penalty, outcome)[0])
    return seconds, failed, lib.f_evals() - evals, lib.states() - states


def seed_list(text):
    """The seeds of ``--seed``: one integer or a comma-separated list."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers separated by commas, got {text!r}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def workload_list(text):
    """The workloads of ``--workload``: one name, a comma-separated list, or ``all``."""
    names = sorted(WORKLOADS) if text == "all" else text.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(sorted(WORKLOADS))}, a comma-separated list, or all")
    return names


def pair_list(text):
    """The pairs of ``--pair``: PROBLEM/KIND or a comma-separated list, each
    run by some workload."""
    known = {pair for workload in WORKLOADS.values() for pair in workload.pairs}
    pairs = [tuple(part.split("/")) for part in text.split(",")]
    unknown = ["/".join(pair) for pair in pairs if pair not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown pair {', '.join(map(repr, unknown))}; choose PROBLEM/KIND from "
            f"{', '.join(sorted('/'.join(pair) for pair in known))}, or a comma-separated list")
    return pairs


def compare(sides, workload, tasks, rounds, seeds):
    """Run ``rounds`` rounds of the tasks (pair indices) of one workload on
    both sides and print its block; returns whether the answers are the
    same and no task failed."""
    digests = {side: {seed: hashlib.sha256() for seed in seeds} for side in sides}
    libs = {side: {seed: recording(lib, digests[side][seed]) for seed in seeds}
            for side, lib in sides.items()}
    cpu = {side: [] for side in sides}
    per_pair = {side: [] for side in sides}
    failed = {side: 0 for side in sides}
    f_evals = {side: {seed: 0 for seed in seeds} for side in sides}
    states = {side: {seed: 0 for seed in seeds} for side in sides}
    for r in range(rounds):
        order = ("base", "new") if r % 2 == 0 else ("new", "base")
        for side in order:
            passes = [run_pass(libs[side][seed], workload, tasks, seed, r) for seed in seeds]
            seconds = [sum(pair) for pair in zip(*(pair_seconds for pair_seconds, *_ in passes))]
            per_pair[side].append(seconds)
            cpu[side].append(sum(seconds))
            failed[side] += sum(bad for _, bad, *_ in passes)
            for seed, (_, _, evals, misses) in zip(seeds, passes):
                f_evals[side][seed] += evals
                states[side][seed] += misses
        print(f"round {r}: base {cpu['base'][-1]:.3f} s, new {cpu['new'][-1]:.3f} s "
              f"({order[0]} first)", flush=True)
    wins = sum(n < b for b, n in zip(cpu["base"], cpu["new"]))
    shas = {side: {seed: digest.hexdigest() for seed, digest in digests[side].items()}
            for side in sides}
    for side in sides:
        q1, q3 = quartiles(cpu[side])
        summary = (f"{side}: median {statistics.median(cpu[side]):.3f} s, IQR {q3 - q1:.3f} s "
                   f"({q1:.3f}-{q3:.3f}), failed tasks {failed[side]}")
        if len(seeds) == 1:
            print(f"{summary}, answers sha256 {shas[side][seeds[0]]}")
            continue
        print(summary)
        for seed in seeds:
            print(f"{side} seed {seed}: answers sha256 {shas[side][seed]}")
    for seed in seeds:
        base, new = f_evals["base"][seed], f_evals["new"][seed]
        print(f"F evaluations seed {seed}: base {base}, new {new} ({(new - base) / base:+.1%})")
        base, new = states["base"][seed], states["new"][seed]
        print(f"states seed {seed}: base {base}, new {new} ({(new - base) / base:+.1%})")
    for k, i in enumerate(tasks):
        problem, penalty = workload.pairs[i]
        base, new = (statistics.median(rounds[k] for rounds in per_pair[side]) for side in sides)
        print(f"pair {problem}/{penalty}: base median {base:.3f} s, new median {new:.3f} s "
              f"({(new - base) / base:+.1%})")
    gap = statistics.median(cpu["new"]) - statistics.median(cpu["base"])
    same = shas["base"] == shas["new"]
    print(f"median gap {gap:+.3f} s ({gap / statistics.median(cpu['base']):+.1%}), "
          f"new faster in {wins} of {rounds} rounds, answers {'same' if same else 'DIFFER'}")
    return same and not any(failed.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="src directory of the base tree")
    parser.add_argument("new", type=Path, help="src directory of the tree under test")
    parser.add_argument("--workload", type=workload_list, default=["classic-battery"],
                        help="one workload, a comma-separated list, or all")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=seed_list, default=[0],
                        help="one seed or a comma-separated list, e.g. 0,1,2,3")
    parser.add_argument("--pair", type=pair_list, default=None,
                        help="run only these PROBLEM/KIND pairs, e.g. toy-socp-1/c1-socp")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    tasks = {name: [i for i, pair in enumerate(WORKLOADS[name].pairs)
                    if args.pair is None or pair in args.pair] for name in args.workload}
    for name, indices in tasks.items():
        if not indices:
            parser.error(f"workload {name} runs none of the pairs of --pair")
    sides = {"base": load_tree(args.base, "epflab_ab_base"),
             "new": load_tree(args.new, "epflab_ab_new")}
    ok = True
    for name in args.workload:
        if len(args.workload) > 1:
            print(f"== workload {name} ==", flush=True)
        ok &= compare(sides, WORKLOADS[name], tasks[name], args.rounds, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
