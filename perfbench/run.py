"""epflab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload c1-battery --seed 0 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
no tracing and scaled to the host's speed (see speed.py); with
``--trace 1`` they are its per-layer metrics, from a traced pass
compared against an untraced pass of the same tasks.

A workload is a closed loop with one client: the next task starts when
the previous one returns.  Task cost depends strongly on the seed, so
compare two versions of the code only on the same seeds.  See
perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from speed import SpeedProbe, scaled_seconds, slowdown  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import PAIR_STARTS, WORKLOADS, check, run_task, task_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SPAWNS = 3


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import epflab from this checkout's src/, never from elsewhere."""
    if not (SRC / "epflab" / "__init__.py").is_file():
        fail(f"no epflab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import epflab
    import epflab.harness
    import epflab.problems
    import epflab.report
    import epflab.solvers

    if Path(epflab.__file__).resolve().parent != SRC / "epflab":
        fail(f"imported epflab from {epflab.__file__}, not from {SRC}")
    return SimpleNamespace(harness=epflab.harness, problems=epflab.problems,
                           report=epflab.report, solvers=epflab.solvers)


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _importtime_cumulative_s(stderr, module):
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    fail(f"{module} not found in -X importtime output")


def measure_setup(importtime):
    """Median cold start over SETUP_SPAWNS fresh interpreters; ``setup_s``
    is scaled to the host's speed, ``raw_setup_s`` is not."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(HERE / "setup_probe.py")]
    samples = []
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        probe = sample.pop("probe")
        sample["raw_setup_s"] = sample["import_s"] + sample["registry_s"]
        sample["setup_s"] = scaled_seconds(probe, sample.pop("begin"), sample.pop("end"))
        sample["setup_slowdown"] = slowdown(probe)
        if importtime:
            sample["scipy_stats_s"] = _importtime_cumulative_s(proc.stderr, "scipy.stats")
        samples.append(sample)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


@dataclass
class TaskResult:
    problem: str
    penalty: str
    seed: int
    begin: float
    seconds: float
    outcome: object
    failures: list
    notes: list
    scaled: float = float("nan")  # seconds scaled to host speed, untraced runs only


def run_pass(lib, wl, seed, pass_index, label, after_task=None):
    """Run every pair of the workload once, in order, one task at a time."""
    results = []
    for i, (problem, penalty) in enumerate(wl.pairs):
        s = task_seed(seed, pass_index, i)
        t0 = time.perf_counter()
        outcome = run_task(lib, wl, problem, penalty, s)
        elapsed = time.perf_counter() - t0
        if after_task is not None:
            after_task(i)
        failures, notes = check(wl, problem, penalty, outcome)
        results.append(TaskResult(problem, penalty, s, t0, elapsed, outcome, failures, notes))
        status = "FAIL " + "; ".join(failures) if failures else "ok"
        extra = "".join(f" [note: {n}]" for n in notes)
        print(f"{label} pass={pass_index} {problem}/{penalty} seed={s} {elapsed:.3f}s "
              f"c*={outcome.c_star} {status}{extra}", flush=True)
    return results


def pass_seconds(results):
    return sum(r.seconds for r in results)


def run_untraced(lib, wl, seed, seconds):
    """Whole passes, while another pass of the mean length still fits in
    ``seconds``, under a host-speed probe.  Fills in each task's scaled
    time; returns the passes and the probe record."""
    passes = []
    with SpeedProbe("mixed") as probe:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(lib, wl, seed, len(passes), "task"))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
    record = probe.record()
    for r in (r for p in passes for r in p):
        r.scaled = scaled_seconds(record, r.begin, r.begin + r.seconds)
    return passes, record


def run_traced(lib, wl, seed):
    """Pass 0 untraced, pass 0 traced, then task 0 traced again.

    Returns the tracer of the traced pass, both passes, and the list of
    determinism failures: traced and untraced answers must agree, and the
    repeated task must reproduce every count exactly.
    """
    untraced = run_pass(lib, wl, seed, 0, "untraced")
    tracer = Tracer()
    first_counts = {}

    def after_task(i):
        tracer.end_task()
        if i == 0:
            first_counts.update(tracer.counts())

    tracer.install()
    try:
        traced = run_pass(lib, wl, seed, 0, "traced", after_task)
    finally:
        tracer.uninstall()

    mismatches = [f"{u.problem}/{u.penalty}: untraced {u.outcome} != traced {t.outcome}"
                  for u, t in zip(untraced, traced) if u.outcome != t.outcome]

    again = Tracer()
    again.install()
    try:
        problem, penalty = wl.pairs[0]
        repeat = run_task(lib, wl, problem, penalty, traced[0].seed)
        again.end_task()
    finally:
        again.uninstall()
    if repeat != traced[0].outcome:
        mismatches.append(f"{problem}/{penalty}: repeat {repeat} != first {traced[0].outcome}")
    repeat_counts = again.counts()
    differing = sorted(k for k in set(first_counts) | set(repeat_counts)
                       if first_counts.get(k, 0) != repeat_counts.get(k, 0))
    if differing:
        mismatches.append(f"{problem}/{penalty}: counts differ on repeat: {differing}")
    for m in mismatches:
        print(f"determinism FAIL {m}", flush=True)
    print(f"determinism check: {len(untraced)} tasks traced vs untraced, "
          f"task 0 counts repeated: {'FAIL' if mismatches else 'ok'}", flush=True)
    return tracer, untraced, traced, mismatches


def emit(spec, key, values, correct, attempted, failed):
    """Print the result line, with exactly the metrics BENCHMARK.json lists under ``key``."""
    names = [m["name"] for m in spec[key]]
    if set(names) != set(values):
        fail(f"metrics differ from BENCHMARK.json {key}: "
             f"missing {sorted(set(names) - set(values))}, extra {sorted(set(values) - set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]

    lib = load_library()
    print(json.dumps({"env": environment()}), flush=True)
    print(f"workload {wl.name}: {wl.call} on {len(wl.pairs)} pairs, n_starts={wl.n_starts} "
          f"(overrides {PAIR_STARTS}), c in [{wl.c_lo}, {wl.c_hi}], c_steps={wl.c_steps}, "
          f"seed={args.seed}", flush=True)
    setup = measure_setup(importtime=bool(args.trace))

    if args.trace:
        tracer, untraced, traced, mismatches = run_traced(lib, wl, args.seed)
        failed = sum(1 for r in untraced + traced if r.failures)
        values = layer_metrics(tracer)
        values["setup.import_s"] = setup["import_s"]
        values["setup.registry_s"] = setup["registry_s"]
        values["setup.import.scipy.stats_s"] = setup["scipy_stats_s"]
        overhead = pass_seconds(traced) - pass_seconds(untraced)
        values["trace.overhead_s"] = overhead
        print(f"tracing overhead: traced wall_s {pass_seconds(traced):.3f} - untraced wall_s "
              f"{pass_seconds(untraced):.3f} = {overhead:.3f} s", flush=True)
        for name in sorted(values):
            print(f"  {name} = {values[name]}")
        emit(spec, "per_layer", values, correct=not failed and not mismatches,
             attempted=len(untraced) + len(traced) + 1, failed=failed)
        return

    passes, record = run_untraced(lib, wl, args.seed, args.seconds)
    tasks = [r for p in passes for r in p]
    failed = sum(1 for r in tasks if r.failures)
    task_times = [r.scaled for r in tasks]
    values = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(sum(r.scaled for r in p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n_notes = sum(1 for r in tasks if r.notes)
    print(f"setup_s     {values['setup_s']:.4f} s   median of {SETUP_SPAWNS} fresh interpreters, "
          f"scaled to host speed (raw {setup['raw_setup_s']:.4f} s, "
          f"host slowdown {setup['setup_slowdown']:.2f})")
    print(f"wall_s      {values['wall_s']:.4f} s   median of {len(passes)} passes, scaled to host "
          f"speed (raw {statistics.median(pass_seconds(p) for p in passes):.4f} s, host slowdown "
          f"{slowdown(record):.2f}, {len(record['start'])} probes)")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    # Printed, not in BENCHMARK.json: an order statistic of 6 to 27 tasks
    # follows the seed-dependent cost of single tasks, and failed_frac is 0
    # on every correct run.
    print(f"task_s.p50  {statistics.median(task_times):.4f} s   over {len(tasks)} tasks, scaled to host speed")
    print(f"task_s.max  {max(task_times):.4f} s   over {len(tasks)} tasks, scaled to host speed")
    print(f"failed_frac {failed / len(tasks):.4f}     {failed} of {len(tasks)} tasks failed the gate")
    print(f"notes       {n_notes} of {len(tasks)} tasks report c* below the analytic threshold")
    emit(spec, "end_to_end", values, correct=failed == 0, attempted=len(tasks), failed=failed)


if __name__ == "__main__":
    main()
