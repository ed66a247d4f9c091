"""Full localization battery and deterministic report serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import NonMonotonePredicate
from .harness import (
    MIN_SWEEP_RECORDS,
    SweepRecord,
    c_sweep,
    estimate_c_star,
    geometric_grid,
    local_exactness_probe,
    make_penalty,
    nondegeneracy_probe,
    penalty_type_probe,
    sublevel_bounded_probe,
)
from .problems import ConstrainedProblem
from .solvers import SolverConfig


@dataclass(frozen=True)
class ExactnessReport:
    problem: str
    penalty: str
    params: Tuple[Tuple[str, float], ...]
    seed: int
    c_star: Optional[float]
    penalty_type: bool
    nondegenerate: bool
    local_exact: bool
    sublevel_bounded: bool
    evidence: Tuple[SweepRecord, ...]

    @property
    def all_passed(self) -> bool:
        return (
            self.c_star is not None
            and self.penalty_type
            and self.nondegenerate
            and self.local_exact
            and self.sublevel_bounded
        )


def localize(
    problem: ConstrainedProblem,
    kind: str,
    cfg: SolverConfig = SolverConfig(),
    c_min: float = 0.5,
    c_max: float = 1024.0,
    c_steps: int = 12,
    tol_rel: float = 0.02,
    **penalty_kwargs,
) -> ExactnessReport:
    """Run the whole localization battery for one problem/penalty pair."""
    if c_steps < MIN_SWEEP_RECORDS:
        raise ValueError(f"need at least {MIN_SWEEP_RECORDS} sweep records, got c_steps={c_steps}")
    cert = problem.certificate
    if cert is None:
        raise ValueError(f"{problem.name} carries no certificate")
    penalty = make_penalty(problem, kind, **penalty_kwargs)
    grid = geometric_grid(c_min, c_max, c_steps)
    records = c_sweep(penalty, grid, cfg)
    ptype = penalty_type_probe(records)
    nondeg = nondegeneracy_probe(records)
    local = local_exactness_probe(penalty, cert.x_star, grid[-1], seed=cfg.seed)
    sublevel = sublevel_bounded_probe(penalty, grid[-1], cert.f_star, seed=cfg.seed)
    # Bisect between the last failing grid c and the next one; with no
    # failing record the bracket's low end passes, with a failing last
    # record its high end fails.  Both ends are judged from their records.
    failing = [i for i, r in enumerate(records) if not r.passes(cert)]
    j = min(failing[-1], len(grid) - 2) if failing else 0
    try:
        c_star = estimate_c_star(penalty, grid[j], grid[j + 1], tol_rel=tol_rel, cfg=cfg,
                                 sweep=records[j:j + 2]).c_star
    except NonMonotonePredicate:
        c_star = None
    return ExactnessReport(
        problem=problem.name,
        penalty=kind,
        params=tuple(sorted(penalty.params.items())),
        seed=cfg.seed,
        c_star=c_star,
        penalty_type=ptype,
        nondegenerate=nondeg,
        local_exact=local,
        sublevel_bounded=sublevel,
        evidence=tuple(records),
    )


# ---------------------------------------------------------------------------
# Serialization: deterministic, 17-significant-digit floats, exact
# round-trip.  Non-finite floats become tagged strings since JSON has no
# literal for them.
# ---------------------------------------------------------------------------


def _encode_float(v: float):
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def _parse_int(text: str):
    # _dump writes an integral float without a point, so JSON reads it as an
    # int; float() of that int is exact, except that -0 loses its sign.
    return -0.0 if text == "-0" else int(text)


def _decode_float(v) -> float:
    if isinstance(v, str):
        return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[v]
    return float(v)


def _record_to_dict(r: SweepRecord) -> dict:
    return {
        "c": _encode_float(r.c),
        "best_F": _encode_float(r.best_F),
        "best_x": [_encode_float(v) for v in r.best_x],
        "feas_gap": _encode_float(r.feasibility_gap_total),
        "dist_to_xstar": _encode_float(r.dist_to_xstar),
        "starts_agreeing": r.n_starts_agreeing,
        "failed": r.failed,
    }


def _record_from_dict(d: dict) -> SweepRecord:
    return SweepRecord(
        c=_decode_float(d["c"]),
        best_x=tuple(_decode_float(v) for v in d["best_x"]),
        best_F=_decode_float(d["best_F"]),
        feasibility_gap_total=_decode_float(d["feas_gap"]),
        dist_to_xstar=_decode_float(d["dist_to_xstar"]),
        n_starts_agreeing=int(d["starts_agreeing"]),
        failed=bool(d["failed"]),
    )


def report_to_dict(report: ExactnessReport) -> dict:
    return {
        "problem": report.problem,
        "penalty": report.penalty,
        "params": {k: _encode_float(v) for k, v in report.params},
        "seed": report.seed,
        "c_star": None if report.c_star is None else _encode_float(report.c_star),
        "verdicts": {
            "penalty_type": report.penalty_type,
            "nondegenerate": report.nondegenerate,
            "local_exact": report.local_exact,
            "sublevel_bounded": report.sublevel_bounded,
        },
        "evidence": [_record_to_dict(r) for r in report.evidence],
    }


def _dump(obj, indent: int) -> str:
    pad = "  " * indent
    child = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{child}{json.dumps(str(k))}: {_dump(v, indent + 1)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{child}{_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def serialize_report(report: ExactnessReport) -> str:
    """Deterministic JSON with every float written at 17 significant digits."""
    return _dump(report_to_dict(report), 0) + "\n"


def parse_report(text: str) -> ExactnessReport:
    d = json.loads(text, parse_int=_parse_int)
    verdicts = d["verdicts"]
    return ExactnessReport(
        problem=d["problem"],
        penalty=d["penalty"],
        params=tuple(sorted((k, _decode_float(v)) for k, v in d["params"].items())),
        seed=int(d["seed"]),
        c_star=None if d["c_star"] is None else _decode_float(d["c_star"]),
        penalty_type=bool(verdicts["penalty_type"]),
        nondegenerate=bool(verdicts["nondegenerate"]),
        local_exact=bool(verdicts["local_exact"]),
        sublevel_bounded=bool(verdicts["sublevel_bounded"]),
        evidence=tuple(_record_from_dict(r) for r in d["evidence"]),
    )


def sweep_to_csv(records: Sequence[SweepRecord], dim: int) -> str:
    """CSV rendering of a sweep; one best_x_<i> column per coordinate."""
    header = ["c", "best_F"] + [f"best_x_{i}" for i in range(dim)] + [
        "feas_gap",
        "dist_to_xstar",
        "starts_agreeing",
    ]
    lines = [",".join(header)]
    for r in records:
        row = [f"{r.c:.17g}", f"{r.best_F:.17g}"]
        row += [f"{v:.17g}" for v in r.best_x]
        row += [f"{r.feasibility_gap_total:.17g}", f"{r.dist_to_xstar:.17g}", str(r.n_starts_agreeing)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
