"""Command-line interface: `epflab <subcommand>`.

Exit codes: 0 on success, 2 when a checked predicate fails (KKT residual
too large, c* not found, battery verdict false), 3 on input errors.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Optional

import click
import numpy as np

from . import __version__
from .errors import EpflabError, UnknownProblem
from .harness import PENALTY_KINDS, estimate_c_star, c_sweep, geometric_grid, make_penalty
from .problems import fd_gradient, get_problem, kkt_residual, registry
from .report import localize, serialize_report, sweep_to_csv
from .solvers import SolverConfig


def _parse_csv(text: Optional[str]) -> Optional[np.ndarray]:
    if text is None or text == "":
        return None
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise click.UsageError(f"bad numeric list {text!r}: {exc}")


def _apply_config(ctx: click.Context) -> None:
    """Overlay the ``--config`` JSON object onto options left at their
    defaults.  Keys are long flag names without ``--`` (``-`` or ``_``
    between words); each value goes through its option's type as if typed
    on the command line."""
    path = ctx.params.get("config")
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(overrides, dict):
        raise click.UsageError(f"config {path} must hold a JSON object")
    options = {flag[2:].replace("-", "_"): opt for opt in ctx.command.params
               for flag in opt.opts if flag.startswith("--") and opt.name != "config"}
    for key, val in overrides.items():
        opt = options.get(key.replace("-", "_"))
        if opt is None:
            raise click.UsageError(f"config {path}: no option --{key} in '{ctx.command.name}'")
        value = opt.type_cast_value(ctx, str(val))
        if ctx.get_parameter_source(opt.name) == click.core.ParameterSource.DEFAULT:
            ctx.params[opt.name] = value


def _setup(ctx: click.Context):
    """Option values (after ``--config``), problem, penalty handle and solver
    config (None without ``--starts``) of a penalty command."""
    _apply_config(ctx)
    v = ctx.params
    prob = get_problem(v["problem"])
    handle = make_penalty(prob, v["penalty"], **_penalty_kwargs(v, prob))
    cfg = SolverConfig(n_starts=v["starts"], seed=v["seed"]) if "starts" in v else None
    return v, prob, handle, cfg


def _penalty_kwargs(v: dict, prob) -> dict:
    kwargs = {k: v[k] for k in ("q", "alpha", "kappa", "zeta1", "zeta2")}
    lam = _parse_csv(v["lam"])
    if v["penalty"] == "al-hpr" and lam is not None:
        # One multiplier per scalar inequality first, then one per equality.
        n_ineq = sum(1 for b in prob.soc_blocks if b.scalar)
        kwargs["lam"], kwargs["mu"] = lam[:n_ineq], lam[n_ineq:]
    return kwargs


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(version=__version__, prog_name="epflab")
def main():
    """Exact penalty and augmented Lagrangian toolbox."""


@main.command("list-problems")
def list_problems():
    """List benchmark problems and their certified optima."""
    for p in registry():
        cert = p.certificate
        line = f"{p.name:12s} dim={p.dim} penalties={','.join(p.penalties)}"
        if cert is not None:
            xs = ",".join(f"{v:g}" for v in cert.x_star)
            line += f" x*=({xs}) f*={cert.f_star:g}"
        click.echo(line)


def _penalty_options(fn):
    """The options every penalty command shares."""
    fn = click.option("--problem", required=True)(fn)
    fn = click.option("--penalty", type=click.Choice(PENALTY_KINDS), required=True)(fn)
    fn = click.option("--q", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--alpha", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--kappa", type=float, default=None)(fn)
    fn = click.option("--zeta1", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--zeta2", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--lambda", "lam", type=str, default=None,
                      help="comma-separated tuning multipliers (al-hpr)")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    return fn


_out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)
_config_option = click.option("--config", type=click.Path(exists=False), default=None,
                              help="JSON file setting any option of this command")


@main.command()
@_penalty_options
@click.option("--c-min", type=float, default=0.5, show_default=True)
@click.option("--c-max", type=float, default=1024.0, show_default=True)
@click.option("--c-steps", type=int, default=12, show_default=True)
@click.option("--starts", type=int, default=32, show_default=True)
@_out_option
@_config_option
@click.pass_context
def sweep(ctx, **_):
    """Minimize F(., c) along a geometric c grid and emit a CSV."""
    v, prob, handle, cfg = _setup(ctx)
    records = c_sweep(handle, geometric_grid(v["c_min"], v["c_max"], v["c_steps"]), cfg)
    _emit(sweep_to_csv(records, prob.dim), v["out"])


@main.command("estimate-cstar")
@_penalty_options
@click.option("--c-lo", type=float, default=0.5, show_default=True)
@click.option("--c-hi", type=float, default=1024.0, show_default=True)
@click.option("--tol-rel", type=float, default=0.02, show_default=True)
@click.option("--strict", type=click.Choice(["true", "false"]), default="true", show_default=True)
@click.option("--starts", type=int, default=32, show_default=True)
@_out_option
@_config_option
@click.pass_context
def estimate_cstar_cmd(ctx, **_):
    """Bisect for the least exact penalty parameter."""
    v, prob, handle, cfg = _setup(ctx)
    strict = v["strict"] == "true"
    result = estimate_c_star(handle, v["c_lo"], v["c_hi"], tol_rel=v["tol_rel"], cfg=cfg,
                             strict=strict)
    payload = {"problem": prob.name, "penalty": v["penalty"], "strict": strict,
               "c_star": result.c_star, "history": [[c, ok] for c, ok in result.history]}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", v["out"])
    if result.c_star is None:
        click.echo("c* not found in the tested bracket", err=True)
        sys.exit(2)


@main.command("check-kkt")
@click.option("--problem", required=True)
@click.option("--x", "x_csv", required=True, help="comma-separated point")
@click.option("--lambda", "lam_csv", default=None,
              help="stacked SOC multipliers, or row-major matrix for SDP problems")
@click.option("--mu", "mu_csv", default=None)
def check_kkt(problem, x_csv, lam_csv, mu_csv):
    """Evaluate the KKT residual at a given primal-dual candidate."""
    prob = get_problem(problem)
    x = _parse_csv(x_csv)
    if x is None or x.shape[0] != prob.dim:
        raise click.UsageError(f"--x needs {prob.dim} entries")
    lam_flat = _parse_csv(lam_csv)
    mu = _parse_csv(mu_csv)
    lam = None
    lam_sdp = None
    if lam_flat is not None:
        if prob.sdp_block is not None:
            order = prob.sdp_block.order
            if lam_flat.shape[0] != order * order:
                raise click.UsageError(f"--lambda needs {order * order} entries (row-major)")
            lam_sdp = lam_flat.reshape(order, order)
        else:
            sizes = [b.dim for b in prob.soc_blocks]
            if lam_flat.shape[0] != sum(sizes):
                raise click.UsageError(f"--lambda needs {sum(sizes)} stacked entries")
            lam = np.split(lam_flat, np.cumsum(sizes)[:-1])
    elif prob.soc_blocks:
        lam = [np.zeros(b.dim) for b in prob.soc_blocks]
    elif prob.sdp_block is not None:
        lam_sdp = np.zeros((prob.sdp_block.order,) * 2)
    if mu is None and prob.n_eq > 0:
        mu = np.zeros(prob.n_eq)
    res = kkt_residual(prob, x, lam=lam, mu=mu, lam_sdp=lam_sdp)
    click.echo(f"kkt_residual = {res:.12e}")
    if res > 1e-6:
        sys.exit(2)


@main.command()
@_penalty_options
@click.option("--c", type=float, default=10.0, show_default=True)
@click.option("--points", type=int, default=20, show_default=True)
@click.pass_context
def gradcheck(ctx, **_):
    """Finite-difference smoothness check of F(., c) on random box points."""
    v, prob, handle, _ = _setup(ctx)
    c, points = v["c"], v["points"]
    rng = np.random.default_rng(v["seed"])
    lower, upper = prob.box()
    checked = 0
    draws = 0
    worst_jump = 0.0
    # The draw budget per point of solvers._finite_starts.
    while checked < points and draws < 64 * points:
        draws += 1
        x = lower + rng.uniform(size=prob.dim) * (upper - lower)
        if not math.isfinite(handle(x, c)):
            continue
        try:
            g0 = fd_gradient(lambda z: handle(z, c), x, step=1e-6)
            g1 = fd_gradient(lambda z: handle(z, c), x + 1e-3 / math.sqrt(prob.dim), step=1e-6)
        except EpflabError:
            continue
        norm0 = float(np.linalg.norm(g0)) + 1e-12
        jump = float(np.linalg.norm(g1 - g0)) / norm0
        worst_jump = max(worst_jump, jump)
        checked += 1
    if checked < points:
        click.echo(f"checked {checked} of {points} points: F or its difference quotients "
                   f"were not finite at the other {draws - checked} draws", err=True)
        sys.exit(2)
    click.echo(f"checked {checked} points, worst gradient jump ratio {worst_jump:.3e}")
    if worst_jump > 10.0:
        sys.exit(2)


@main.command("localize")
@_penalty_options
@click.option("--c-min", type=float, default=0.5, show_default=True)
@click.option("--c-max", type=float, default=1024.0, show_default=True)
@click.option("--c-steps", type=int, default=12, show_default=True)
@click.option("--starts", type=int, default=16, show_default=True)
@_out_option
@_config_option
@click.pass_context
def localize_cmd(ctx, **_):
    """Run the full localization battery and emit an ExactnessReport."""
    v, prob, _, cfg = _setup(ctx)
    rep = localize(prob, v["penalty"], cfg=cfg, c_min=v["c_min"], c_max=v["c_max"],
                   c_steps=v["c_steps"], **_penalty_kwargs(v, prob))
    _emit(serialize_report(rep), v["out"])
    if not rep.all_passed:
        sys.exit(2)


def run():
    try:
        main(standalone_mode=False)
    except click.exceptions.Exit as exc:  # --help, --version
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(3)
    except (UnknownProblem, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except SystemExit:
        raise
    except EpflabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    run()
