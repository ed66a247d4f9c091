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


def _apply_config(ctx: click.Context, config: Optional[str], values: dict) -> dict:
    """Overlay JSON config values onto options left at their defaults."""
    if config is None:
        return values
    try:
        with open(config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config {config}: {exc}")
    from click.core import ParameterSource

    for key, val in overrides.items():
        name = key.replace("-", "_")
        if name in values and ctx.get_parameter_source(name) == ParameterSource.DEFAULT:
            values[name] = val
    return values


def _penalty_kwargs(penalty, q, alpha, kappa, zeta1, zeta2, lam, problem=None):
    kwargs = {"q": q, "alpha": alpha, "zeta1": zeta1, "zeta2": zeta2}
    if kappa is not None:
        kwargs["kappa"] = kappa
    if penalty == "al-hpr" and lam is not None:
        # The CSV covers inequality multipliers first (one per scalar
        # inequality), then equality multipliers.
        n_ineq = 0 if problem is None else sum(1 for b in problem.soc_blocks if b.scalar)
        if n_ineq:
            kwargs["lam"] = lam[:n_ineq]
        if lam.shape[0] > n_ineq:
            kwargs["mu"] = lam[n_ineq:]
    return kwargs


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


def _common_penalty_options(fn):
    fn = click.option("--penalty", type=click.Choice(PENALTY_KINDS), required=True)(fn)
    fn = click.option("--q", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--alpha", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--kappa", type=float, default=None)(fn)
    fn = click.option("--zeta1", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--zeta2", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--lambda", "lam", type=str, default=None,
                      help="comma-separated tuning multipliers (al-hpr)")(fn)
    return fn


@main.command()
@click.option("--problem", required=True)
@_common_penalty_options
@click.option("--c-min", type=float, default=0.5, show_default=True)
@click.option("--c-max", type=float, default=1024.0, show_default=True)
@click.option("--c-steps", type=int, default=12, show_default=True)
@click.option("--starts", type=int, default=32, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--config", type=click.Path(exists=False), default=None,
              help="JSON file with defaults for any of the above options")
@click.pass_context
def sweep(ctx, problem, penalty, q, alpha, kappa, zeta1, zeta2, lam, c_min, c_max,
          c_steps, starts, seed, out, config):
    """Minimize F(., c) along a geometric c grid and emit a CSV."""
    values = _apply_config(ctx, config, dict(
        c_min=c_min, c_max=c_max, c_steps=c_steps, starts=starts, seed=seed,
        q=q, alpha=alpha, zeta1=zeta1, zeta2=zeta2,
    ))
    prob = get_problem(problem)
    handle = make_penalty(prob, penalty, **_penalty_kwargs(
        penalty, values["q"], values["alpha"], kappa, values["zeta1"], values["zeta2"],
        _parse_csv(lam), prob))
    cfg = SolverConfig(n_starts=int(values["starts"]), seed=int(values["seed"]))
    grid = geometric_grid(values["c_min"], values["c_max"], int(values["c_steps"]))
    records = c_sweep(handle, grid, cfg)
    text = sweep_to_csv(records, prob.dim)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command("estimate-cstar")
@click.option("--problem", required=True)
@_common_penalty_options
@click.option("--c-lo", type=float, default=0.5, show_default=True)
@click.option("--c-hi", type=float, default=1024.0, show_default=True)
@click.option("--tol-rel", type=float, default=0.02, show_default=True)
@click.option("--strict", type=click.Choice(["true", "false"]), default="true", show_default=True)
@click.option("--starts", type=int, default=32, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--config", type=click.Path(exists=False), default=None)
@click.pass_context
def estimate_cstar_cmd(ctx, problem, penalty, q, alpha, kappa, zeta1, zeta2, lam,
                       c_lo, c_hi, tol_rel, strict, starts, seed, out, config):
    """Bisect for the least exact penalty parameter."""
    values = _apply_config(ctx, config, dict(
        c_lo=c_lo, c_hi=c_hi, tol_rel=tol_rel, starts=starts, seed=seed,
        q=q, alpha=alpha, zeta1=zeta1, zeta2=zeta2,
    ))
    prob = get_problem(problem)
    handle = make_penalty(prob, penalty, **_penalty_kwargs(
        penalty, values["q"], values["alpha"], kappa, values["zeta1"], values["zeta2"],
        _parse_csv(lam), prob))
    cfg = SolverConfig(n_starts=int(values["starts"]), seed=int(values["seed"]))
    result = estimate_c_star(
        handle, values["c_lo"], values["c_hi"], tol_rel=values["tol_rel"],
        cfg=cfg, strict=(strict == "true"),
    )
    payload = {
        "problem": prob.name,
        "penalty": penalty,
        "strict": strict == "true",
        "c_star": result.c_star,
        "history": [[c, ok] for c, ok in result.history],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
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
            lam = []
            offset = 0
            for k in sizes:
                lam.append(lam_flat[offset : offset + k])
                offset += k
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
@click.option("--problem", required=True)
@_common_penalty_options
@click.option("--c", type=float, default=10.0, show_default=True)
@click.option("--points", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def gradcheck(problem, penalty, q, alpha, kappa, zeta1, zeta2, lam, c, points, seed):
    """Finite-difference smoothness check of F(., c) on random box points."""
    prob = get_problem(problem)
    handle = make_penalty(prob, penalty, **_penalty_kwargs(
        penalty, q, alpha, kappa, zeta1, zeta2, _parse_csv(lam), prob))
    rng = np.random.default_rng(seed)
    lower, upper = prob.box()
    checked = 0
    worst_jump = 0.0
    while checked < points:
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
    click.echo(f"checked {checked} points, worst gradient jump ratio {worst_jump:.3e}")
    if worst_jump > 10.0:
        sys.exit(2)


@main.command("localize")
@click.option("--problem", required=True)
@_common_penalty_options
@click.option("--c-min", type=float, default=0.5, show_default=True)
@click.option("--c-max", type=float, default=1024.0, show_default=True)
@click.option("--c-steps", type=int, default=12, show_default=True)
@click.option("--starts", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--config", type=click.Path(exists=False), default=None)
@click.pass_context
def localize_cmd(ctx, problem, penalty, q, alpha, kappa, zeta1, zeta2, lam,
                 c_min, c_max, c_steps, starts, seed, out, config):
    """Run the full localization battery and emit an ExactnessReport."""
    values = _apply_config(ctx, config, dict(
        c_min=c_min, c_max=c_max, c_steps=c_steps, starts=starts, seed=seed,
        q=q, alpha=alpha, zeta1=zeta1, zeta2=zeta2,
    ))
    prob = get_problem(problem)
    cfg = SolverConfig(n_starts=int(values["starts"]), seed=int(values["seed"]))
    rep = localize(
        prob, penalty, cfg=cfg,
        c_min=values["c_min"], c_max=values["c_max"], c_steps=int(values["c_steps"]),
        **_penalty_kwargs(penalty, values["q"], values["alpha"], kappa,
                          values["zeta1"], values["zeta2"], _parse_csv(lam), prob),
    )
    text = serialize_report(rep)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
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
