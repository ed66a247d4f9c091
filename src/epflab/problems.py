"""Constrained problem model and the benchmark registry.

A problem is  min f(x)  subject to  g_i(x) in Q_{l_i+1},  G(x) <= 0 (PSD
order),  h(x) = 0,  and  x in a box.  Every registry instance carries an
analytic certificate (optimum, value, multipliers where unique) which is
validated at load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .cones import dist_lorentz, dist_psd_minus
from .errors import DimensionMismatch, NonFiniteEvaluation, UnknownProblem

Array = np.ndarray


def fd_gradient(func, x, step: float | None = None) -> Array:
    """Central-difference gradient (or Jacobian for vector-valued func)."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    if step <= 0:
        raise ValueError("step must be positive")
    probe = np.asarray(func(x), dtype=float)
    cols = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        hi = np.asarray(func(x + e), dtype=float)
        lo = np.asarray(func(x - e), dtype=float)
        cols.append((hi - lo) / (2.0 * step))
    out = np.stack(cols, axis=-1)
    if not np.all(np.isfinite(out)):
        raise NonFiniteEvaluation("finite differences produced non-finite values")
    if probe.ndim == 0:
        return out.reshape(x.shape[0])
    return out


@dataclass(frozen=True)
class SocBlock:
    """One second-order cone constraint g(x) in Q_{dim}."""

    dim: int
    g: Callable[[Array], Array]
    jac: Callable[[Array], Array]

    def jacobian(self, x: Array) -> Array:
        return np.asarray(self.jac(x), dtype=float)


@dataclass(frozen=True)
class SdpBlock:
    """A matrix constraint G(x) <= 0 in the PSD order, G symmetric of given order."""

    order: int
    G: Callable[[Array], Array]
    # dG(x)[k] = dG/dx_k, one symmetric matrix per coordinate.
    dG: Callable[[Array], Sequence[Array]]

    def derivative(self, x: Array) -> list:
        return [np.asarray(m, dtype=float) for m in self.dG(x)]


@dataclass(frozen=True)
class KnownSolution:
    x_star: Array
    f_star: float
    lambda_star: Optional[Tuple[Array, ...]] = None
    mu_star: Optional[Array] = None
    lambda_sdp_star: Optional[Array] = None


@dataclass(frozen=True)
class FeasibilityGap:
    soc_gap: float
    eq_gap: float
    box_gap: float

    @property
    def total(self) -> float:
        return self.soc_gap + self.eq_gap + self.box_gap


@dataclass(frozen=True)
class ConstrainedProblem:
    """States its analytic derivatives and a finite box (README "Problem
    contract"); construction rejects a bad box or a partial equality part."""

    name: str
    dim: int
    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lower: Array
    upper: Array
    soc_blocks: Tuple[SocBlock, ...] = ()
    sdp_block: Optional[SdpBlock] = None
    eq: Optional[Callable[[Array], Array]] = None
    eq_jac: Optional[Callable[[Array], Array]] = None
    n_eq: int = 0
    certificate: Optional[KnownSolution] = None
    # Penalty kinds the harness should exercise on this instance.
    penalties: Tuple[str, ...] = ("linear",)

    def __post_init__(self):
        lower, upper = np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError(f"{self.name}: lower and upper must have shape ({self.dim},)")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all() and np.all(lower <= upper)):
            raise ValueError(f"{self.name}: the box must be finite with lower <= upper")
        given = {self.eq is not None, self.eq_jac is not None, self.n_eq > 0}
        if len(given) != 1 or self.n_eq < 0:
            raise ValueError(f"{self.name}: eq, eq_jac and n_eq > 0 must be given together")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def f(self, x) -> float:
        val = float(self.objective(np.asarray(x, dtype=float)))
        if math.isnan(val):
            raise NonFiniteEvaluation(f"objective is NaN at {x}")
        return val

    def grad_f(self, x) -> Array:
        return np.asarray(self.gradient(np.asarray(x, dtype=float)), dtype=float)

    def h(self, x) -> Array:
        if self.eq is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self.eq(np.asarray(x, dtype=float)), dtype=float))

    def jac_h(self, x) -> Array:
        if self.eq is None:
            return np.zeros((0, self.dim))
        return np.atleast_2d(np.asarray(self.eq_jac(np.asarray(x, dtype=float)), dtype=float))

    def box(self) -> Tuple[Array, Array]:
        return self.lower, self.upper


def feasibility_gap(problem: ConstrainedProblem, x) -> FeasibilityGap:
    """Componentwise infeasibility measure; total is zero iff x is feasible."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({problem.dim},)")
    soc = 0.0
    for block in problem.soc_blocks:
        soc += dist_lorentz(block.g(x))
    if problem.sdp_block is not None:
        soc += dist_psd_minus(problem.sdp_block.G(x))
    eq = 0.0
    if problem.eq is not None:
        # What np.linalg.norm computes on a 1-D vector, without its dispatch.
        h = problem.h(x)
        eq = math.sqrt(h @ h)
    lo, hi = problem.box()
    box = 0.0
    # Inside the box x - clip(x) is all zeros; NaN fails the test and keeps
    # the norm, so it still propagates.
    if not all(l <= v <= u for v, l, u in zip(x.tolist(), lo.tolist(), hi.tolist())):
        box = float(np.linalg.norm(x - np.clip(x, lo, hi)))
    return FeasibilityGap(soc_gap=soc, eq_gap=eq, box_gap=box)


def kkt_residual(problem: ConstrainedProblem, x, lam=None, mu=None, lam_sdp=None) -> float:
    """Aggregate KKT residual: stationarity + complementarity + dual and
    primal feasibility.

    Sign convention: the Lagrangian is f + sum <lam_i, g_i> + trace(lam G)
    + <mu, h>, so SOC multipliers live in the polar cone -Q (dual
    feasibility is dist(-lam_i, Q)) and the SDP multiplier is PSD.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({problem.dim},)")
    lam = [np.asarray(v, dtype=float) for v in (lam or [])]
    if len(lam) != len(problem.soc_blocks):
        raise DimensionMismatch("one multiplier vector per SOC block required")
    grad = problem.grad_f(x)
    complementarity = 0.0
    dual = 0.0
    primal = 0.0
    for block, lam_i in zip(problem.soc_blocks, lam):
        if lam_i.shape != (block.dim,):
            raise DimensionMismatch("SOC multiplier dimension mismatch")
        g_val = np.asarray(block.g(x), dtype=float)
        grad = grad + block.jacobian(x).T @ lam_i
        complementarity += abs(float(lam_i @ g_val))
        dual += dist_lorentz(-lam_i)
        primal += dist_lorentz(g_val)
    if problem.sdp_block is not None:
        if lam_sdp is None:
            raise DimensionMismatch("SDP block requires a matrix multiplier")
        lam_sdp = 0.5 * (np.asarray(lam_sdp, dtype=float) + np.asarray(lam_sdp, dtype=float).T)
        g_mat = np.asarray(problem.sdp_block.G(x), dtype=float)
        derivs = problem.sdp_block.derivative(x)
        grad = grad + np.array([float(np.sum(lam_sdp * d)) for d in derivs])
        complementarity += abs(float(np.sum(lam_sdp * g_mat)))
        # Finite input can overflow (1e308 + 1e308); the residual is then NaN,
        # as on SOC blocks, not an eigensolver error.
        dual += dist_psd_minus(-lam_sdp)
        primal += dist_psd_minus(g_mat)
    if problem.n_eq > 0:
        if mu is None:
            raise DimensionMismatch("equality constraints require mu")
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu.shape != (problem.n_eq,):
            raise DimensionMismatch("mu dimension mismatch")
        grad = grad + problem.jac_h(x).T @ mu
        primal += float(np.linalg.norm(problem.h(x)))
    return float(np.linalg.norm(grad)) + complementarity + dual + primal


def flat_multipliers(problem: ConstrainedProblem, lam=None, lam_sdp=None) -> Array:
    """Cone multipliers in their flat layout, which ``--lambda`` uses: each
    SOC block's entries in block order, then the SDP multiplier row-major.
    A part given as None is zeros; ``split_multipliers`` reads it back."""
    if lam is None:
        lam = [np.zeros(block.dim) for block in problem.soc_blocks]
    parts = [np.zeros(0)] + [np.asarray(v, dtype=float).ravel() for v in lam]
    if problem.sdp_block is not None:
        order = problem.sdp_block.order
        parts.append(np.zeros(order * order) if lam_sdp is None
                     else np.asarray(lam_sdp, dtype=float).ravel())
    return np.concatenate(parts)


def split_multipliers(problem: ConstrainedProblem, flat) -> Tuple[list, Optional[Array]]:
    """``(lam, lam_sdp)``, as ``kkt_residual`` takes them, from the layout
    of ``flat_multipliers``.  Raises ValueError on a wrong count or a
    non-symmetric SDP multiplier."""
    flat = np.atleast_1d(np.asarray(flat, dtype=float))
    order = problem.sdp_block.order if problem.sdp_block is not None else 0
    size = sum(block.dim for block in problem.soc_blocks) + order * order
    if flat.shape != (size,):
        raise ValueError(f"{problem.name} takes {size} cone multiplier entries (the SOC blocks "
                         f"in order, then the SDP matrix row-major), got {flat.size}")
    lam, start = [], 0
    for block in problem.soc_blocks:
        lam.append(flat[start:start + block.dim])
        start += block.dim
    if problem.sdp_block is None:
        return lam, None
    lam_sdp = flat[start:].reshape(order, order)
    if not np.array_equal(lam_sdp, lam_sdp.T):
        raise ValueError(f"{problem.name}: the SDP multiplier must be symmetric")
    return lam, lam_sdp


# ---------------------------------------------------------------------------
# Benchmark registry
# ---------------------------------------------------------------------------


def _toy_lin_1() -> ConstrainedProblem:
    # min -x  s.t.  x <= 0  (flat SOC block (-x, 0)),  x in [-2, 2].
    # Optimum x* = 0, f* = 0.  The SOC multiplier at the cone vertex is
    # non-unique; (-1, 0) is one valid choice.
    def g(x):
        return np.array([-x[0], 0.0])

    def jac(x):
        return np.array([[-1.0], [0.0]])

    cert = KnownSolution(
        x_star=np.array([0.0]),
        f_star=0.0,
        lambda_star=(np.array([-1.0, 0.0]),),
    )
    return ConstrainedProblem(
        name="toy-lin-1",
        dim=1,
        objective=lambda x: -x[0],
        gradient=lambda x: np.array([-1.0]),
        soc_blocks=(SocBlock(dim=2, g=g, jac=jac),),
        lower=np.array([-2.0]),
        upper=np.array([2.0]),
        certificate=cert,
        penalties=("linear", "al-hpr"),
    )


def _toy_eq_1() -> ConstrainedProblem:
    # min x1^2 + x2^2  s.t.  x1 + x2 = 2.  x* = (1, 1), f* = 2, mu* = -2.
    cert = KnownSolution(
        x_star=np.array([1.0, 1.0]),
        f_star=2.0,
        mu_star=np.array([-2.0]),
    )
    return ConstrainedProblem(
        name="toy-eq-1",
        dim=2,
        objective=lambda x: float(x[0] ** 2 + x[1] ** 2),
        gradient=lambda x: 2.0 * np.asarray(x, dtype=float),
        eq=lambda x: np.array([x[0] + x[1] - 2.0]),
        eq_jac=lambda x: np.array([[1.0, 1.0]]),
        n_eq=1,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-socp", "al-hpr"),
    )


def _toy_socp_1() -> ConstrainedProblem:
    # min x1^2 + (x2-2)^2  s.t.  (x1, x2) in Q_2.  x* = (1, 1), f* = 2,
    # lambda* = (-2, 2).
    cert = KnownSolution(
        x_star=np.array([1.0, 1.0]),
        f_star=2.0,
        lambda_star=(np.array([-2.0, 2.0]),),
    )
    return ConstrainedProblem(
        name="toy-socp-1",
        dim=2,
        objective=lambda x: float(x[0] ** 2 + (x[1] - 2.0) ** 2),
        gradient=lambda x: np.array([2.0 * x[0], 2.0 * (x[1] - 2.0)]),
        soc_blocks=(
            SocBlock(dim=2, g=lambda x: np.asarray(x, dtype=float).copy(), jac=lambda x: np.eye(2)),
        ),
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-socp"),
    )


def _toy_socp_2() -> ConstrainedProblem:
    # Toy-SOCP-1 plus the equality x1 - x2 = 0; same optimum.  The
    # multiplier family at x* is one-dimensional; (-2, 2) with mu = 0 is
    # a valid certificate pair.
    cert = KnownSolution(
        x_star=np.array([1.0, 1.0]),
        f_star=2.0,
        lambda_star=(np.array([-2.0, 2.0]),),
        mu_star=np.array([0.0]),
    )
    return ConstrainedProblem(
        name="toy-socp-2",
        dim=2,
        objective=lambda x: float(x[0] ** 2 + (x[1] - 2.0) ** 2),
        gradient=lambda x: np.array([2.0 * x[0], 2.0 * (x[1] - 2.0)]),
        soc_blocks=(
            SocBlock(dim=2, g=lambda x: np.asarray(x, dtype=float).copy(), jac=lambda x: np.eye(2)),
        ),
        eq=lambda x: np.array([x[0] - x[1]]),
        eq_jac=lambda x: np.array([[1.0, -1.0]]),
        n_eq=1,
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-socp"),
    )


def _toy_sdp_1() -> ConstrainedProblem:
    # min (x1-1)^2 + (x2-1)^2  s.t.  diag(x1 - 0.5, -x2) <= 0.
    # x* = (0.5, 1), f* = 0.25, lambda* = diag(1, 0).
    cert = KnownSolution(
        x_star=np.array([0.5, 1.0]),
        f_star=0.25,
        lambda_sdp_star=np.diag([1.0, 0.0]),
    )

    def G(x):
        return np.diag([x[0] - 0.5, -x[1]])

    def dG(x):
        return [np.diag([1.0, 0.0]), np.diag([0.0, -1.0])]

    return ConstrainedProblem(
        name="toy-sdp-1",
        dim=2,
        objective=lambda x: float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0)]),
        sdp_block=SdpBlock(order=2, G=G, dG=dG),
        lower=np.array([-3.0, -3.0]),
        upper=np.array([3.0, 3.0]),
        certificate=cert,
        penalties=("linear", "qorder", "c1-sdp"),
    )


_BUILDERS = (_toy_lin_1, _toy_eq_1, _toy_socp_1, _toy_socp_2, _toy_sdp_1)


def registry(validate: bool = True) -> list:
    problems = [build() for build in _BUILDERS]
    if validate:
        for p in problems:
            _validate_certificate(p)
    return problems


def get_problem(name: str) -> ConstrainedProblem:
    key = name.strip().lower()
    for p in registry(validate=False):
        if p.name == key:
            _validate_certificate(p)
            return p
    raise UnknownProblem(f"no registry problem named {name!r}")


def _validate_certificate(problem: ConstrainedProblem) -> None:
    cert = problem.certificate
    if cert is None:
        return
    gap = feasibility_gap(problem, cert.x_star)
    if gap.total > 1e-9:
        raise AssertionError(f"{problem.name}: certified point is infeasible (gap {gap.total})")
    if abs(problem.f(cert.x_star) - cert.f_star) > 1e-9:
        raise AssertionError(f"{problem.name}: certified value mismatch")
    has_mults = cert.lambda_star is not None or cert.mu_star is not None or cert.lambda_sdp_star is not None
    if has_mults:
        lam = cert.lambda_star if cert.lambda_star is not None else []
        res = kkt_residual(problem, cert.x_star, lam=lam, mu=cert.mu_star, lam_sdp=cert.lambda_sdp_star)
        if res > 1e-6:
            raise AssertionError(f"{problem.name}: certified KKT residual {res} too large")
