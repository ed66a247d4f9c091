"""Constrained problem model and the benchmark registry.

A problem is  min f(x)  subject to  g_i(x) in Q_{l_i+1},  G(x) <= 0 (PSD
order),  h(x) = 0,  and  x in a box.  Every registry instance carries an
analytic certificate (optimum, value, multipliers where unique) which is
validated at load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .cones import dist_lorentz, dist_psd_minus, dist_psd_minus_entries
from .errors import DimensionMismatch, NonFiniteEvaluation, UnknownProblem
from .numerics import norm

Array = np.ndarray


def check_penalty_parameter(c: float) -> None:
    """ValueError unless the penalty parameter c is positive and finite."""
    if not 0.0 < c < math.inf:
        raise ValueError("penalty parameter c must be positive and finite")


def fd_gradient(func, x, step: float | None = None) -> Array:
    """Central-difference gradient (or Jacobian for vector-valued func)."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * (1.0 + norm(x))
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


def _float_list(val, size: int = -1) -> list:
    """val as it is when it is a list of Python floats, otherwise (an
    ndarray, a list holding ints) as ``size`` floats, -1 for any number."""
    if type(val) is list and all(type(v) is float for v in val):
        return val
    return np.asarray(val, dtype=float).reshape(size).tolist()


@dataclass(frozen=True)
class SocBlock:
    """One second-order cone constraint g(x) in Q_{dim}; g returns a 1-D
    array-like of dim entries (an array, or a list of floats)."""

    dim: int
    g: Callable[[Array], Sequence[float]]
    # The Jacobian of g: a callable of x, or one array when it is constant.
    jac: Union[Callable[[Array], Array], Array]

    def jacobian(self, x: Array) -> Array:
        return np.asarray(self.jac(x) if callable(self.jac) else self.jac, dtype=float)

    @cached_property
    def values(self) -> Callable[[Array], list]:
        """x -> g(x) as a list of Python floats: an ``affine_problem`` map as
        it is, any other g's value converted once unless it is one already."""
        g = self.g
        return g if hasattr(g, "on_floats") else lambda x: _float_list(g(x))


@dataclass(frozen=True)
class SdpBlock:
    """A matrix constraint G(x) <= 0 in the PSD order, G symmetric of given order."""

    order: int
    G: Callable[[Array], Array]
    # dG(x)[k] = dG/dx_k, one symmetric matrix per coordinate (an array if constant).
    dG: Union[Callable[[Array], Sequence[Array]], Array]

    def derivative(self, x: Array) -> Array:
        dG = self.dG(x) if callable(self.dG) else self.dG
        return np.asarray(dG, dtype=float)  # (dim, order, order)


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
    eq_jac: Optional[Union[Callable[[Array], Array], Array]] = None
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
        return checked_objective(float(self.objective(np.asarray(x, dtype=float))), x)

    def grad_f(self, x) -> Array:
        return np.asarray(self.gradient(np.asarray(x, dtype=float)), dtype=float)

    @cached_property
    def eq_values(self) -> Callable[[Array], list]:
        """x -> h(x) as a list of Python floats, [] without equalities: an
        ``affine_problem`` map as it is, any other h's value converted to
        n_eq floats once unless it is a list of floats already."""
        eq, n_eq = self.eq, self.n_eq
        if eq is None:
            return lambda x: []
        return eq if hasattr(eq, "on_floats") else lambda x: _float_list(eq(x), n_eq)

    def h(self, x) -> Array:
        return np.array(self.eq_values(np.asarray(x, dtype=float)), dtype=float).reshape(self.n_eq)

    def jac_h(self, x) -> Array:
        if self.eq is None:
            return np.zeros((0, self.dim))
        jac = self.eq_jac(np.asarray(x, dtype=float)) if callable(self.eq_jac) else self.eq_jac
        return np.atleast_2d(np.asarray(jac, dtype=float))

    def box(self) -> Tuple[Array, Array]:
        return self.lower, self.upper

    @cached_property
    def box_floats(self) -> Tuple[list, list]:
        """``box()`` as lists of Python floats, for per-point box tests."""
        return self.lower.tolist(), self.upper.tolist()

    @cached_property
    def read_point(self) -> Callable[[tuple], tuple]:
        """x -> (f, gs, G, h, xs) at a point x, a tuple of dim Python floats
        as ``point_floats`` returns it: the objective's value as a float
        (NaN as it is, see ``checked_objective``), each g_i(x) as a list of
        Python floats, G(x)'s entries row-major as one (None without an SDP
        block), h(x) as one ([] without equalities) and x's floats with 1.0
        after them (the coordinate of an affine map's constant) as a list.
        The callables run in that order, each once: ``affine_problem``'s read
        xs through their ``on_floats``, any other gets x as a float64 array,
        built once per point, and has its value converted as ``problem.f``,
        ``SocBlock.values`` and ``eq_values`` convert it.  A G(x) of another
        shape than (order, order) raises ValueError.  ``gap_terms`` reads the
        box term from xs."""
        objective, on_floats = self.objective, getattr(self.objective, "on_floats", None)
        blocks = [(block.g, getattr(block.g, "on_floats", None)) for block in self.soc_blocks]
        sdp = self.sdp_block
        G = None if sdp is None else sdp.G
        G_floats, eq_floats = getattr(G, "on_floats", None), getattr(self.eq, "on_floats", None)
        eq, n_eq = self.eq, self.n_eq
        needs_array = (on_floats is None or any(m is None for _, m in blocks)
                       or (G is not None and G_floats is None)
                       or (eq is not None and eq_floats is None))

        def read(x):
            xs = [*x, 1.0]
            if needs_array:
                x = np.array(x)
            f = on_floats(xs) if on_floats is not None else float(objective(x))
            gs = []  # a loop: a comprehension costs a function call
            for g, m in blocks:
                gs.append(m(xs) if m is not None else _float_list(g(x)))
            entries = None
            if G is not None:
                entries = G_floats(xs) if G_floats is not None else _matrix_entries(G(x), sdp.order)
            h = [] if eq is None else eq_floats(xs) if eq_floats is not None else _float_list(eq(x), n_eq)
            return f, gs, entries, h, xs

        return read


def checked_objective(value: float, x) -> float:
    """``value``, the objective's value at x; NonFiniteEvaluation if it is
    NaN, naming x (a point's float tuple as its array)."""
    if math.isnan(value):
        raise NonFiniteEvaluation(f"objective is NaN at {np.array(x) if type(x) is tuple else x}")
    return value


def _matrix_entries(value, order: int) -> list:
    """A matrix value row-major as Python floats; ValueError unless its
    shape is (order, order)."""
    value = np.asarray(value, dtype=float)
    if value.shape != (order, order):
        raise ValueError(f"G(x) has shape {value.shape}, expected ({order}, {order})")
    return value.ravel().tolist()


def as_point(problem: ConstrainedProblem, x) -> Array:
    """x as a float64 array; DimensionMismatch unless its shape is (dim,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({problem.dim},)")
    return x


def point_floats(problem: ConstrainedProblem, x) -> tuple:
    """x as the tuple of dim Python floats that ``read_point`` and the
    penalty states read: ``as_point``'s array, with its check, as floats."""
    return tuple(as_point(problem, x).tolist())


def gap_terms(problem: ConstrainedProblem, point: tuple) -> Tuple[float, float, float]:
    """The cone, equality and box terms of the feasibility gap at a point
    from its ``read_point`` tuple."""
    _, gs, entries, h, xs = point
    soc = 0.0
    for g in gs:
        soc += dist_lorentz(g)
    if entries is not None:
        soc += dist_psd_minus_entries(entries, problem.sdp_block.order)
    box = 0.0
    lower, upper = problem.box_floats
    # Inside the box x - clip(x) is all zeros; NaN fails the test and keeps
    # the norm, so it still propagates.  A loop costs less than all() over
    # a generator.
    for v, l, u in zip(xs, lower, upper):
        if not l <= v <= u:
            x = np.array(xs[:-1])
            box = norm(x - np.clip(x, problem.lower, problem.upper))
            break
    return soc, 0.0 if problem.eq is None else norm(h), box


def feasibility_gap(problem: ConstrainedProblem, x) -> FeasibilityGap:
    """Componentwise infeasibility measure; total is zero iff x is feasible."""
    return FeasibilityGap(*gap_terms(problem, problem.read_point(point_floats(problem, x))))


def infeasibility(problem: ConstrainedProblem, x) -> float:
    """``feasibility_gap(problem, x).total`` without building the record."""
    soc, eq, box = gap_terms(problem, problem.read_point(point_floats(problem, x)))
    return soc + eq + box


def read_multipliers(problem: ConstrainedProblem, lam=None, lam_sdp=None, mu=None) -> tuple:
    """``(lam, lam_sdp, mu)`` as float arrays of ``problem``'s shapes: one
    vector per SOC block, the SDP matrix (None without an SDP block) and one
    entry per equality; a part given as None is zeros.  The one reader of
    the multiplier layout: a wrong count or shape, or a part the problem
    does not have, raises DimensionMismatch, and a non-symmetric SDP
    multiplier raises ValueError."""
    if lam is None:
        lam = [np.zeros(block.dim) for block in problem.soc_blocks]
    elif len(lam) != len(problem.soc_blocks):
        raise DimensionMismatch(f"one multiplier vector per SOC block required, got {len(lam)}")
    lam = [np.array(v, dtype=float) for v in lam]
    if any(v.shape != (block.dim,) for v, block in zip(lam, problem.soc_blocks)):
        raise DimensionMismatch("SOC multiplier dimension mismatch")
    order = 0 if problem.sdp_block is None else problem.sdp_block.order
    if lam_sdp is None:
        lam_sdp = np.zeros((order, order)) if order else None
    else:
        lam_sdp = np.array(lam_sdp, dtype=float)
        if not order or lam_sdp.shape != (order, order):
            raise DimensionMismatch("SDP multiplier dimension mismatch")
        if not np.array_equal(lam_sdp, lam_sdp.T, equal_nan=True):
            raise ValueError(f"{problem.name}: the SDP multiplier must be symmetric")
    mu = np.zeros(problem.n_eq) if mu is None else np.atleast_1d(np.array(mu, dtype=float))
    if mu.shape != (problem.n_eq,):
        raise DimensionMismatch(f"mu takes one entry per equality ({problem.n_eq}), got {mu.shape}")
    return lam, lam_sdp, mu


def kkt_residual(problem: ConstrainedProblem, x, lam=None, mu=None, lam_sdp=None) -> float:
    """Aggregate KKT residual: stationarity + complementarity + dual and
    primal feasibility.

    Sign convention: the Lagrangian is f + sum <lam_i, g_i> + trace(lam G)
    + <mu, h>, so SOC multipliers live in the polar cone -Q (dual
    feasibility is dist(-lam_i, Q)) and the SDP multiplier is PSD.
    """
    x = as_point(problem, x)
    point = problem.read_point(tuple(x.tolist()))
    # Primal feasibility: the cone and equality terms of the feasibility gap.
    soc, eq, _ = gap_terms(problem, point)
    if ((lam is None and problem.soc_blocks) or (mu is None and problem.n_eq > 0)
            or (lam_sdp is None and problem.sdp_block is not None)):
        raise DimensionMismatch("kkt_residual needs a multiplier for every block and equality")
    lam, lam_sdp, mu = read_multipliers(problem, lam, lam_sdp, mu)
    grad = problem.grad_f(x)
    complementarity = 0.0
    dual = 0.0
    for block, lam_i, g in zip(problem.soc_blocks, lam, point[1]):
        grad = grad + block.jacobian(x).T @ lam_i
        complementarity += abs(float(lam_i @ g))
        dual += dist_lorentz(-lam_i)
    if lam_sdp is not None:
        g_mat = np.reshape(point[2], lam_sdp.shape)
        derivs = problem.sdp_block.derivative(x)
        grad = grad + np.array([float(np.sum(lam_sdp * d)) for d in derivs])
        complementarity += abs(float(np.sum(lam_sdp * g_mat)))
        # Finite input can overflow (1e308 + 1e308); the residual is then NaN,
        # a failing residual as on SOC blocks, not an eigensolver error.
        dual += dist_psd_minus(-lam_sdp)
    if problem.n_eq > 0:
        grad = grad + problem.jac_h(x).T @ mu
    return norm(grad) + complementarity + dual + (soc + eq)


def flat_multipliers(problem: ConstrainedProblem, lam=None, lam_sdp=None) -> Array:
    """Cone multipliers in their flat layout, which ``--lambda`` uses: each
    SOC block's entries in block order, then the SDP multiplier row-major,
    as ``read_multipliers`` reads them; ``split_multipliers`` reads it back."""
    lam, lam_sdp, _ = read_multipliers(problem, lam, lam_sdp)
    return np.concatenate([np.zeros(0)] + lam + ([] if lam_sdp is None else [lam_sdp.ravel()]))


def split_multipliers(problem: ConstrainedProblem, flat) -> Tuple[list, Optional[Array]]:
    """``(lam, lam_sdp)`` of ``read_multipliers`` from the layout of
    ``flat_multipliers``.  A wrong count raises ValueError, an input error
    to the CLI, as does a non-symmetric SDP multiplier."""
    flat = np.atleast_1d(np.asarray(flat, dtype=float))
    size = flat_multipliers(problem).size
    if flat.shape != (size,):
        raise ValueError(f"{problem.name} takes {size} cone multiplier entries (the SOC blocks "
                         f"in order, then the SDP matrix row-major), got {flat.size}")
    *lam, rest = np.split(flat, np.cumsum([block.dim for block in problem.soc_blocks], dtype=int))
    lam_sdp = None if problem.sdp_block is None else rest.reshape(problem.sdp_block.order, -1)
    return read_multipliers(problem, lam, lam_sdp)[:2]


# ---------------------------------------------------------------------------
# Benchmark registry
# ---------------------------------------------------------------------------


def _frozen(data) -> Array:
    out = np.array(data, dtype=float)
    out.flags.writeable = False
    return out


def _on_floats(on_floats: Callable[[list], object]) -> Callable[[Array], object]:
    """The function of x that calls ``on_floats`` with x's floats and 1.0
    after them (the coordinate of an affine constant), carrying it as its
    ``on_floats``: ``ConstrainedProblem.read_point`` calls that with the
    floats it took once, ``SocBlock.values`` and ``eq_values`` take such a
    map's float list as it is, an SDP block's G carries its entries'
    ``on_floats``, row-major, and the C1 multiplier estimate reads the
    gradient's."""
    def value(x):
        xs = x.tolist()
        xs.append(1.0)
        return on_floats(xs)

    value.on_floats = on_floats
    return value


def _affine_map(const, coefs, const_first: bool = False) -> Callable[[Array], list]:
    """x -> const + coefs @ x (None is zero) as a list of Python floats.  An entry
    sums its nonzero terms by coordinate from -0.0, which adds exactly; the
    constant is the term of a coordinate fixed at 1.0, last or first.  An
    entry that is one coordinate (x in Q, say) is -0.0 + 1.0 * x_k, which
    is x_k bit for bit, ±0, ±inf and NaN included.  It reads x's floats
    through ``on_floats`` (see ``_on_floats``)."""
    coefs = np.asarray(coefs, dtype=float)
    const = np.zeros(len(coefs)) if const is None else np.ravel(const)
    entries = []
    for c, row in zip(const.tolist(), coefs.tolist()):
        pairs = list(enumerate(row))
        pairs.insert(0 if const_first else len(row), (len(row), c))
        terms = tuple((k, a) for k, a in pairs if a != 0.0)
        entries.append((-0.0 if terms else 0.0, terms))

    def value(xs):
        out = []
        for total, terms in entries:
            for k, a in terms:
                total += a * xs[k]
            out.append(total)
        return out

    return _on_floats(value)


def affine_problem(name: str, lower, upper, *, certificate: Optional[KnownSolution],
                   penalties: Tuple[str, ...], weight: float = 0.0, center=None, linear=None,
                   soc=(), sdp=None, eq=None) -> ConstrainedProblem:
    """The problem  min w ||x - a||^2 + q'x  s.t.  A_i x + b_i in Q,
    G0 + sum_k x_k G_k <= 0,  E x - e = 0  and  x in [lower, upper],  from
    its data: ``weight`` w, ``center`` a, ``linear`` q, ``soc`` pairs
    (A_i, b_i), ``sdp`` the pair (G0, [G_k]) and ``eq`` the pair (E, e).
    A vector or G0 given as None is zero.  The gradient, Jacobians and dG
    are derived from the data; the Jacobians and dG are read-only arrays,
    not callables.  Values
    keep the bits of the formula written out (README "Problem contract")."""
    dim = len(lower)
    center = None if center is None else _frozen(center)
    q = _frozen(np.zeros(dim) if linear is None else linear)
    shifts = () if center is None else tuple((k, a) for k, a in enumerate(center.tolist()) if a != 0.0)
    lin_terms = tuple((k, a) for k, a in enumerate(q.tolist()) if a != 0.0)
    start = -0.0 if weight or lin_terms else 0.0

    def objective(xs):
        # w * sum (x_k - a_k) ** 2 + (sum q_k x_k), each sum by coordinate.
        value = start
        for k, a in lin_terms:
            value += a * xs[k]
        if weight:
            xs = xs[:dim]  # the coordinates, as a copy: the caller's list is shared
            for k, a in shifts:
                xs[k] -= a
            # float ** is C pow, as numpy's scalar **, but raises on overflow.
            try:
                squares = -0.0
                for v in xs:
                    squares += v ** 2
            except OverflowError:
                squares = sum(v * v for v in xs)
            value = weight * squares + value
        return value

    # 2w (x - a) + q entry by entry, as numpy forms it; x - 0.0 is x, bit for bit.
    two_w, lin = 2.0 * weight, None if linear is None else q.tolist()
    shift = [0.0] * dim if center is None else center.tolist()

    def gradient(xs):
        if not weight:
            return q.tolist()
        grad = []
        for v, a in zip(xs, shift):
            grad.append(two_w * (v - a))
        if lin is not None:
            for k, b in enumerate(lin):
                grad[k] += b
        return grad

    blocks = []
    for A, b in soc:
        A = _frozen(A)
        blocks.append(SocBlock(dim=len(A), g=_affine_map(b, A), jac=A))
    sdp_block = None
    if sdp is not None:
        dG = _frozen(sdp[1])
        order = dG.shape[1]
        entries = _affine_map(sdp[0], dG.reshape(dim, -1).T, const_first=True)

        def G(x):
            return np.array(entries(x)).reshape(order, order)

        if hasattr(entries, "on_floats"):
            G.on_floats = entries.on_floats  # the entries row-major
        sdp_block = SdpBlock(order=order, G=G, dG=dG)
    h = E = None
    if eq is not None:
        E = _frozen(eq[0])
        h = _affine_map(None if eq[1] is None else np.negative(eq[1]), E)
    return ConstrainedProblem(name=name, dim=dim, objective=_on_floats(objective),
                              gradient=_on_floats(gradient),
                              lower=lower, upper=upper, soc_blocks=tuple(blocks), sdp_block=sdp_block,
                              eq=h, eq_jac=E,
                              n_eq=0 if E is None else len(E), certificate=certificate,
                              penalties=penalties)


def registry(validate: bool = True) -> list:
    box = ([-3.0, -3.0], [3.0, 3.0])
    problems = [
        # min -x  s.t.  x <= 0  (flat SOC block (-x, 0)),  x in [-2, 2].  x* = 0,
        # f* = 0; the multiplier at the cone vertex is not unique, (-1, 0) is one.
        affine_problem("toy-lin-1", [-2.0], [2.0], penalties=("linear", "al-hpr"), linear=[-1.0],
                       soc=[([[-1.0], [0.0]], None)],
                       certificate=KnownSolution(x_star=np.array([0.0]), f_star=0.0,
                                                 lambda_star=(np.array([-1.0, 0.0]),))),
        # min x1^2 + x2^2  s.t.  x1 + x2 = 2.  x* = (1, 1), f* = 2, mu* = -2.
        affine_problem("toy-eq-1", *box, penalties=("linear", "qorder", "c1-socp", "al-hpr"),
                       weight=1.0, eq=([[1.0, 1.0]], [2.0]),
                       certificate=KnownSolution(x_star=np.array([1.0, 1.0]), f_star=2.0,
                                                 mu_star=np.array([-2.0]))),
        # min x1^2 + (x2-2)^2  s.t.  (x1, x2) in Q_2.  x* = (1, 1), f* = 2, lambda* = (-2, 2).
        affine_problem("toy-socp-1", *box, penalties=("linear", "qorder", "c1-socp"), weight=1.0,
                       center=[0.0, 2.0], soc=[(np.eye(2), None)],
                       certificate=KnownSolution(x_star=np.array([1.0, 1.0]), f_star=2.0,
                                                 lambda_star=(np.array([-2.0, 2.0]),))),
        # Toy-SOCP-1 plus x1 - x2 = 0; same optimum.  The multipliers at x* form
        # a line; (-2, 2) with mu = 0 is one valid pair.
        affine_problem("toy-socp-2", *box, penalties=("linear", "qorder", "c1-socp"), weight=1.0,
                       center=[0.0, 2.0], soc=[(np.eye(2), None)], eq=([[1.0, -1.0]], None),
                       certificate=KnownSolution(x_star=np.array([1.0, 1.0]), f_star=2.0,
                                                 lambda_star=(np.array([-2.0, 2.0]),),
                                                 mu_star=np.array([0.0]))),
        # min (x1-1)^2 + (x2-1)^2  s.t.  diag(x1 - 0.5, -x2) <= 0.  x* = (0.5, 1), f* = 0.25,
        # lambda* = diag(1, 0).
        affine_problem("toy-sdp-1", *box, penalties=("linear", "qorder", "c1-sdp"), weight=1.0,
                       center=[1.0, 1.0],
                       sdp=(np.diag([-0.5, 0.0]), [np.diag([1.0, 0.0]), np.diag([0.0, -1.0])]),
                       certificate=KnownSolution(x_star=np.array([0.5, 1.0]), f_star=0.25,
                                                 lambda_sdp_star=np.diag([1.0, 0.0]))),
    ]
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
