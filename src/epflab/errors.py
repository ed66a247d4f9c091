"""Exception types shared across the package."""


class EpflabError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(EpflabError):
    """A Cholesky pivot fell below the positive-definiteness threshold."""


class NoConvergence(EpflabError):
    """An iterative routine exhausted its iteration budget."""


class DimensionMismatch(EpflabError):
    """Operands have incompatible dimensions."""


class NonFiniteEvaluation(EpflabError):
    """A function evaluation produced NaN where a finite value was required."""


class NegativeObjective(EpflabError):
    """Objective is negative where the nonlinear penalty requires f >= 0."""


class UnknownProblem(EpflabError):
    """Registry lookup failed."""


class AllStartsFailed(EpflabError):
    """Every multistart point evaluated to a non-finite value."""


class NonMonotonePredicate(EpflabError):
    """Exactness pass/fail was not monotone in the penalty parameter."""
