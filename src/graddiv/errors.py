"""Exception hierarchy shared by all graddiv modules."""


class GraddivError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(GraddivError, ValueError):
    """Input violates a documented contract (non-monotone grades, negative
    weights, mismatched lengths, malformed JSON documents, ...)."""


class ComputationError(GraddivError, ArithmeticError):
    """A numerical procedure failed to produce a trustworthy result
    (quadrature non-convergence, root bracketing failure, ...)."""


def beyond_range(what: str, value: float) -> ComputationError:
    """The error for a ``what`` ("sum", "chain entropy") beyond double range."""
    return ComputationError(f"the {what} is {value!r}: a term or the running total "
                            "overflowed double precision")
