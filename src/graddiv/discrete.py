"""Relative divergence over finite ordered sets and its probability forms.

The core quantity is D(F||G) = sum_k ln(dG_k / dF_k) * dF_k over the shared
increments of two grading samples. One fold, ``_fold``, sums it for
divergence_discrete, streaming the increments, and for relative_entropy,
the divergence between two cumulative distributions: sum f ln(g/f), which
is nonpositive for probability vectors (Gibbs). A cumulative distribution
against the position function k gives Shannon entropy: shannon_entropy
and partition_entropy sum -m ln m in ``_mass_entropy``, the fold with
ln(1 / m) taken exactly as -ln m, since the log of a rounded 1 / m moves
the last bits of about half the terms.

Every sum is a left-to-right ``+=`` over the terms in input order, so a
result is reproducible bit for bit; the builtin ``sum`` is avoided because
it compensates from Python 3.12 on. Weights and masses are converted by
``ordered.as_floats`` and checked by ``ordered.nonnegative``. Every result
of this module and of ``continuous`` is built by ``_result``, which
refuses a value that left double range.
"""

import math
import sys
from itertools import accumulate, islice
from operator import sub

from .errors import InvalidInputError, beyond_range
from .ordered import GradingSample, _Record, _store, as_floats, count, nonnegative, result

WEIGHT_SUM_TOL = 1e-9

_FLOAT_MIN = sys.float_info.min  # the smallest normal double

NEGATIVE_INFINITY = "negative_infinity"
EMPTY = "empty"
_KNOWN_FLAGS = frozenset({NEGATIVE_INFINITY, EMPTY})


class ProbabilityVector(_Record):
    """Nonnegative weights summing to one (within a small absolute slack
    to accommodate rounding in user-supplied data)."""

    weights: tuple[float, ...]

    _fields = ("weights",)
    __slots__ = _fields

    def __post_init__(self):
        w = nonnegative(as_floats(self.weights, "weights", 1), "weights")
        try:
            total = math.fsum(w)
        except OverflowError:  # a partial sum left double range
            total = math.inf
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}"
            )
        _store(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)


class DivergenceResult(_Record):
    """A divergence value in nats plus convergence diagnostics.

    terms_used counts the terms that entered the finite accumulation; for
    a continuous result, the integrand evaluations. dropped_mass is the total forward-grading mass
    attached to terms that could not enter it: zero-mass terms contribute
    nothing, and terms whose reference increment is zero force the value
    to -inf, recorded by the ``negative_infinity`` flag. error_estimate
    is nonzero only for quadrature-backed results. flags is any iterable
    of flag names but a str; the other fields follow ``ordered.result``.
    """

    value: float
    terms_used: int
    dropped_mass: float
    error_estimate: float
    flags: frozenset[str]

    _fields = ("value", "terms_used", "dropped_mass", "error_estimate", "flags")
    _defaults = (0.0, 0.0, frozenset())
    __slots__ = _fields

    def __post_init__(self):
        try:  # a str is one name, not a collection of names
            flags = None if isinstance(self.flags, str) else frozenset(self.flags)
        except TypeError:  # not iterable, or a member that cannot be hashed
            flags = None
        if flags is None:
            raise InvalidInputError(
                f"flags must be an iterable of flag names, got {self.flags!r}"
            )
        unknown = flags - _KNOWN_FLAGS
        if unknown:  # sorted by str: a non-str flag is unknown, not a TypeError
            raise InvalidInputError(f"unknown result flags: {sorted(unknown, key=str)}")
        _store(self, "flags", flags)
        result(self, "value", NEGATIVE_INFINITY in flags, ("terms_used",),
               ("dropped_mass", "error_estimate"))

    @property
    def kl(self) -> float:
        """Negated value: the conventional nonnegative Kullback-Leibler
        orientation for probability inputs."""
        return -self.value


def _result(value: float, terms: int, dropped: float, neg_inf: bool,
            empty: bool = False, error_estimate: float = 0.0) -> DivergenceResult:
    flags = set()
    if neg_inf:
        flags.add(NEGATIVE_INFINITY)
        value = -math.inf
    elif not math.isfinite(value):
        raise beyond_range("sum", value)
    if empty:
        flags.add(EMPTY)
    # + 0.0 turns a -0.0 accumulator into +0.0
    return DivergenceResult(
        value=value + 0.0,
        terms_used=terms,
        dropped_mass=dropped,
        error_estimate=error_estimate,
        flags=frozenset(flags),
    )


def _fold(pairs, n: int) -> DivergenceResult:
    """sum f ln(g / f) over the n (f, g) pairs that each ``pairs()`` streams.

    The common path is g / f, one compare and f ln(g / f) per term. A zero
    f, a ratio below the smallest normal double or a total beyond double
    range sends the sum to the rules walk: it skips a zero f, drops the
    mass of f at a zero g, and reruns with the logs taken apart,
    (ln g - ln f) f, if g / f left the normal doubles, where it keeps too
    few bits for its log.
    """
    log = math.log
    total = 0.0
    try:
        for fk, gk in pairs():
            ratio = gk / fk
            if ratio < _FLOAT_MIN:
                break
            total += fk * log(ratio)
        else:
            if math.isfinite(total):
                return _result(total, n, 0.0, False)
    except ZeroDivisionError:
        pass
    total = dropped = 0.0
    terms = 0
    for fk, gk in pairs():
        if fk == 0.0:
            continue
        if gk == 0.0:
            dropped += fk
            continue
        ratio = gk / fk
        total += fk * log(ratio) if ratio >= _FLOAT_MIN else math.nan
        terms += 1
    if not (dropped or math.isfinite(total)):
        total = 0.0
        for fk, gk in pairs():
            if fk != 0.0:  # then gk != 0.0 too: nothing was dropped
                total += (log(gk) - log(fk)) * fk
    return _result(total, terms, dropped, neg_inf=dropped > 0.0)


def divergence_discrete(f: GradingSample, g: GradingSample) -> DivergenceResult:
    """Relative divergence of grading sample f from g on a shared ordered set.

    Both samples are strictly increasing, so every increment is positive and
    the exact result is finite. Raises ComputationError only when the value
    itself leaves double range.
    """
    if len(f) != len(g):
        raise InvalidInputError(
            f"samples live on different ordered sets: {len(f)} vs {len(g)} grades"
        )
    # the increments of both samples, streamed: no per-term list is built
    fg, gg = f.grades, g.grades
    return _fold(lambda: zip(map(sub, islice(fg, 1, None), fg),
                             map(sub, islice(gg, 1, None), gg)), len(f) - 1)


def relative_entropy(f: ProbabilityVector, g: ProbabilityVector) -> DivergenceResult:
    """sum_k f_k ln(g_k / f_k), nonpositive for probability vectors.

    Terms with f_k = 0 contribute nothing and are dropped from the term
    count. A term with f_k > 0 and g_k = 0 diverges: the value becomes -inf
    and f_k joins dropped_mass. Use ``.kl`` for the nonnegative orientation.
    """
    if len(f) != len(g):
        raise InvalidInputError(
            f"vectors have different lengths: {len(f)} vs {len(g)}"
        )
    return _fold(lambda: zip(f.weights, g.weights), len(f))


def _mass_entropy(masses: tuple[float, ...]) -> DivergenceResult:
    """-sum m ln m over the nonzero masses, which are its terms."""
    log = math.log
    total = 0.0
    terms = 0
    for m in masses:
        if m == 0.0:
            continue
        total -= m * log(m)
        terms += 1
    return _result(total, terms, 0.0, False, empty=not masses)


def shannon_entropy(f: ProbabilityVector) -> DivergenceResult:
    """-sum_k f_k ln f_k with 0 ln 0 = 0.

    Equals the divergence of the running-sum grading of f from the position
    function, which is what makes it a special case of divergence_discrete.
    """
    return _mass_entropy(f.weights)


def partition_entropy(masses) -> DivergenceResult:
    """-sum_k m_k ln m_k for nonnegative cell masses.

    No normalization is required: masses above 1 contribute negative terms,
    so the total may be negative for non-normalized measures.
    """
    return _mass_entropy(nonnegative(as_floats(masses, "masses"), "masses"))


def cdf_grading(f: ProbabilityVector) -> GradingSample:
    """Running-sum grading 0, f_1, f_1+f_2, ... of a probability vector.

    Requires strictly positive weights, otherwise consecutive grades tie.
    """
    return GradingSample(tuple(accumulate(f.weights, initial=0.0)))


def position_grading(n: int) -> GradingSample:
    """The position function 0, 1, ..., n on an enumerated set."""
    return GradingSample(tuple(map(float, range(count(n, "n") + 1))))
