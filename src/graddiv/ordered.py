"""Grading functions on finite linearly ordered sets.

A grading function assigns strictly increasing real grades to the elements
of a linearly ordered set, so its values alone can reconstruct the order.
This module holds the finite sampled form of such a function, its forward
increments, and the rate function ln(delta_g / delta_f) of the paper's
divergence formula. rate_h is that rate for one pair of increments, for
direct use; no kernel calls it, since each computes the rate inline in its
own loop. log_ratio gives ln(d / w) also where the ratio underflows to 0
or overflows; the continuous kernels fall back on it.

It also holds the package's one rule for numeric input, which every
constructor and reader applies: ``as_float`` for a real, ``as_floats`` for
an array of reals and ``as_int`` for a count. A real is a ``numbers.Real``
other than a bool (so ints, floats and numpy scalars) that converts to a
double; a count is a ``numbers.Integral`` other than a bool. Anything else
is an InvalidInputError naming where it was found. Arrays are converted
and checked in C-level builtin passes (``map``, ``all``) rather than a
Python loop per element; only an array that fails a check is walked again,
element by element, to name its first offender.
"""

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from operator import lt, sub
from typing import Any

from .errors import InvalidInputError

__all__ = ["GradingSample", "IncrementPair", "increments", "rate_h"]


def _is_number_type(t: type) -> bool:
    return t is not bool and issubclass(t, numbers.Real)


def as_float(value: Any, where: str) -> float:
    """``value`` as a float, or InvalidInputError naming ``where``."""
    if type(value) is float:
        return value
    if not _is_number_type(type(value)):
        raise InvalidInputError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{where} is out of float range") from None


def as_int(value: Any, where: str) -> int:
    """``value`` as an int, or InvalidInputError naming ``where``."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{where} must be an integer, got {value!r}")
    return int(value)


_FLOAT_TYPE = frozenset({float})


def as_floats(values: Iterable, where: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, or InvalidInputError naming the
    first offender as ``where[i]``.

    A tuple of exact floats is returned as it is, without a copy. Other
    numbers are converted by one ``map(float, ...)``; the element types are
    judged once per distinct type, not once per element.
    """
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidInputError(f"{where} must be an array of numbers") from None
    types = set(map(type, values))
    if types <= _FLOAT_TYPE:
        return values
    if all(map(_is_number_type, types)):
        try:
            return tuple(map(float, values))
        except OverflowError:
            pass  # the walk below names the integer beyond float range
    return tuple(as_float(v, f"{where}[{i}]") for i, v in enumerate(values))


@dataclass(frozen=True)
class GradingSample:
    """A grading function observed on an enumerated ordered set.

    ``grades[k]`` is the grade of the k-th element. Strict monotonicity is
    the defining property of a grading function and is enforced eagerly:
    a repeated grade would make downstream increment ratios undefined.
    ``labels``, when given, is a list or tuple of one string per grade; a
    label that is no string is refused, not converted.
    """

    grades: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        grades = as_floats(self.grades, "grades")
        labels = self.labels
        if labels is not None:
            if not (isinstance(labels, (list, tuple))
                    and all(isinstance(s, str) for s in labels)):
                raise InvalidInputError("labels must be an array of strings")
            labels = tuple(labels)
        if len(grades) < 2:
            raise InvalidInputError(
                f"a grading sample needs at least 2 grades, got {len(grades)}"
            )
        # A NaN fails every comparison, and between finite end grades every
        # grade is finite, so one pass and one span check validate it all.
        if not (all(map(lt, grades, islice(grades, 1, None)))
                and math.isfinite(grades[-1] - grades[0])):
            _reject_grades(grades)
        if labels is not None and len(labels) != len(grades):
            raise InvalidInputError(f"{len(labels)} labels for {len(grades)} grades")
        object.__setattr__(self, "grades", grades)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.grades)


def _reject_grades(grades: tuple[float, ...]) -> None:
    """Raise for the first fault of grades that failed the one-pass check."""
    for g in grades:
        if not math.isfinite(g):
            raise InvalidInputError(f"grades must be finite, got {g!r}")
    for k in range(1, len(grades)):
        if grades[k] <= grades[k - 1]:
            raise InvalidInputError(
                "grades must be strictly increasing: "
                f"grades[{k}]={grades[k]!r} <= grades[{k - 1}]={grades[k - 1]!r}"
            )
    # every increment is at most the span, so one check keeps them finite
    raise InvalidInputError(
        f"grade span [{grades[0]!r}, {grades[-1]!r}] overflows: its width "
        "is not a finite double"
    )


@dataclass(frozen=True)
class IncrementPair:
    """Grade changes of two grading functions over the same element pair.

    Zero increments are representable (consumers decide how to treat them),
    negative ones are not: a grading function cannot decrease.
    """

    delta_g: float
    delta_f: float

    def __post_init__(self):
        for name in ("delta_g", "delta_f"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        for name, v in (("delta_g", self.delta_g), ("delta_f", self.delta_f)):
            if not math.isfinite(v):
                raise InvalidInputError(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise InvalidInputError(f"{name} must be >= 0, got {v!r}")


def increments(sample: GradingSample) -> list[float]:
    """Forward differences grades[k] - grades[k-1], all strictly positive."""
    g = sample.grades
    return list(map(sub, islice(g, 1, None), g))


def rate_h(pair: IncrementPair) -> float:
    """Divergence rate per unit grade change: ln(delta_g / delta_f).

    Returns -inf when delta_g is zero (the weighted divergence term then
    genuinely diverges). Undefined when delta_f is zero, since the rate is
    measured per unit change of the forward grading.
    """
    if pair.delta_f == 0.0:
        raise InvalidInputError("rate is undefined for delta_f = 0")
    if pair.delta_g == 0.0:
        return -math.inf
    return log_ratio(pair.delta_g, pair.delta_f)


def log_ratio(d: float, w: float) -> float:
    """ln(d / w) for positive d and w, read as ln d - ln w where the ratio
    underflows to 0 (math.log(0.0) raises ValueError) or overflows to inf.
    Hot loops try math.log(d / w) first and call this only where the ratio
    is 0 or inf."""
    ratio = d / w
    return math.log(ratio) if 0.0 < ratio < math.inf else math.log(d) - math.log(w)
