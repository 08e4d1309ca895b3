"""Grading functions on finite linearly ordered sets.

A grading function assigns strictly increasing real grades to the elements
of a linearly ordered set, so its values alone can reconstruct the order.
This module holds the finite sampled form of such a function, its forward
increments, and the rate function ln(delta_g / delta_f) of the paper's
divergence formula. rate_h is that rate for one pair of increments, for
direct use; no kernel calls it, since each computes the rate inline in its
own loop. log_ratio gives ln(d / w) also where the ratio underflows to 0
or overflows; the continuous kernels fall back on it.

It also holds the package's one rule for input, which every constructor
and reader applies: ``array`` for an array, ``as_float`` for a real,
``as_floats`` for an array of reals and ``as_int`` for a count. An array
is an ordered sequence: any iterable but a str, bytes, bytearray, mapping
or set, whose length ``count`` judges against the least and, where given,
the largest length its caller allows. A real is a ``numbers.Real`` other
than a bool (so ints, floats and numpy scalars) that converts to a
double; a count is a ``numbers.Integral`` other than a bool. Anything else
is an InvalidInputError naming where it was found. ``nonnegative`` is the
one rule for an array of weights, masses or capacity values: each finite
and >= 0. ``interval`` is the one rule for a support, a grade span or an
integration interval [a, b]: finite ends, a < b and a width that is a
finite double. ``increasing`` is the one rule for grades and for each
coordinate of a piecewise-linear grading's knots: each value finite and
greater than the one before, and a span that ``interval`` accepts.
``positive`` is the one rule for a tolerance, a shape or a scale: a real
that is finite and > 0. ``count`` is the one rule for a count argument:
an integer at least its least value (1 unless given) and, where it has
one, at most its largest. ``result`` is the one rule for the result
records (DivergenceResult, QuadratureOutcome, CapacityEntropyReport):
each count >= 0, each estimate or dropped mass >= 0 and not NaN, and the
value finite, or exactly -inf when the record flags negative_infinity.
Arrays are converted and checked in C-level builtin passes (``map``,
``all``, ``min``, ``sum``) rather than a Python loop per element; only an
array that fails a check is walked again, element by element, to name
its first offender. ``numbers`` is imported only to judge a value that is
neither an exact float nor an exact int.

Beside the rule sits ``_Record``, the base of every public value class: an
immutable record declared by its ``_fields``, ``__slots__ = _fields``, the
trailing ``_defaults`` and an optional ``__post_init__`` that converts and
validates the fields. ``_Record`` builds every record's constructor from
that declaration; no record class writes its own ``__init__``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Set
from itertools import islice
from operator import lt, sub

from .errors import InvalidInputError

TYPE_CHECKING = False
if TYPE_CHECKING:  # typing for type checkers only, as in jsonio
    from typing import Any


def _is_number_type(t: type) -> bool:
    if t is float or t is int:
        return True
    import numbers

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
    import numbers

    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{where} must be an integer, got {value!r}")
    return int(value)


# an iterable that is no ordered sequence: characters, keys, or members
# in hash order
_NOT_ARRAYS = (str, bytes, bytearray, Mapping, Set)


def array(values: Iterable, where: str, least: int = 0, most: int | None = None) -> tuple:
    """``values`` as a tuple when it is an array whose length ``count``
    accepts between ``least`` and ``most``; otherwise InvalidInputError
    naming ``where``. A tuple is returned as it is, and a tuple or a list
    skips the checks that refuse a str, bytes, mapping or set."""
    kind = type(values)
    if kind is list:
        values = tuple(values)
    elif kind is not tuple:
        try:
            values = None if isinstance(values, _NOT_ARRAYS) else tuple(values)
        except TypeError:  # not iterable
            values = None
        if values is None:
            raise InvalidInputError(f"{where} must be an array, got {kind.__name__}")
    count(len(values), f"{where} length", least, most)
    return values


_FLOAT_TYPE = frozenset({float})


def as_floats(values: Iterable, where: str, least: int = 0,
              most: int | None = None) -> tuple[float, ...]:
    """``values``, an ``array`` of ``least`` to ``most`` elements, as a
    tuple of floats, or InvalidInputError naming the first offender as
    ``where[i]``.

    A tuple of exact floats is returned as it is, without a copy. Other
    numbers are converted by one ``map(float, ...)``; the element types are
    judged once per distinct type, not once per element.
    """
    values = array(values, where, least, most)
    types = set(map(type, values))
    if types <= _FLOAT_TYPE:
        return values
    if all(map(_is_number_type, types)):
        try:
            return tuple(map(float, values))
        except OverflowError:
            pass  # the walk below names the integer beyond float range
    return tuple(as_float(v, f"{where}[{i}]") for i, v in enumerate(values))


def nonnegative(values: tuple[float, ...], where: str) -> tuple[float, ...]:
    """The floats ``values`` when each is finite and >= 0; otherwise
    InvalidInputError naming the first that is not. A NaN or an infinity
    leaves the sum not finite; a walk that finds no offender accepts valid
    values whose sum overflows, such as (1e308, 1e308)."""
    if not (min(values, default=0.0) >= 0 and math.isfinite(sum(values))):
        for x in values:
            if not (math.isfinite(x) and x >= 0):
                raise InvalidInputError(f"{where} must be finite and >= 0, got {x!r}")
    return values


def interval(a: float, b: float, where: str) -> tuple[float, float]:
    """The floats (a, b) when both are finite, a < b and the width b - a is
    a finite double; otherwise InvalidInputError naming ``where``."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInputError(f"{where} endpoints must be finite, got [{a!r}, {b!r}]")
    if not a < b:
        raise InvalidInputError(f"{where} must satisfy a < b, got [{a!r}, {b!r}]")
    # densities, cdfs and quadrature nodes divide or scale by the width
    if not math.isfinite(b - a):
        raise InvalidInputError(
            f"{where} [{a!r}, {b!r}] overflows: its width is not a finite double"
        )
    return a, b


def increasing(values: tuple[float, ...], where: str, span: str) -> tuple[float, ...]:
    """The two or more floats ``values`` when each is finite, each is
    greater than the one before and their span [values[0], values[-1]]
    passes ``interval``; otherwise InvalidInputError naming the first fault:
    a value that is not finite, then the first ``where[k] <= where[k - 1]``,
    then the span under the name ``span``."""
    # A NaN fails every comparison, and between finite end values every
    # value is finite, so one pass and one span check validate it all.
    if not (all(map(lt, values, islice(values, 1, None)))
            and math.isfinite(values[-1] - values[0])):
        for x in values:
            if not math.isfinite(x):
                raise InvalidInputError(f"{where} must be finite, got {x!r}")
        for k in range(1, len(values)):
            if values[k] <= values[k - 1]:
                raise InvalidInputError(
                    f"{where} must be strictly increasing: "
                    f"{where}[{k}]={values[k]!r} <= {where}[{k - 1}]={values[k - 1]!r}"
                )
        # every increment is at most the span, so one check keeps them finite
        interval(values[0], values[-1], span)
    return values


def positive(value: Any, where: str) -> float:
    """``value`` as a float when it is finite and > 0; otherwise
    InvalidInputError naming ``where``."""
    x = as_float(value, where)
    if not 0.0 < x < math.inf:
        raise InvalidInputError(f"{where} must be finite and > 0, got {x!r}")
    return x


def count(value: Any, where: str, least: int = 1, most: int | None = None) -> int:
    """``value`` as an int when it is >= ``least`` and, where ``most`` is
    given, <= ``most``; otherwise InvalidInputError naming ``where``."""
    n = as_int(value, where)
    if most is not None and not least <= n <= most:
        bounds = least if least == most else f"in {least}..{most}"
        raise InvalidInputError(f"{where} must be {bounds}, got {n}")
    if n < least:
        raise InvalidInputError(f"{where} must be >= {least}, got {n}")
    return n


# stores a field past _Record.__setattr__: constructors and their
# __post_init__ hooks write each field through it
_store = object.__setattr__


def result(record: Any, value: str, negative_infinity: bool,
           counts: tuple[str, ...] = (), bounds: tuple[str, ...] = ()) -> None:
    """Store a result record's ``value`` and ``bounds`` (estimates, dropped
    masses) by as_float and its ``counts`` by as_int, in field order; then
    require each count and bound >= 0 (+inf allowed, NaN not) and the value
    finite, or exactly -inf when ``negative_infinity`` is flagged."""
    for name in record._fields:
        if name in counts:
            _store(record, name, as_int(getattr(record, name), name))
        elif name == value or name in bounds:
            _store(record, name, as_float(getattr(record, name), name))
    for name in counts + bounds:
        x = getattr(record, name)
        if not x >= 0:  # refuses NaN as well as a negative value
            raise InvalidInputError(f"{name} must be >= 0, got {x!r}")
    v = getattr(record, value)
    if v != -math.inf if negative_infinity else not math.isfinite(v):
        must = "-inf when negative_infinity is flagged" if negative_infinity else "finite"
        raise InvalidInputError(f"{value} must be {must}, got {v!r}")


def _constructor(cls: type) -> Any:
    """The ``__init__`` of a record class: built from source, as
    ``collections.namedtuple`` builds ``__new__``, so that its parameters
    are the names in ``_fields`` and its defaults the class's ``_defaults``."""
    names = cls._fields
    stores = "".join(f"    _store(self, {name!r}, {name})\n" for name in names)
    source = f"def __init__(self, {', '.join(names)}):\n{stores}    self.__post_init__()\n"
    namespace = {"_store": _store}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = vars(cls).get("_defaults")
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class _Record:
    """An immutable record of the fields its subclass names in ``_fields``.

    A subclass declares the whole record: ``_fields``, the field names in
    constructor order; ``__slots__ = _fields``; optionally ``_defaults``,
    the defaults of the trailing fields; and optionally ``__post_init__``,
    the hook that converts and validates the fields and stores the results
    with ``_store``. From these ``__init_subclass__`` builds the
    constructor, ``__init__(self, *_fields)``, which stores each argument
    as its field and then calls ``self.__post_init__()``, looked up on the
    instance at each call. Two records are equal when they are of the same
    class and their field tuples are equal; the hash is the field tuple's,
    and the repr names every field, ``Beta(alpha=2.0, beta=5.0, a=0.0,
    b=1.0)``; the fields are also the positional ``__match_args__``.
    Pickling and copying rebuild a record through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields
        if "_fields" in vars(cls) and "__init__" not in vars(cls):
            cls.__init__ = _constructor(cls)

    def __post_init__(self):
        """Convert and validate the fields; a record with no rule keeps them."""

    def _field_tuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_tuple() == other._field_tuple()

    def __hash__(self):
        return hash(self._field_tuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._field_tuple()


class GradingSample(_Record):
    """A grading function observed on an enumerated ordered set.

    ``grades[k]`` is the grade of the k-th element. Strict monotonicity is
    the defining property of a grading function and is enforced eagerly:
    a repeated grade would make downstream increment ratios undefined.
    ``labels``, when given, is an array of one string per grade; a label
    that is no string is refused, not converted.
    """

    grades: tuple[float, ...]
    labels: tuple[str, ...] | None

    _fields = ("grades", "labels")
    _defaults = (None,)
    __slots__ = _fields

    def __post_init__(self):
        grades = as_floats(self.grades, "grades", 2)
        labels = self.labels
        if labels is not None:
            labels = array(labels, "labels")
            if not all(isinstance(s, str) for s in labels):
                raise InvalidInputError("labels must be an array of strings")
        increasing(grades, "grades", "grade span")
        if labels is not None and len(labels) != len(grades):
            raise InvalidInputError(f"{len(labels)} labels for {len(grades)} grades")
        _store(self, "grades", grades)
        _store(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.grades)


class IncrementPair(_Record):
    """Grade changes of two grading functions over the same element pair.

    Zero increments are representable (consumers decide how to treat them),
    negative ones are not: a grading function cannot decrease.
    """

    delta_g: float
    delta_f: float

    _fields = ("delta_g", "delta_f")
    __slots__ = _fields

    def __post_init__(self):
        for name in self._fields:
            _store(self, name, as_float(getattr(self, name), name))
        for name in self._fields:
            nonnegative((getattr(self, name),), name)


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
