import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graddiv import (
    Beta,
    Capacity,
    CapacityEntropyReport,
    ComputationError,
    DivergenceResult,
    GradingSample,
    IncrementPair,
    InvalidInputError,
    MaximalChain,
    PiecewiseLinearCdf,
    Power,
    ProbabilityVector,
    QuadratureSpec,
    Triangular,
    TruncatedNormal,
    Uniform,
    discrete,
    enumerate_chains,
    increments,
    integrate_adaptive,
    invert_cdf,
    partition_entropy,
    position_grading,
    rate_h,
    riemann_divergence,
)
from graddiv.capacity import _NUMPY_FROM
from graddiv.jsonio import capacity_from_doc, continuous_grading_from_doc, masses_from_doc
from graddiv.ordered import as_floats, count, increasing, interval, nonnegative, positive

from conftest import grading_samples


class TestGradingSample:
    def test_grades_coerced_to_float_tuple(self):
        s = GradingSample((0, 1, 2))
        assert s.grades == (0.0, 1.0, 2.0)
        assert all(isinstance(g, float) for g in s.grades)

    def test_labels_default_none(self):
        assert GradingSample((0.0, 1.0)).labels is None

    def test_labels_kept(self):
        s = GradingSample((0.0, 1.0, 2.0), labels=("a", "b", "c"))
        assert s.labels == ("a", "b", "c")
        assert GradingSample((0.0, 1.0), labels=["a", "b"]).labels == ("a", "b")

    @pytest.mark.parametrize(
        "labels, message",
        [
            (5, "labels must be an array, got int"),
            ("ab", "labels must be an array, got str"),
            ([1, 2], "labels must be an array of strings"),
            (("a", None), "labels must be an array of strings"),
            ({"a": 0, "b": 1}, "labels must be an array, got dict"),
        ],
        ids=["5", "ab", "labels2", "labels3", "labels4"],
    )
    def test_labels_not_an_array_of_strings(self, labels, message):
        # neither split, converted nor read as keys
        with pytest.raises(InvalidInputError) as err:
            GradingSample((0.0, 1.0), labels=labels)
        assert str(err.value) == message

    def test_too_few_grades(self):
        with pytest.raises(InvalidInputError):
            GradingSample((1.0,))

    def test_non_increasing(self):
        with pytest.raises(InvalidInputError):
            GradingSample((0.0, 1.0, 1.0))
        with pytest.raises(InvalidInputError):
            GradingSample((0.0, 2.0, 1.0))

    def test_non_finite(self):
        with pytest.raises(InvalidInputError):
            GradingSample((0.0, math.inf))
        with pytest.raises(InvalidInputError):
            GradingSample((math.nan, 1.0))

    @pytest.mark.parametrize(
        "grades, message",
        [
            ((0.0,), "grades length must be >= 2, got 1"),
            ((), "grades length must be >= 2, got 0"),
            # a non-finite grade is named before an earlier non-increasing pair
            ((0.0, math.nan, -1.0), "grades must be finite, got nan"),
            ((1.0, 0.0, math.inf), "grades must be finite, got inf"),
            ((0.0, 1.0, 0.5, math.inf), "grades must be finite, got inf"),
            ((1.0, 1.0, math.nan), "grades must be finite, got nan"),
            ((math.nan, 1.0), "grades must be finite, got nan"),
            ((0.0, 1.0, math.nan), "grades must be finite, got nan"),
            ((-math.inf, 0.0), "grades must be finite, got -inf"),
            ((0.0, math.inf), "grades must be finite, got inf"),
            ((0.0, 1.0, 1.0), "grades must be strictly increasing: grades[2]=1.0 <= grades[1]=1.0"),
            ((0.0, 2.0, 1.0, 3.0),
             "grades must be strictly increasing: grades[2]=1.0 <= grades[1]=2.0"),
            ((2.0, 1.0), "grades must be strictly increasing: grades[1]=1.0 <= grades[0]=2.0"),
            ((-0.0, 0.0), "grades must be strictly increasing: grades[1]=0.0 <= grades[0]=-0.0"),
            ((0.0, -0.0), "grades must be strictly increasing: grades[1]=-0.0 <= grades[0]=0.0"),
            ((-1e308, 1e308),
             "grade span [-1e+308, 1e+308] overflows: its width is not a finite double"),
        ],
    )
    def test_first_fault_is_named(self, grades, message):
        with pytest.raises(InvalidInputError) as err:
            GradingSample(grades)
        assert str(err.value) == message

    def test_label_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            GradingSample((0.0, 1.0), labels=("a",))

    def test_span_whose_width_overflows(self):
        with pytest.raises(InvalidInputError, match="overflows"):
            GradingSample((-1e308, 0.0, 1e308))
        assert increments(GradingSample((-1e308, 0.0, 7e307))) == [1e308, 7e307]


# each constructor that takes an input array, with the array's name, a valid
# array of floats exact in float32 and a valid array of integers
_CONSTRUCTORS = [
    pytest.param(GradingSample, "grades", [0.0, 0.5, 2.0], [0, 1, 3], id="GradingSample"),
    pytest.param(ProbabilityVector, "weights", [0.25, 0.25, 0.5], [0, 1, 0],
                 id="ProbabilityVector"),
    pytest.param(partition_entropy, "masses", [0.25, 0.5, 2.0], [0, 1, 3],
                 id="partition_entropy"),
    pytest.param(functools.partial(Capacity, 2), "values", [0.0, 0.5, 0.75, 1.0],
                 [0, 1, 2, 3], id="Capacity"),
]


class TestIntake:
    """Every input array goes through as_floats: one rule for what a
    number is, and InvalidInputError naming the first element that is not."""

    @pytest.mark.parametrize("build, name, floats, ints", _CONSTRUCTORS)
    @pytest.mark.parametrize(
        "bad, fault",
        [
            pytest.param(True, "must be a number, got True", id="bool"),
            pytest.param("1.5", "must be a number, got '1.5'", id="str"),
            pytest.param(None, "must be a number, got None", id="None"),
            pytest.param(10**400, "is out of float range", id="10**400"),
        ],
    )
    def test_bad_element_is_named(self, build, name, floats, ints, bad, fault):
        values = [*floats[:1], bad, *floats[2:]]
        with pytest.raises(InvalidInputError) as exc:
            build(values)
        assert str(exc.value) == f"{name}[1] {fault}"

    @pytest.mark.parametrize("build, name, floats, ints", _CONSTRUCTORS)
    def test_numpy_scalars_are_numbers(self, build, name, floats, ints):
        for values, scalar in ((floats, np.float32), (ints, np.int64)):
            got = build([scalar(v) for v in values])
            assert got == build(values)
            stored = getattr(got, name, None)  # partition_entropy keeps no array
            assert stored is None or all(type(x) is float for x in stored)

    # partition_entropy keeps no array to compare
    @pytest.mark.parametrize(
        "build, name, floats, ints", [p for p in _CONSTRUCTORS if p.id != "partition_entropy"]
    )
    def test_tuple_of_floats_is_kept_without_a_copy(self, build, name, floats, ints):
        values = tuple(floats)
        assert getattr(build(values), name) is values

    def test_partition_entropy_keeps_the_readers_tuple(self, monkeypatch):
        kept = []

        def spy(values, where):
            out = as_floats(values, where)
            kept.append(out is values)
            return out

        monkeypatch.setattr(discrete, "as_floats", spy)
        partition_entropy(masses_from_doc({"masses": [0, 0.5, 1.5]}))
        assert kept == [True]

    def test_a_tuple_of_exact_floats_is_returned_as_is(self):
        values = (0.0, -0.0, 5e-324, 1.7976931348623157e308)
        assert as_floats(values, "v") is values
        assert as_floats([], "v") == ()
        assert as_floats(iter([1, 2.5]), "v") == (1.0, 2.5)


# each argument judged by as_float (a real) or as_int (a count): a call
# that puts a value in that argument, and the name the error gives it
_U = Uniform(0.0, 1.0)
_CHAIN = MaximalChain((2, 1))
_REALS = [
    ("Uniform", lambda v: Uniform(0.0, v), "b"),
    ("Triangular", lambda v: Triangular(0.0, v, 1.0), "c"),
    ("Beta", lambda v: Beta(v, 2.0), "alpha"),
    ("TruncatedNormal", lambda v: TruncatedNormal(0.0, v, -1.0, 1.0), "sigma"),
    ("Power", lambda v: Power(v), "p"),
    ("PiecewiseLinearCdf", lambda v: PiecewiseLinearCdf(((0.0, 0.0), (1.0, v))), "knots[1][1]"),
    ("QuadratureSpec.abs_tol", lambda v: QuadratureSpec(abs_tol=v), "abs_tol"),
    ("QuadratureSpec.rel_tol", lambda v: QuadratureSpec(rel_tol=v), "rel_tol"),
    ("IncrementPair", lambda v: IncrementPair(1.0, v), "delta_f"),
    ("invert_cdf", lambda v: invert_cdf(_U, v), "u"),
    ("is_probability", _U.is_probability, "tol"),
    ("integrate_adaptive", lambda v: integrate_adaptive(abs, 0.0, v, QuadratureSpec()), "b"),
    ("integrate_adaptive.breakpoints",
     lambda v: integrate_adaptive(abs, -1.0, 1.0, QuadratureSpec(), (v,)), "breakpoints[0]"),
    ("DivergenceResult.value", lambda v: DivergenceResult(v, 1), "value"),
    ("DivergenceResult.dropped_mass", lambda v: DivergenceResult(0.0, 1, v), "dropped_mass"),
    ("DivergenceResult.error_estimate", lambda v: DivergenceResult(0.0, 1, 0.0, v),
     "error_estimate"),
    ("CapacityEntropyReport", lambda v: CapacityEntropyReport(v, _CHAIN, 2, "exhaustive"),
     "entropy"),
]
_COUNTS = [
    ("QuadratureSpec.max_depth", lambda v: QuadratureSpec(max_depth=v), "max_depth"),
    ("Capacity", lambda v: Capacity(v, (0.0, 1.0, 1.0, 2.0)), "ground_size"),
    ("MaximalChain", lambda v: MaximalChain((1, v)), "order[1]"),
    ("position_grading", position_grading, "n"),
    ("enumerate_chains", lambda v: list(enumerate_chains(v)), "n"),
    ("enumerate_chains.limit", lambda v: list(enumerate_chains(1, v)), "limit"),
    ("riemann_divergence", lambda v: riemann_divergence(_U, _U, v), "n_points"),
    ("DivergenceResult", lambda v: DivergenceResult(0.0, v), "terms_used"),
    ("CapacityEntropyReport", lambda v: CapacityEntropyReport(1.0, _CHAIN, v, "exhaustive"),
     "chains_examined"),
]
# each entry point that takes an array: a call that puts a value in the
# array's place, the name the error gives it and a valid array of elements
_ARRAYS = [
    ("GradingSample", GradingSample, "grades", [0.0, 0.5, 2.0]),
    ("labels", lambda v: GradingSample((0.0, 1.0), v), "labels", ["a", "b"]),
    ("ProbabilityVector", ProbabilityVector, "weights", [0.25, 0.75]),
    ("partition_entropy", partition_entropy, "masses", [0.25, 2.0]),
    ("Capacity", lambda v: Capacity(1, v), "values", [0.0, 0.5]),
    ("additive", Capacity.additive, "masses", [0.25, 0.5]),
    ("PiecewiseLinearCdf", PiecewiseLinearCdf, "knots", [(0.0, 0.0), (1.0, 2.0)]),
    ("knot", lambda v: PiecewiseLinearCdf(((0.0, 0.0), v)), "knots[1]", [1.0, 2.0]),
    ("MaximalChain", MaximalChain, "order", [2, 1, 3]),
    ("breakpoints", lambda v: integrate_adaptive(lambda x, da, db: abs(x), -1.0, 1.0,
                                                 QuadratureSpec(), v),
     "breakpoints", [0.0, 0.5]),
]
# what is no array: no iterable, characters, bytes, keys or members in hash order
_NOT_ARRAYS = [("5", 5), ("str", "01"), ("bytes", b"01"), ("bytearray", bytearray(b"01")),
               ("dict", {0: 1}), ("set", {0, 1}), ("frozenset", frozenset({0, 1})),
               ("keys", {0: 1}.keys())]
_NOT_A_NUMBER = [
    pytest.param(build, bad, f"{name} must be a number, got {bad!r}", id=f"{label}-{bad!r}")
    for label, build, name in _REALS
    for bad in (True, "1", None)
] + [
    pytest.param(build, bad, f"{name} must be an integer, got {bad!r}", id=f"{label}-{bad!r}")
    for label, build, name in _COUNTS
    for bad in (True, "2", None, 2.5)
] + [
    pytest.param(build, bad, f"{name} must be an array, got {type(bad).__name__}",
                 id=f"{label}-{kind}")
    for label, build, name, _ in _ARRAYS
    for kind, bad in _NOT_ARRAYS
]


class TestScalarIntake:
    """Every real argument goes through as_float, every count through
    as_int and every array through array: InvalidInputError naming the
    argument, never a silent conversion or a raw TypeError."""

    @pytest.mark.parametrize("build, bad, message", _NOT_A_NUMBER)
    def test_bad_argument_is_named(self, build, bad, message):
        with pytest.raises(InvalidInputError) as exc:
            build(bad)
        assert str(exc.value) == message

    @pytest.mark.parametrize("label, build, name, elements", _ARRAYS,
                             ids=[row[0] for row in _ARRAYS])
    def test_every_ordered_sequence_is_an_array(self, label, build, name, elements):
        want = build(list(elements))
        for values in (tuple(elements), np.array(elements), (x for x in elements),
                       dict(enumerate(elements)).values()):
            assert build(values) == want, type(values).__name__

    def test_numpy_scalars_are_numbers(self):
        built = [
            (Beta(np.float32(2.0), np.int64(3)), Beta(2.0, 3.0)),
            (Triangular(np.int64(0), np.float64(0.5), np.int32(1)), Triangular(0.0, 0.5, 1.0)),
            (PiecewiseLinearCdf(((np.int64(0), np.float32(0)), (1, np.float64(1)))),
             PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)))),
            (QuadratureSpec(np.float32(0.5), np.int64(1), np.int64(5)), QuadratureSpec(0.5, 1.0, 5)),
            (IncrementPair(np.int64(2), np.float32(0.5)), IncrementPair(2.0, 0.5)),
            (Capacity(np.int64(1), (0.0, 1.0)), Capacity(1, (0.0, 1.0))),
            (MaximalChain((np.int64(2), np.int8(1))), MaximalChain((2, 1))),
            (position_grading(np.int64(3)), position_grading(3)),
            (DivergenceResult(np.float32(0.5), np.int64(2), np.int8(0), np.float64(1e-9)),
             DivergenceResult(0.5, 2, 0.0, 1e-9)),
            (CapacityEntropyReport(np.float32(0.5), _CHAIN, np.int64(2), "exhaustive"),
             CapacityEntropyReport(0.5, _CHAIN, 2, "exhaustive")),
        ]
        for got, want in built:
            # a numpy scalar kept in a field would show in the repr
            assert got == want and repr(got) == repr(want)
        assert invert_cdf(_U, np.float32(0.25)) == 0.25

        def fn(x, da, db):
            return abs(x)

        assert integrate_adaptive(fn, np.int64(-1), np.float32(1.0), QuadratureSpec(),
                                  (np.float64(0.0),)) == integrate_adaptive(
            fn, -1.0, 1.0, QuadratureSpec(), (0.0,))
        P2 = Power(2.0)
        assert riemann_divergence(P2, _U, np.int64(10)) == riemann_divergence(P2, _U, 10)
        assert [c.order for c in enumerate_chains(np.int64(2))] == [(1, 2), (2, 1)]


def _first_offender(values):
    """The plain-loop oracle of ordered.nonnegative: the first value that is
    not finite and >= 0, or None."""
    for x in values:
        if not (math.isfinite(x) and x >= 0):
            return x
    return None


# NaN, both infinities, the negatives nearest zero, both zeros, subnormals
# and values that are valid alone but whose sum overflows, mixed with any
# float at all
_EDGES = [math.nan, math.inf, -math.inf, -5e-324, -1e-308, -1.0, -0.0, 0.0, 5e-324,
          2.2250738585072014e-308, 1.0, 1e308, 1.7976931348623157e308]
_MIXED = st.lists(st.one_of(st.sampled_from(_EDGES), st.floats()), max_size=7)
_RULE_EXAMPLES = [[1e308, 1e308], [1.7976931348623157e308] * 3, [-0.0, 5e-324],
                  [1e308, 1e308, math.nan], [2.0, math.nan, -1.0], [math.nan, -5e-324],
                  [1e308, -5e-324, math.inf], []]


def _with_examples(test):
    for values in _RULE_EXAMPLES:
        test = example(values)(test)
    return test


def _refusal(build, values):
    """The message of the InvalidInputError that build(values) raises, or
    None when it raises none (a ComputationError counts as none)."""
    try:
        build(values)
    except InvalidInputError as exc:
        return str(exc)
    except ComputationError:
        pass
    return None


def _capacity_of(n):
    """A Capacity of n elements whose values at masks 1, 2, ... are the
    given values; the rest are valid, and monotone."""
    def build(values):
        vals = [float(bin(m).count("1")) for m in range(1 << n)]
        vals[1:1 + len(values)] = values
        return Capacity(n, vals)
    return build


class TestNonnegative:
    """ordered.nonnegative is the one rule for weights, masses and capacity
    values: each finite and >= 0, else the first that is not is named."""

    @given(_MIXED)
    @_with_examples
    def test_accepts_exactly_finite_nonnegative_values(self, values):
        values = tuple(values)
        bad = _first_offender(values)
        if bad is None:
            assert nonnegative(values, "v") is values
        else:
            with pytest.raises(InvalidInputError) as exc:
                nonnegative(values, "v")
            assert str(exc.value) == f"v must be finite and >= 0, got {bad!r}"

    @given(_MIXED)
    @_with_examples
    def test_every_caller_names_the_same_offender(self, values):
        bad = _first_offender(values)
        callers = [
            ("weights", ProbabilityVector),
            ("masses", lambda v: masses_from_doc({"masses": v})),
            ("masses", partition_entropy),
            ("subset values", _capacity_of(3)),
            ("subset values", _capacity_of(_NUMPY_FROM)),
        ]
        for where, build in callers:
            refusal = _refusal(build, list(values))
            if bad is None:
                # refused, if at all, for a fault other than the rule's
                assert refusal is None or "finite and >= 0" not in refusal, where
            else:
                assert refusal == f"{where} must be finite and >= 0, got {bad!r}", where


_FAMILY_PARAMS = {
    "uniform": {},
    "triangular": {"c": 0.5},
    "beta": {"alpha": 2.0, "beta": 5.0},
    "truncated_normal": {"mu": 0.0, "sigma": 1.0},
    "power": {"p": 2.0},
}


# each entry point of ordered.interval: a call that puts [a, b] where the
# rule reads it, the name the rule gives it, and for the knots and grades,
# whose elements ordered.increasing judges first, the texts it gives for
# the infinite, NaN and a >= b cases below
_KNOT_X = {
    "infinite": "knot x must be finite, got inf",
    "nan": "knot x must be finite, got nan",
    "a>=b": "knot x must be strictly increasing: knot x[1]=1.0 <= knot x[0]=1.0",
}
_INTERVALS = [
    pytest.param(Uniform, "support", {}, id="Uniform"),
    pytest.param(lambda a, b: Triangular(a, 0.5, b), "support", {}, id="Triangular"),
    pytest.param(lambda a, b: Beta(2.0, 5.0, a, b), "support", {}, id="Beta"),
    pytest.param(lambda a, b: TruncatedNormal(0.0, 1.0, a, b), "support", {},
                 id="TruncatedNormal"),
    pytest.param(lambda a, b: Power(2.0, a, b), "support", {}, id="Power"),
    *[
        pytest.param(lambda a, b, family=family, params=params: continuous_grading_from_doc(
            {"family": family, "params": params, "support": [a, b]}), "support", {},
            id=f"from_doc-{family}")
        for family, params in _FAMILY_PARAMS.items()
    ],
    pytest.param(lambda a, b: continuous_grading_from_doc(
        {"family": "piecewise_linear_cdf", "params": {"knots": [[a, 0.0], [b, 1.0]]},
         "support": [a, b]}), "support", _KNOT_X, id="from_doc-piecewise_linear_cdf"),
    pytest.param(lambda a, b: PiecewiseLinearCdf(((a, 0.0), (b, 1.0))), "support", _KNOT_X,
                 id="PiecewiseLinearCdf-x"),
    pytest.param(lambda a, b: PiecewiseLinearCdf(((0.0, a), (1.0, b))), "grade span", {
        "infinite": "knot y must be finite, got inf",
        "nan": "knot y must be finite, got nan",
        "a>=b": "knot y must be strictly increasing: knot y[1]=1.0 <= knot y[0]=1.0",
    }, id="PiecewiseLinearCdf-y"),
    pytest.param(lambda a, b: GradingSample((a, b)), "grade span", {
        "infinite": "grades must be finite, got inf",
        "nan": "grades must be finite, got nan",
        "a>=b": "grades must be strictly increasing: grades[1]=1.0 <= grades[0]=1.0",
    }, id="GradingSample"),
    pytest.param(lambda a, b: integrate_adaptive(lambda x, da, db: 1.0, a, b, QuadratureSpec()),
                 "integration interval", {}, id="integrate_adaptive"),
]
_BAD_INTERVALS = [
    pytest.param(0.0, math.inf, "infinite", "{} endpoints must be finite, got [0.0, inf]",
                 id="infinite"),
    pytest.param(math.nan, 1.0, "nan", "{} endpoints must be finite, got [nan, 1.0]", id="nan"),
    pytest.param(1.0, 1.0, "a>=b", "{} must satisfy a < b, got [1.0, 1.0]", id="a>=b"),
    pytest.param(-1e308, 1e308, "overflow",
                 "{} [-1e+308, 1e+308] overflows: its width is not a finite double",
                 id="overflow"),
]


class TestInterval:
    """ordered.interval is the one rule for a support, a grade span or an
    integration interval: finite ends, a < b and a finite width."""

    @pytest.mark.parametrize("build, where, element", _INTERVALS)
    @pytest.mark.parametrize("a, b, case, rule", _BAD_INTERVALS)
    def test_every_entry_point_names_the_fault(self, build, where, element, a, b, case, rule):
        with pytest.raises(InvalidInputError) as exc:
            build(a, b)
        assert str(exc.value) == element.get(case, rule.format(where))

    @given(st.floats(), st.floats())
    @example(-1e308, 1e308)
    @example(-0.0, 0.0)
    @example(-math.inf, math.inf)
    def test_accepts_exactly_finite_increasing_spans(self, a, b):
        if math.isfinite(a) and math.isfinite(b) and a < b and math.isfinite(b - a):
            assert interval(a, b, "v") == (a, b)
        else:
            with pytest.raises(InvalidInputError, match=r"^v"):
                interval(a, b, "v")

    @pytest.mark.parametrize(
        "a, b, mass, message",
        [
            # before the rule, exp(-x) ran here and met x = nan or x = -inf
            (0.0, math.inf, None, "integration interval endpoints must be finite, got [0.0, inf]"),
            (-1e308, 1e308, None,
             "integration interval [-1e+308, 1e+308] overflows: its width is not a finite double"),
            # nan and -1.0 ran all 12 levels before the rule; any deficit met inf
            (0.0, 1.0, math.nan, "mass must be finite and >= 0, got nan"),
            (0.0, 1.0, -1.0, "mass must be finite and >= 0, got -1.0"),
            (0.0, 1.0, math.inf, "mass must be finite and >= 0, got inf"),
        ],
    )
    def test_integrate_adaptive_refuses_before_calling_fn(self, a, b, mass, message):
        calls = []

        def fn(x, da, db):
            calls.append(x)
            return math.exp(-x) if mass is None else (math.exp(-x), 1.0)

        with pytest.raises(InvalidInputError) as exc:
            integrate_adaptive(fn, a, b, QuadratureSpec(), mass=mass)
        assert str(exc.value) == message
        assert calls == []


def _increasing_oracle(values, where, span):
    """The plain-loop oracle of ordered.increasing: None when the values are
    finite, strictly increasing and span a finite width, else the text of
    the first fault."""
    for x in values:
        if not math.isfinite(x):
            return f"{where} must be finite, got {x!r}"
    for k in range(1, len(values)):
        if values[k] <= values[k - 1]:
            return (f"{where} must be strictly increasing: "
                    f"{where}[{k}]={values[k]!r} <= {where}[{k - 1}]={values[k - 1]!r}")
    if not math.isfinite(values[-1] - values[0]):
        return f"{span} [{values[0]!r}, {values[-1]!r}] overflows: its width is not a finite double"
    return None


# repeats, NaN, both infinities, both zeros and ends whose span passes
# 1.8e308, mixed with any float, in any order or sorted
_GRADE_EDGES = [math.nan, math.inf, -math.inf, -1.7976931348623157e308, -1e308, -1.0, -0.0,
                0.0, 5e-324, 1.0, 1e308, 1.7976931348623157e308]
_SEQUENCES = st.lists(st.one_of(st.sampled_from(_GRADE_EDGES), st.floats()),
                      min_size=2, max_size=6)


class TestIncreasing:
    """ordered.increasing is the one rule for grades and for each knot
    coordinate: every value finite, each above the one before, and a span
    whose width is a finite double."""

    @given(st.one_of(_SEQUENCES, _SEQUENCES.map(sorted)))
    @example([1.0, 1.0])
    @example([-1e308, 0.0, 1e308])
    @example([0.0, math.nan, -1.0])
    @example([2.0, 1.0, math.inf])
    @example([-0.0, 0.0])
    def test_grades_and_both_knot_coordinates_agree(self, values):
        values = tuple(values)
        fault = _increasing_oracle(values, "v", "s")
        if fault is None:
            assert increasing(values, "v", "s") is values
        else:
            with pytest.raises(InvalidInputError) as exc:
                increasing(values, "v", "s")
            assert str(exc.value) == fault
        steps = tuple(map(float, range(len(values))))
        callers = [
            ("grades", "grade span", GradingSample),
            ("knot x", "support", lambda v: PiecewiseLinearCdf(tuple(zip(v, steps)))),
            ("knot y", "grade span", lambda v: PiecewiseLinearCdf(tuple(zip(steps, v)))),
        ]
        for where, span, build in callers:
            assert _refusal(build, values) == _increasing_oracle(values, where, span), where


# each entry point of ordered.positive and ordered.count, and the rules
# beside them, with the text of a value they refuse
_BOUNDS = [
    (lambda: QuadratureSpec(abs_tol=0.0), "abs_tol must be finite and > 0, got 0.0"),
    (lambda: QuadratureSpec(abs_tol=-1e-8), "abs_tol must be finite and > 0, got -1e-08"),
    (lambda: QuadratureSpec(rel_tol=math.nan), "rel_tol must be finite and > 0, got nan"),
    (lambda: QuadratureSpec(rel_tol=math.inf), "rel_tol must be finite and > 0, got inf"),
    (lambda: QuadratureSpec(max_depth=0), "max_depth must be >= 1, got 0"),
    (lambda: Beta(0.0, 1.0), "alpha must be finite and > 0, got 0.0"),
    (lambda: Beta(1.0, math.inf), "beta must be finite and > 0, got inf"),
    (lambda: TruncatedNormal(0.0, -1.0, -1.0, 1.0), "sigma must be finite and > 0, got -1.0"),
    (lambda: TruncatedNormal(math.nan, 1.0, -1.0, 1.0), "mu must be finite, got nan"),
    (lambda: Power(-2.0), "p must be finite and > 0, got -2.0"),
    (lambda: Power(math.nan), "p must be finite and > 0, got nan"),
    (lambda: riemann_divergence(_U, _U, 1), "n_points must be >= 2, got 1"),
    (lambda: position_grading(0), "n must be >= 1, got 0"),
    (lambda: list(enumerate_chains(0)), "n must be in 1..10, got 0"),
    (lambda: list(enumerate_chains(11)), "n must be in 1..10, got 11"),
    (lambda: list(enumerate_chains(3, 2)), "n must be in 1..2, got 3"),
    (lambda: list(enumerate_chains(3, 0)), "limit must be >= 1, got 0"),
    # a bare TypeError from comparing n with the limit before the rule
    (lambda: list(enumerate_chains(3, "x")), "limit must be an integer, got 'x'"),
    (lambda: list(enumerate_chains(3, 10.5)), "limit must be an integer, got 10.5"),
    (lambda: Capacity(0, (0.0,)), "ground_size must be in 1..62, got 0"),
    (lambda: capacity_from_doc({"ground_size": -1, "values": {}}),
     "ground_size must be in 1..62, got -1"),
    # a bare ValueError formatting 2**20000, a 2**(10**12) never finished
    # and a bare OverflowError sizing 2**63 values
    (lambda: Capacity(20000, ()), "ground_size must be in 1..62, got 20000"),
    (lambda: Capacity(10**12, ()), "ground_size must be in 1..62, got 1000000000000"),
    (lambda: Capacity.additive([0.0] * 63), "masses length must be in 1..62, got 63"),
    # a bare TypeError from comparing the tolerance before the rule
    (lambda: _U.is_probability("x"), "tol must be a number, got 'x'"),
    (lambda: _U.is_probability(math.nan), "tol must be finite and >= 0, got nan"),
    (lambda: _U.is_probability(-1e-12), "tol must be finite and >= 0, got -1e-12"),
]


class TestPositiveAndCount:
    """ordered.positive is the one rule for a tolerance, shape or scale and
    ordered.count the one rule for a count."""

    @pytest.mark.parametrize("build, message", _BOUNDS)
    def test_every_entry_point_names_the_bound(self, build, message):
        with pytest.raises(InvalidInputError) as exc:
            build()
        assert str(exc.value) == message

    @given(st.one_of(st.floats(), st.integers(-3, 3)))
    @example(5e-324)
    @example(-0.0)
    def test_positive_accepts_exactly_finite_values_above_zero(self, x):
        if 0 < x < math.inf:
            assert positive(x, "v") == float(x)
        else:
            with pytest.raises(InvalidInputError) as exc:
                positive(x, "v")
            assert str(exc.value) == f"v must be finite and > 0, got {float(x)!r}"

    @given(st.integers(-5, 20))
    def test_count_accepts_exactly_its_range(self, n):
        for least, most, text in ((2, None, f"v must be >= 2, got {n}"),
                                  (1, 10, f"v must be in 1..10, got {n}")):
            if least <= n and (most is None or n <= most):
                assert count(n, "v", least, most) == n
            else:
                assert _refusal(lambda v: count(v, "v", least, most), n) == text

    def test_zero_tolerance_and_limit_at_n_are_accepted(self):
        assert _U.is_probability(0.0)
        assert not PiecewiseLinearCdf(((0.0, 0.0), (1.0, 2.0))).is_probability(0)
        assert len(list(enumerate_chains(3, 3))) == 6


class TestIncrements:
    def test_two_point_sample(self):
        s = GradingSample((0.0, 1.0))
        assert increments(s) == [1.0]

    def test_three_point_sample(self):
        s = GradingSample((0.0, 0.25, 1.0))
        assert increments(s) == [0.25, 0.75]

    def test_negative_grades(self):
        s = GradingSample((-2.0, -0.5, 3.0))
        assert increments(s) == [1.5, 3.5]

    @given(grading_samples)
    def test_increments_telescope(self, sample):
        total = math.fsum(increments(sample))
        span = sample.grades[-1] - sample.grades[0]
        assert abs(total - span) <= 1e-12 * max(1.0, abs(span))

    @given(grading_samples)
    def test_increments_positive(self, sample):
        assert all(d > 0 for d in increments(sample))


class TestIncrementPair:
    def test_negative_delta_g(self):
        with pytest.raises(InvalidInputError) as exc:
            IncrementPair(-1.0, 1.0)
        assert str(exc.value) == "delta_g must be finite and >= 0, got -1.0"

    def test_negative_delta_f(self):
        with pytest.raises(InvalidInputError) as exc:
            IncrementPair(1.0, -1.0)
        assert str(exc.value) == "delta_f must be finite and >= 0, got -1.0"

    def test_non_finite(self):
        with pytest.raises(InvalidInputError) as exc:
            IncrementPair(math.inf, 1.0)
        assert str(exc.value) == "delta_g must be finite and >= 0, got inf"
        with pytest.raises(InvalidInputError) as exc:
            IncrementPair(1.0, math.nan)
        assert str(exc.value) == "delta_f must be finite and >= 0, got nan"

    def test_both_fields_are_converted_before_either_is_judged(self):
        with pytest.raises(InvalidInputError) as exc:
            IncrementPair(-1.0, "x")
        assert str(exc.value) == "delta_f must be a number, got 'x'"

    def test_zero_allowed(self):
        pair = IncrementPair(0.0, 0.0)
        assert pair.delta_g == 0.0 and pair.delta_f == 0.0


class TestRateH:
    def test_unit_ratio_is_exactly_zero(self):
        assert rate_h(IncrementPair(1.0, 1.0)) == 0.0

    def test_ratio_two(self):
        assert rate_h(IncrementPair(2.0, 1.0)) == math.log(2.0)

    def test_ratio_one_quarter(self):
        assert rate_h(IncrementPair(0.5, 2.0)) == math.log(0.25)

    def test_zero_numerator_diverges(self):
        assert rate_h(IncrementPair(0.0, 1.0)) == -math.inf

    def test_ratio_below_double_range(self):
        # 5e-324 / 1e10 underflows to 0, yet the rate is finite
        assert rate_h(IncrementPair(5e-324, 1e10)) == math.log(5e-324) - math.log(1e10)

    def test_ratio_beyond_double_range(self):
        # 1e300 / 1e-300 overflows to inf, yet the rate is ln 1e600
        assert rate_h(IncrementPair(1e300, 1e-300)) == math.log(1e300) - math.log(1e-300)
        assert rate_h(IncrementPair(1e300, 1e-300)) == pytest.approx(600 * math.log(10.0))

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidInputError):
            rate_h(IncrementPair(1.0, 0.0))

    @given(st.floats(1e-6, 1e6))
    def test_equal_increments_give_zero(self, s):
        assert rate_h(IncrementPair(s, s)) == 0.0

    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_additive_on_products(self, x, y):
        hx = rate_h(IncrementPair(x, 1.0))
        hy = rate_h(IncrementPair(y, 1.0))
        hxy = rate_h(IncrementPair(x * y, 1.0))
        tol = 4 * math.ulp(max(1.0, abs(hx), abs(hy), abs(hxy)))
        assert abs(hxy - (hx + hy)) <= tol

    @given(
        st.integers(-30, 30),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariance_exact_for_dyadic_factors(self, k, dg, df):
        # Powers of two multiply without rounding, so the scaled quotient
        # is bit-identical and the rate must match exactly.
        a = math.ldexp(1.0, k)
        assert rate_h(IncrementPair(a * dg, a * df)) == rate_h(IncrementPair(dg, df))
