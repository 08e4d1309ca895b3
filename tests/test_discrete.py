import math
import sys
import tracemalloc

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graddiv import (
    EMPTY,
    NEGATIVE_INFINITY,
    ComputationError,
    DivergenceResult,
    GradingSample,
    InvalidInputError,
    ProbabilityVector,
    cdf_grading,
    divergence_discrete,
    increments,
    partition_entropy,
    position_grading,
    relative_entropy,
    shannon_entropy,
)

from conftest import (
    dyadic_grid_sample,
    grading_sample_pairs,
    increasing_integers,
    paired_vectors,
    positive_vectors,
)


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def close_sum(whole: float, parts: list[float], tol: float = 1e-12) -> bool:
    # A sum identity is relative to the operand magnitudes: parts may be
    # large and cancel, leaving a small whole.
    scale = max(1.0, abs(whole), math.fsum(abs(p) for p in parts))
    return abs(whole - math.fsum(parts)) <= tol * scale


class TestProbabilityVector:
    def test_accepts_unit_sum(self):
        v = ProbabilityVector((0.25, 0.75))
        assert len(v) == 2
        assert v.weights == (0.25, 0.75)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            ProbabilityVector((0.25, 0.25))

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            ProbabilityVector((-0.5, 1.5))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            ProbabilityVector(())

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            ProbabilityVector((math.inf, 1.0))

    def test_sum_tolerance_is_tight(self):
        ProbabilityVector((0.5, 0.5 + 5e-10))
        with pytest.raises(InvalidInputError):
            ProbabilityVector((0.5, 0.5 + 5e-9))

    def test_sum_beyond_float_range_rejected(self):
        with pytest.raises(InvalidInputError, match="sum to 1"):
            ProbabilityVector((1e308, 1e308))


_NAN, _INF = math.nan, math.inf

# (values, the value named) for weights and masses alike: NaN, inf and a
# negative value, each found first in either order.
_NONNEGATIVE_FAULTS = [
    ((_NAN, -1.0, 2.0), "nan"),
    ((-1.0, _NAN, 2.0), "-1.0"),
    ((_INF, -0.5), "inf"),
    ((-0.5, _INF), "-0.5"),
    ((0.5, -_INF, 1.5), "-inf"),
    ((-_INF, _NAN), "-inf"),
    ((0.5, 0.5, _NAN), "nan"),
    ((1.5, -0.5), "-0.5"),
    ((0.5, 0.5, -1e-300), "-1e-300"),
]


class TestFirstFaultNamed:
    @pytest.mark.parametrize("values, named", _NONNEGATIVE_FAULTS)
    def test_weights(self, values, named):
        with pytest.raises(InvalidInputError) as err:
            ProbabilityVector(values)
        assert str(err.value) == f"weights must be finite and >= 0, got {named}"

    @pytest.mark.parametrize("values, named", _NONNEGATIVE_FAULTS)
    def test_masses(self, values, named):
        with pytest.raises(InvalidInputError) as err:
            partition_entropy(values)
        assert str(err.value) == f"masses must be finite and >= 0, got {named}"

    def test_negative_zero_is_a_nonnegative_value(self):
        assert ProbabilityVector((-0.0, 1.0)).weights == (0.0, 1.0)
        assert partition_entropy((-0.0, 1.0)).terms_used == 1


class TestDivergenceResult:
    def test_kl_negates_value(self):
        r = DivergenceResult(value=-0.25, terms_used=3)
        assert r.kl == 0.25

    def test_kl_of_negative_infinity(self):
        r = DivergenceResult(
            value=-math.inf, terms_used=1, flags=frozenset({NEGATIVE_INFINITY})
        )
        assert r.kl == math.inf

    def test_negative_infinity_requires_flag(self):
        with pytest.raises(InvalidInputError):
            DivergenceResult(value=-math.inf, terms_used=1)

    def test_flag_requires_negative_infinity(self):
        with pytest.raises(InvalidInputError):
            DivergenceResult(
                value=0.0, terms_used=1, flags=frozenset({NEGATIVE_INFINITY})
            )

    def test_unknown_flag_rejected(self):
        with pytest.raises(InvalidInputError):
            DivergenceResult(value=0.0, terms_used=1, flags=frozenset({"bogus"}))

    def test_negative_counters_rejected(self):
        with pytest.raises(InvalidInputError):
            DivergenceResult(value=0.0, terms_used=-1)
        with pytest.raises(InvalidInputError):
            DivergenceResult(value=0.0, terms_used=1, dropped_mass=-0.1)

    @pytest.mark.parametrize(
        "field, bad",
        [("dropped_mass", _NAN), ("error_estimate", -1.0), ("error_estimate", _NAN),
         ("error_estimate", -5e-324)],
    )
    def test_diagnostics_that_bound_nothing_rejected(self, field, bad):
        # a NaN or a negative estimate cannot bound any error
        with pytest.raises(InvalidInputError, match=field):
            DivergenceResult(value=0.0, terms_used=1, **{field: bad})

    def test_zero_and_infinite_diagnostics_accepted(self):
        r = DivergenceResult(value=0.0, terms_used=1, dropped_mass=-0.0, error_estimate=_INF)
        assert (r.dropped_mass, r.error_estimate) == (0.0, _INF)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"value": _INF, "flags": {NEGATIVE_INFINITY}},
             "value must be -inf when negative_infinity is flagged, got inf"),
            ({"value": _NAN, "flags": {NEGATIVE_INFINITY}},
             "value must be -inf when negative_infinity is flagged, got nan"),
            ({"value": 0.0, "flags": {NEGATIVE_INFINITY}},
             "value must be -inf when negative_infinity is flagged, got 0.0"),
            ({"value": -_INF}, "value must be finite, got -inf"),
            ({"value": _NAN}, "value must be finite, got nan"),
            ({"terms_used": -1}, "terms_used must be >= 0, got -1"),
            ({"dropped_mass": -0.1}, "dropped_mass must be >= 0, got -0.1"),
            ({"dropped_mass": _NAN}, "dropped_mass must be >= 0, got nan"),
            ({"error_estimate": -5e-324}, "error_estimate must be >= 0, got -5e-324"),
            ({"flags": None}, "flags must be an iterable of flag names, got None"),
            ({"flags": 3}, "flags must be an iterable of flag names, got 3"),
            ({"flags": "empty"}, "flags must be an iterable of flag names, got 'empty'"),
            ({"flags": [["empty"]]},
             "flags must be an iterable of flag names, got [['empty']]"),
            ({"flags": {"bogus", 3}}, "unknown result flags: [3, 'bogus']"),
        ],
    )
    def test_refusals_name_the_field(self, fields, message):
        with pytest.raises(InvalidInputError) as exc:
            DivergenceResult(**{"value": 0.0, "terms_used": 1, **fields})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "flags",
        [["empty"], ("empty",), {"empty": 1}, iter(["empty", "empty"]),
         frozenset({"empty"})],
        ids=["list", "tuple", "dict", "iterator", "frozenset"],
    )
    def test_any_iterable_of_flag_names_is_accepted(self, flags):
        r = DivergenceResult(0.5, 1, flags=flags)
        assert r.flags == frozenset({EMPTY}) and type(r.flags) is frozenset


class TestDivergenceDiscrete:
    def test_doubling_grading(self):
        f = GradingSample((0.0, 0.5, 1.0))
        g = GradingSample((0.0, 1.0, 2.0))
        r = divergence_discrete(f, g)
        assert r.value == math.log(2.0)
        assert r.terms_used == 2
        assert r.dropped_mass == 0.0
        assert r.flags == frozenset()

    def test_identical_gradings_give_zero(self):
        f = GradingSample((0.0, 0.3, 1.1, 4.0))
        r = divergence_discrete(f, f)
        assert r.value == 0.0

    def test_two_cell_asymmetric(self):
        f = GradingSample((0.0, 0.25, 1.0))
        g = GradingSample((0.0, 0.5, 1.0))
        assert divergence_discrete(f, g).value == -0.13081203594113702

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            divergence_discrete(
                GradingSample((0.0, 1.0)), GradingSample((0.0, 0.5, 1.0))
            )

    @given(grading_sample_pairs)
    def test_always_finite(self, pair):
        f, g = pair
        r = divergence_discrete(f, g)
        assert math.isfinite(r.value)
        assert r.terms_used == len(f.grades) - 1

    @given(
        increasing_integers,
        increasing_integers,
        st.integers(-10, 10),
        st.integers(-(1 << 20), 1 << 20),
    )
    def test_scaling_law_bit_exact_on_dyadic_grid(self, mf, mg, k, j):
        # D(aF + b, aG + b) = a D(F, G). On a dyadic grid with a = 2**k the
        # transformed grades, their increments, and every product in the sum
        # round identically, so the law holds bit for bit.
        if len(mf) != len(mg):
            mf = mf[: min(len(mf), len(mg))]
            mg = mg[: len(mf)]
        if len(mf) < 2:
            return
        f, g = dyadic_grid_sample(mf), dyadic_grid_sample(mg)
        a, b = math.ldexp(1.0, k), math.ldexp(j, -10)
        fa = GradingSample(tuple(a * x + b for x in f.grades))
        ga = GradingSample(tuple(a * x + b for x in g.grades))
        base = divergence_discrete(f, g).value
        scaled = divergence_discrete(fa, ga).value
        assert scaled == a * base

    def test_scaling_law_generic_factor(self):
        # a = 3 with quarter-unit grades keeps every transformed grade exact.
        f = GradingSample((0.0, 0.25, 1.0))
        g = GradingSample((0.0, 0.5, 1.0))
        a, b = 3.0, 0.125
        fa = GradingSample(tuple(a * x + b for x in f.grades))
        ga = GradingSample(tuple(a * x + b for x in g.grades))
        base = divergence_discrete(f, g).value
        scaled = divergence_discrete(fa, ga).value
        assert rel_close(scaled, a * base)

    @given(grading_sample_pairs)
    def test_concatenation_additivity(self, pair):
        # Splitting the index range in two splits the sum: the divergence of
        # the whole equals the sum over the parts sharing the cut grade.
        f, g = pair
        n = len(f.grades)
        if n < 3:
            return
        cut = n // 2
        whole = divergence_discrete(f, g).value
        left = divergence_discrete(
            GradingSample(f.grades[: cut + 1]), GradingSample(g.grades[: cut + 1])
        ).value
        right = divergence_discrete(
            GradingSample(f.grades[cut:]), GradingSample(g.grades[cut:])
        ).value
        assert close_sum(whole, [left, right])

    def test_streams_its_increments(self):
        # Two 1e5-grade samples: lists of both increment sequences would
        # take about 6 MB; the kernel keeps only a few floats alive.
        n = 100_000
        f = position_grading(n - 1)
        g = GradingSample(tuple(1.5 * k + 0.25 * (k % 2) for k in range(n)))
        tracemalloc.start()
        try:
            divergence_discrete(f, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestRelativeEntropy:
    def test_identical_vectors_give_zero(self):
        f = ProbabilityVector((0.2, 0.3, 0.5))
        assert relative_entropy(f, f).value == 0.0

    def test_two_cell_value(self):
        f = ProbabilityVector((0.25, 0.75))
        g = ProbabilityVector((0.5, 0.5))
        assert relative_entropy(f, g).value == -0.13081203594113702

    def test_zero_target_mass_diverges(self):
        f = ProbabilityVector((0.5, 0.5))
        g = ProbabilityVector((1.0, 0.0))
        r = relative_entropy(f, g)
        assert r.value == -math.inf
        assert r.flags == frozenset({NEGATIVE_INFINITY})
        assert r.dropped_mass == 0.5
        assert r.terms_used == 1
        assert r.kl == math.inf

    def test_zero_source_mass_skipped(self):
        f = ProbabilityVector((0.0, 1.0))
        g = ProbabilityVector((0.5, 0.5))
        r = relative_entropy(f, g)
        assert r.value == math.log(0.5)
        assert r.terms_used == 1
        assert r.dropped_mass == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            relative_entropy(
                ProbabilityVector((1.0,)), ProbabilityVector((0.5, 0.5))
            )

    @given(paired_vectors)
    def test_gibbs_bound(self, pair):
        f, g = pair
        assert relative_entropy(f, g).value <= 0.0

    @given(positive_vectors)
    def test_matches_divergence_of_cdf_gradings(self, f):
        g = ProbabilityVector(tuple(reversed(f.weights)))
        direct = relative_entropy(f, g).value
        via_cdf = divergence_discrete(cdf_grading(f), cdf_grading(g)).value
        assert rel_close(direct, via_cdf)


class TestShannonEntropy:
    def test_fair_coin(self):
        r = shannon_entropy(ProbabilityVector((0.5, 0.5)))
        assert r.value == math.log(2.0)

    def test_uniform_four(self):
        r = shannon_entropy(ProbabilityVector((0.25, 0.25, 0.25, 0.25)))
        assert r.value == math.log(4.0)
        assert r.terms_used == 4

    def test_point_mass(self):
        r = shannon_entropy(ProbabilityVector((1.0,)))
        assert r.value == 0.0
        assert r.terms_used == 1

    def test_zero_cells_skipped(self):
        r = shannon_entropy(ProbabilityVector((0.5, 0.0, 0.5)))
        assert r.value == math.log(2.0)
        assert r.terms_used == 2

    @given(positive_vectors)
    def test_matches_divergence_from_position(self, f):
        direct = shannon_entropy(f).value
        via = divergence_discrete(cdf_grading(f), position_grading(len(f))).value
        assert rel_close(direct, via)

    @given(positive_vectors)
    def test_permutation_invariance(self, f):
        g = ProbabilityVector(tuple(sorted(f.weights)))
        assert rel_close(shannon_entropy(f).value, shannon_entropy(g).value)

    @given(positive_vectors)
    def test_nonnegative_and_bounded(self, f):
        h = shannon_entropy(f).value
        assert -1e-15 <= h <= math.log(len(f)) + 1e-12


class TestPartitionEntropy:
    def test_half_half(self):
        assert partition_entropy((0.5, 0.5)).value == math.log(2.0)

    def test_unit_masses_give_zero(self):
        r = partition_entropy((1.0, 1.0))
        assert r.value == 0.0
        assert not math.copysign(1.0, r.value) < 0

    def test_unnormalized_masses_can_go_negative(self):
        r = partition_entropy((2.0, 0.5))
        assert r.value == -1.0397207708399179
        assert r.value == -(2.0 * math.log(2.0) + 0.5 * math.log(0.5))

    def test_empty_partition(self):
        r = partition_entropy(())
        assert r.value == 0.0
        assert r.flags == frozenset({EMPTY})
        assert r.terms_used == 0

    def test_zero_mass_cells_skipped(self):
        r = partition_entropy((0.5, 0.0, 0.5))
        assert r.value == math.log(2.0)
        assert r.terms_used == 2

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidInputError):
            partition_entropy((0.5, -0.5))

    def test_overflowing_sum_is_a_computation_failure(self):
        with pytest.raises(ComputationError, match="overflowed"):
            partition_entropy((1e308, 1e308))
        with pytest.raises(ComputationError, match="overflowed"):
            partition_entropy((1.7e308,))

    def test_matches_shannon_on_probability_masses(self):
        f = ProbabilityVector((0.1, 0.2, 0.3, 0.4))
        assert partition_entropy(f.weights).value == shannon_entropy(f).value


def _left_to_right(xs: list[float]) -> float:
    total = 0.0
    for x in xs:
        total += x
    return total


def _completed(ws: list[float]) -> ProbabilityVector:
    """ws and a last weight that brings the sum of the multiples of 1/256
    among them to 1; subnormal weights add below the sum tolerance."""
    return ProbabilityVector((*ws, 1.0 - math.fsum(w for w in ws if w >= 2.0 ** -8)))


# Zero, subnormal, and ordinary weights that are multiples of 1/256, up
# to 8 of them before the last: their running sums are exact, so a cdf
# grading's increments are the weights unless a weight is swallowed. Half
# of the draws are ordinary, so that most vectors keep a finite value.
_ordinary_weight = st.integers(1, 15).map(lambda c: c / 256)
_mixed_weight = st.one_of(
    st.just(0.0),
    st.integers(1, 1 << 20).map(lambda k: k * 5e-324),
    _ordinary_weight,
    _ordinary_weight,
)
_mixed_pairs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.lists(_mixed_weight, min_size=n, max_size=n)] * 2)
).map(lambda p: (_completed(p[0]), _completed(p[1])))


def _assert_within_rounding(r: DivergenceResult, fs, gs) -> None:
    """r is within a first-order rounding bound of the 50-digit sum of
    f ln(g / f) over the pairs with f > 0 (all of which have g > 0): per
    term 2 eps f (2 + |ln f| + |ln g|) for the ratio, the logs and the
    product, (n + 2) eps sum |t| for the summation, and 5e-324 for a
    subnormal product."""
    pairs = [(fk, gk) for fk, gk in zip(fs, gs) if fk > 0.0]
    eps = sys.float_info.epsilon
    with mpmath.workdps(50):
        terms = [mpmath.mpf(fk) * (mpmath.log(gk) - mpmath.log(fk)) for fk, gk in pairs]
        exact = mpmath.fsum(terms)
        bound = (
            2 * eps * mpmath.fsum(fk * (2 + abs(math.log(fk)) + abs(math.log(gk)))
                                  for fk, gk in pairs)
            + (len(pairs) + 2) * eps * mpmath.fsum(map(abs, terms))
            + len(pairs) * mpmath.mpf(5e-324)
        )
        assert abs(r.value - exact) <= bound, (r.value, exact, bound)
    assert r.terms_used == len(pairs)


class TestOverflow:
    """A ratio that leaves double range does not stop a sum whose value is a
    double; only a value beyond double range is a computation failure."""

    def test_ratio_overflows(self):
        # 1e-300 * ln(1e600) and 5e-324 * ln(1 / 5e-324)
        f, g = GradingSample((0.0, 1e-300)), GradingSample((0.0, 1e300))
        r = divergence_discrete(f, g)
        assert r.value == pytest.approx(600.0 * math.log(10.0) * 1e-300, rel=1e-14)
        assert r.flags == frozenset()
        r = divergence_discrete(GradingSample((0.0, 5e-324)), GradingSample((0.0, 1.0)))
        # the value is subnormal: it is right to within one step of 5e-324
        assert r.value == pytest.approx(-math.log(5e-324) * 5e-324, abs=5e-324)
        assert r.value > 0.0

    def test_ratio_underflows(self):
        # 1e300 * ln(1e-600)
        f, g = GradingSample((0.0, 1e300)), GradingSample((0.0, 1e-300))
        r = divergence_discrete(f, g)
        assert r.value == pytest.approx(-600.0 * math.log(10.0) * 1e300, rel=1e-14)

    def test_relative_entropy_ratio_overflows(self):
        # 5e-324 * ln(0.5 / 5e-324) + ln 0.5, the first term below an ulp of the second
        f, g = ProbabilityVector((5e-324, 1.0)), ProbabilityVector((0.5, 0.5))
        r = relative_entropy(f, g)
        assert r.value == pytest.approx(math.log(0.5), rel=1e-15)
        assert r.terms_used == 2

    @pytest.mark.parametrize(
        "f_grades, g_grades",
        [
            # one term, 1.7e308 * ln(5.9e-309), beyond double range
            ((0.0, 1.7e308), (0.0, 1.0)),
            # every term finite, about -1.7e308 and -0.7e308; the total is not
            (
                (0.0, 1e308, 1.7e308),
                (0.0, 1e308 * math.exp(-1.7), 1e308 * math.exp(-1.7) + 0.7e308 * math.exp(-1.0)),
            ),
        ],
    )
    def test_value_beyond_double_range_fails(self, f_grades, g_grades):
        with pytest.raises(ComputationError, match="overflowed"):
            divergence_discrete(GradingSample(f_grades), GradingSample(g_grades))

    @given(_mixed_pairs)
    @example((_completed([3 / 256]), _completed([1000 * 5e-324])))  # subnormal ratio
    @example((_completed([5e-324]), _completed([3 / 256])))  # ratio overflows
    def test_rerun_within_rounding_of_mpmath(self, pair):
        # Zero, subnormal and ordinary weights: the fold skips, drops and
        # reruns with the logs taken apart, and stays within a rounding
        # bound of the 50-digit sum, on the weights and on the increments
        # of their cdf gradings alike.
        f, g = pair
        r = relative_entropy(f, g)
        lost = [fk for fk, gk in zip(f.weights, g.weights) if fk > 0.0 == gk]
        if lost:
            assert r.value == -math.inf and r.flags == frozenset({NEGATIVE_INFINITY})
            assert r.dropped_mass == _left_to_right(lost)
        else:
            _assert_within_rounding(r, f.weights, g.weights)
        try:
            cf, cg = cdf_grading(f), cdf_grading(g)
        except InvalidInputError:  # a zero or swallowed weight ties two grades
            return
        d = divergence_discrete(cf, cg)
        _assert_within_rounding(d, increments(cf), increments(cg))
        if increments(cf) == list(f.weights) and increments(cg) == list(g.weights):
            assert (d.value.hex(), d.terms_used) == (r.value.hex(), r.terms_used)

    def test_subnormal_ratio_takes_the_two_log_sum(self):
        # dg / df = 3.3e-323 keeps a few bits; the logs taken apart do not lose them
        r = divergence_discrete(GradingSample((0.0, 3e22)), GradingSample((0.0, 1e-300)))
        assert r.value == -2.2275930366982522e25
        assert r.value == (math.log(1e-300) - math.log(3e22)) * 3e22

    def test_relative_entropy_subnormal_ratio_takes_the_two_log_sum(self):
        f, g = ProbabilityVector((0.7, 0.3)), ProbabilityVector((3e-323, 1.0))
        r = relative_entropy(f, g)
        assert r.value == -519.2429544144522
        assert r.value == (
            (math.log(3e-323) - math.log(0.7)) * 0.7 + (math.log(1.0) - math.log(0.3)) * 0.3
        )
        assert r.terms_used == 2

    def test_flagged_divergence_is_not_a_failure(self):
        f, g = ProbabilityVector((5e-324, 1.0)), ProbabilityVector((0.0, 1.0))
        assert NEGATIVE_INFINITY in relative_entropy(f, g).flags


_PV, _GS = ProbabilityVector, GradingSample
_NO_MASS = (0.0).hex()

# Results of the four kernels on the paths that take zeros and reruns,
# pinned to the last bit: (value.hex(), terms_used, dropped_mass.hex(),
# flags), or the ComputationError message.
_PINNED = [
    (lambda: relative_entropy(_PV((0.0, 0.25, 0.75)), _PV((0.2, 0.3, 0.5))),
     ("-0x1.08b90ef531f6bp-2", 2, _NO_MASS, set())),
    (lambda: relative_entropy(_PV((0.25, 0.25, 0.5)), _PV((0.5, 0.0, 0.5))),
     ("-inf", 2, "0x1.0000000000000p-2", {NEGATIVE_INFINITY})),
    (lambda: relative_entropy(_PV((0.5, 0.5)), _PV((1e-310, 1.0))),
     ("-0x1.6435217ce17ecp+8", 2, _NO_MASS, set())),
    (lambda: relative_entropy(_PV((5e-324, 1.0)), _PV((0.5, 0.5))),
     ("-0x1.62e42fefa39efp-1", 2, _NO_MASS, set())),
    (lambda: relative_entropy(_PV((0.0, 0.5, 0.5)), _PV((0.5, 1e-310, 0.5))),
     ("-0x1.648dda88dd67ap+8", 2, _NO_MASS, set())),
    (lambda: relative_entropy(_PV((0.0, 5e-324, 0.5, 0.5)), _PV((0.25, 0.25, 1e-310, 0.5))),
     ("-0x1.648dda88dd67ap+8", 3, _NO_MASS, set())),
    (lambda: divergence_discrete(_GS((0.0, 1.0, 2.0)), _GS((0.0, 1e-310, 1.0))),
     ("-0x1.64e69394d9508p+9", 2, _NO_MASS, set())),
    (lambda: divergence_discrete(_GS((0.0, 5e-324, 1.0)), _GS((0.0, 0.5, 1.0))),
     ("-0x1.62e42fefa39efp-1", 2, _NO_MASS, set())),
    (lambda: divergence_discrete(_GS((0.0, 1e308)), _GS((0.0, 1e-300))),
     "the sum is -inf: a term or the running total overflowed double precision"),
    (lambda: shannon_entropy(_PV((0.0, 0.25, 0.75))),
     ("0x1.1fea645f0ef4ep-1", 2, _NO_MASS, set())),
    (lambda: shannon_entropy(_PV((5e-324, 0.25, 0.75))),
     ("0x1.1fea645f0ef4ep-1", 3, _NO_MASS, set())),
    (lambda: partition_entropy([0.0, 0.5, 3.0]),
     ("-0x1.7981758243d52p+1", 2, _NO_MASS, set())),
    (lambda: partition_entropy([]), ("0x0.0p+0", 0, _NO_MASS, {EMPTY})),
    (lambda: partition_entropy([1e308, 1e308]),
     "the sum is -inf: a term or the running total overflowed double precision"),
]


class TestPinnedEdgeResults:
    """Zero weights, subnormal and overflowing ratios, an empty partition
    and sums beyond double range give these exact results."""

    @pytest.mark.parametrize("compute, expected", _PINNED)
    def test_pinned(self, compute, expected):
        if isinstance(expected, str):
            with pytest.raises(ComputationError) as info:
                compute()
            assert str(info.value) == expected
            return
        r = compute()
        assert (r.value.hex(), r.terms_used, r.dropped_mass.hex(), set(r.flags)) == expected


class TestGradingConstructors:
    def test_cdf_grading(self):
        f = ProbabilityVector((0.25, 0.75))
        assert cdf_grading(f).grades == (0.0, 0.25, 1.0)

    def test_cdf_grading_rejects_zero_weight(self):
        f = ProbabilityVector((0.0, 1.0))
        with pytest.raises(InvalidInputError):
            cdf_grading(f)

    def test_position_grading(self):
        assert position_grading(3).grades == (0.0, 1.0, 2.0, 3.0)

    def test_position_grading_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            position_grading(0)
