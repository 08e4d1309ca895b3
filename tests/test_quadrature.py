import math
import time

import mpmath
import numpy as np
import pytest

from graddiv import (
    ComputationError,
    InvalidInputError,
    QuadratureOutcome,
    QuadratureSpec,
    integrate_adaptive,
    quadrature,
)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-8
        assert spec.max_depth == 60
        assert spec._fields == ("abs_tol", "rel_tol", "max_depth")

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(InvalidInputError):
            QuadratureSpec(rel_tol=-1e-8)

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_infinite_tolerance_is_not_finite(self, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be finite and > 0, got inf"):
            QuadratureSpec(**{field: math.inf})

    def test_rejects_bad_depth(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(max_depth=0)
        with pytest.raises(InvalidInputError):
            QuadratureSpec(max_depth=2.5)


class TestIntegrateAdaptive:
    def test_polynomial_is_captured_by_one_panel(self):
        # the first levels already hold a polynomial to the last bits
        out = integrate_adaptive(lambda x, da, db: x**4, 0.0, 1.0, QuadratureSpec())
        assert out.value == pytest.approx(0.2, abs=1e-14)
        assert not out.negative_infinity
        assert out.error_estimate <= 1e-8 * 0.2
        assert out.panels <= 99

    def test_oscillatory_integrand(self):
        out = integrate_adaptive(lambda x, da, db: math.sin(x), 0.0, 2 * math.pi, QuadratureSpec())
        assert out.value == pytest.approx(0.0, abs=1e-10)

    def test_kink_with_breakpoint_hint(self):
        # Split at the kink, each segment is a polynomial; across it the
        # rule converges only at second order, so it needs a loose budget
        # and many more evaluations.
        spec = QuadratureSpec(abs_tol=1e-5)
        hinted = integrate_adaptive(
            lambda x, da, db: abs(x - 0.5), 0.0, 1.0, spec, breakpoints=(0.5,)
        )
        blind = integrate_adaptive(lambda x, da, db: abs(x - 0.5), 0.0, 1.0, spec)
        assert hinted.value == pytest.approx(0.25, abs=1e-14)
        assert abs(blind.value - 0.25) <= blind.error_estimate
        assert hinted.panels < blind.panels
        with pytest.raises(ComputationError):
            integrate_adaptive(lambda x, da, db: abs(x - 0.5), 0.0, 1.0, QuadratureSpec())

    def test_breakpoints_outside_interval_ignored(self):
        out = integrate_adaptive(
            lambda x, da, db: x, 0.0, 1.0, QuadratureSpec(), breakpoints=(-1.0, 2.0)
        )
        assert out.value == pytest.approx(0.5, abs=1e-13)

    def test_log_endpoint_singularity(self):
        # integral of ln x over (0, 1] is -1; integrable but unbounded at 0
        out = integrate_adaptive(lambda x, da, db: math.log(da), 0.0, 1.0, QuadratureSpec())
        assert out.value == pytest.approx(-1.0, abs=1e-14)

    def test_interval_must_be_increasing(self):
        with pytest.raises(InvalidInputError):
            integrate_adaptive(lambda x, da, db: x, 1.0, 1.0, QuadratureSpec())
        with pytest.raises(InvalidInputError):
            integrate_adaptive(lambda x, da, db: x, 2.0, 1.0, QuadratureSpec())

    def test_negative_infinity_short_circuits(self):
        def fn(x, da, db):
            return -math.inf if x > 0.9 else 0.0

        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec())
        assert out.negative_infinity
        assert out.value == -math.inf
        assert out.error_estimate == 0.0

    def test_nan_sample_raises(self):
        with pytest.raises(ComputationError):
            integrate_adaptive(lambda x, da, db: math.nan, 0.0, 1.0, QuadratureSpec())

    def test_positive_infinity_sample_raises(self):
        with pytest.raises(ComputationError):
            integrate_adaptive(lambda x, da, db: math.inf, 0.0, 1.0, QuadratureSpec())

    def test_divergent_integrand_fails_loudly(self):
        # 1/x over (0, 1] has no finite integral; the rule must raise
        # rather than return a number, and quickly. 1/x overflows at the
        # outermost nodes; 1e-10/x stays finite at every node, so only its
        # undecayed terms at the end of the node range show it.
        for spec in (QuadratureSpec(max_depth=16), QuadratureSpec()):
            for fn in (lambda x, da, db: 1.0 / x, lambda x, da, db: 1e-10 / da):
                start = time.perf_counter()
                with pytest.raises(ComputationError):
                    integrate_adaptive(fn, 0.0, 1.0, spec)
                assert time.perf_counter() - start < 1.0

    def test_endpoint_samples_stay_interior(self):
        # The integrand is only finite on the open interval; the distances
        # it receives are never 0, even where x has rounded onto an end.
        def fn(x, da, db):
            assert 0.0 <= x <= 1.0
            assert da > 0.0 and db > 0.0
            return math.log(da) + math.log(db)

        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec(rel_tol=1e-10))
        assert out.value == pytest.approx(-2.0, abs=1e-13)

    def test_distances_are_exact_where_x_rounds_onto_an_end(self):
        # On [1, 2], x = 1 + d rounds to 1 for d below 1.1e-16, and 2.5 %
        # of the mass of d^(-0.9) / 10 lies there; only the distances
        # resolve it. The integral is exactly 1.
        out = integrate_adaptive(
            lambda x, da, db: 0.1 * da**-0.9, 1.0, 2.0, QuadratureSpec()
        )
        assert abs(out.value - 1.0) <= out.error_estimate <= 1e-8

    def test_mass_the_nodes_miss_is_an_error(self):
        # Power(1e-300) keeps almost all its mass within 1e-300 of 0, far
        # below the last node; its density still integrates to 1.
        log_p = math.log(1e-300)

        def fn(x, da, db):
            density = math.exp(log_p - math.log(da))
            return density, density

        with pytest.raises(ComputationError, match="mass"):
            integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec(), mass=1.0)

    def test_tiny_interval(self):
        out = integrate_adaptive(lambda x, da, db: 1.0, 0.0, 1e-12, QuadratureSpec())
        assert out.value == pytest.approx(1e-12, rel=1e-12)

    def test_reported_estimate_bounds_actual_error_on_smooth_integrand(self):
        out = integrate_adaptive(lambda x, da, db: math.exp(x), 0.0, 1.0, QuadratureSpec())
        actual = abs(out.value - (math.e - 1.0))
        assert actual <= max(out.error_estimate, 1e-14)

    def test_integrand_sees_python_floats(self):
        seen = set()

        def fn(x, da, db):
            seen.update({type(x), type(da), type(db)})
            return math.sqrt(da)

        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec())
        assert seen == {float}
        assert type(out.value) is float
        assert type(out.error_estimate) is float

    def test_panels_count_integrand_evaluations(self):
        calls = []

        def fn(x, da, db):
            calls.append(x)
            return 1.0 + x

        out = integrate_adaptive(fn, 0.0, 3.0, QuadratureSpec(), breakpoints=(1.0,))
        assert out.panels == len(calls)
        assert out.value == pytest.approx(7.5, abs=1e-13)

    def test_a_sum_beyond_double_range_raises(self):
        # every term is finite; the weighted sum of -1e308 over a width of 8
        # is not, and no finer level brings it back
        calls = []

        def fn(x, da, db):
            calls.append(x)
            return -1e308

        with pytest.raises(ComputationError) as exc:
            integrate_adaptive(fn, 0.0, 8.0, QuadratureSpec())
        assert str(exc.value) == (
            "the sum is -inf: a term or the running total overflowed double precision"
        )
        assert len(calls) == 5  # level 0 alone, with no second walk

    def test_outcome_is_frozen(self):
        out = QuadratureOutcome(1.0, 0.0, 3)
        with pytest.raises(AttributeError):
            out.value = 2.0


class TestQuadratureOutcome:
    @pytest.mark.parametrize(
        "value, estimate, panels, negative_infinity, message",
        [
            ("x", 0.0, 3, False, "value must be a number, got 'x'"),
            (1.0, None, 3, False, "error_estimate must be a number, got None"),
            (True, 0.0, 3, False, "value must be a number, got True"),
            (1.0, 0.0, 1.5, False, "panels must be an integer, got 1.5"),
            (1.0, 0.0, True, False, "panels must be an integer, got True"),
            (1.0, 0.0, 3, "yes", "negative_infinity must be a bool, got 'yes'"),
            (1.0, 0.0, 3, 1, "negative_infinity must be a bool, got 1"),
            ("x", None, 1.5, "yes", "value must be a number, got 'x'"),
        ],
    )
    def test_fields_follow_the_number_rule(self, value, estimate, panels,
                                           negative_infinity, message):
        with pytest.raises(InvalidInputError) as exc:
            QuadratureOutcome(value, estimate, panels, negative_infinity)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "value, estimate, panels, negative_infinity, message",
        [
            (1.0, 0.0, -3, False, "panels must be >= 0, got -3"),
            (1.0, -1.0, 3, False, "error_estimate must be >= 0, got -1.0"),
            (1.0, -5e-324, 3, False, "error_estimate must be >= 0, got -5e-324"),
            (-math.inf, math.nan, 3, False, "error_estimate must be >= 0, got nan"),
            (-math.inf, 0.0, 3, False, "value must be finite, got -inf"),
            (math.inf, 0.0, 3, False, "value must be finite, got inf"),
            (math.nan, 0.0, 3, False, "value must be finite, got nan"),
            (math.inf, 0.0, 3, True,
             "value must be -inf when negative_infinity is flagged, got inf"),
            (math.nan, 0.0, 3, True,
             "value must be -inf when negative_infinity is flagged, got nan"),
            (1.0, 0.0, 3, True,
             "value must be -inf when negative_infinity is flagged, got 1.0"),
            # the rule runs first, reading only True as the flag
            (-math.inf, 0.0, 3, 1, "value must be finite, got -inf"),
        ],
    )
    def test_fields_follow_the_result_rule(self, value, estimate, panels,
                                           negative_infinity, message):
        with pytest.raises(InvalidInputError) as exc:
            QuadratureOutcome(value, estimate, panels, negative_infinity)
        assert str(exc.value) == message

    def test_flagged_negative_infinity_and_an_infinite_estimate_are_accepted(self):
        out = QuadratureOutcome(-math.inf, math.inf, 0, True)
        assert (out.value, out.error_estimate, out.panels) == (-math.inf, math.inf, 0)
        assert QuadratureOutcome(-0.0, -0.0, 0).value == 0.0

    def test_numbers_are_converted(self):
        out = QuadratureOutcome(np.float64(1.5), 0, np.int64(3))
        assert type(out.value) is float and type(out.error_estimate) is float
        assert type(out.panels) is int
        assert out == QuadratureOutcome(1.5, 0.0, 3, False)


def _hex_levels(levels):
    return [(h.hex(), spacing, [tuple(map(float.hex, node)) for node in nodes])
            for h, spacing, nodes in levels]


class TestLevelNodes:
    def test_every_level_is_a_fresh_build_bit_for_bit(self):
        levels = range(quadrature._LEVELS + 1)
        kept = [quadrature._level_nodes(level) for level in levels]
        fresh = [quadrature._level_nodes.__wrapped__(level) for level in levels]
        assert _hex_levels(kept) == _hex_levels(fresh)

    def test_a_level_is_built_once_as_tuples(self):
        for level in range(quadrature._LEVELS + 1):
            nodes = quadrature._level_nodes(level)
            assert quadrature._level_nodes(level) is nodes
            assert type(nodes) is tuple and type(nodes[2]) is tuple
            assert all(type(node) is tuple for node in nodes[2])

    def test_levels_0_to_3_hold_99_nodes(self):
        assert sum(len(quadrature._level_nodes(level)[2]) for level in range(4)) == 99


class TestSideCuts:
    """Each side of a segment ends where its terms fall below one rounding
    of the sum, unless they never do."""

    @staticmethod
    def nearest_distances(fn):
        seen_a, seen_b = [], []

        def recording(x, da, db):
            seen_a.append(da)
            seen_b.append(db)
            return fn(x, da, db)

        out = integrate_adaptive(recording, 0.0, 1.0, QuadratureSpec())
        return out, min(seen_a), min(seen_b)

    def test_smooth_integrand_ends_both_sides_early(self):
        # both ends are smooth, so both sides end far short of 2^-1050
        out, near_a, near_b = self.nearest_distances(lambda x, da, db: math.exp(x))
        assert abs(out.value - (math.e - 1.0)) <= out.error_estimate
        assert near_a > 1e-30 and near_b > 1e-30
        assert out.panels < 99

    def test_singular_end_keeps_its_reach(self):
        # 0.05 x^-0.95 integrates to 1; its terms toward 0 fall like
        # e^(-u / 10), never below rounding, so that side runs out to the
        # last level-0 node, while the smooth end at 1 is cut
        last = quadrature._level_nodes(0)[2][-1]
        out, near_a, near_b = self.nearest_distances(lambda x, da, db: 0.05 * da**-0.95)
        assert abs(out.value - 1.0) <= out.error_estimate
        assert near_a <= last[2]
        assert near_b > 1e-30

    def test_zero_terms_do_not_end_a_side(self):
        # exp(-1 / (x - 0.9)) past 0.9 and 0 before it, smooth throughout:
        # the terms toward 1 are zero at the centre and at the first nodes
        # and positive only nearer the end
        def fn(x, da, db):
            s = 0.1 - db
            return math.exp(-1.0 / s) if s > 0.0 else 0.0

        with mpmath.workdps(30):
            exact = float(mpmath.quad(lambda s: mpmath.exp(-1 / s), [0, 0.1]))
        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec(abs_tol=1e-20, rel_tol=1e-10))
        assert exact > 1e-7
        assert abs(out.value - exact) <= out.error_estimate

    def test_mass_keeps_a_side_whose_terms_vanish(self):
        # the terms da^8 fall below rounding within 1e-3 of 0, but the
        # uniform density there still holds mass the nodes must find
        out = integrate_adaptive(
            lambda x, da, db: (da**8, 1.0), 0.0, 1.0, QuadratureSpec(), mass=1.0
        )
        assert abs(out.value - 1.0 / 9.0) <= out.error_estimate

    def test_a_peak_past_a_valley_is_found_at_full_reach(self):
        # normal densities at 0.5 (sd 0.02) and 0.05 (sd 0.01): walking left
        # from the centre, level 0 cuts that side in the valley between
        # them, where the terms are below rounding, and the nodes miss the
        # second peak's mass; the rule walks again with no side cut
        def normal(x, mu, sd):
            return math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))

        def fn(x, da, db):
            density = normal(x, 0.5, 0.02) + normal(x, 0.05, 0.01)
            return density, density

        mass = 1.0 + 0.5 * math.erfc(-5.0 / math.sqrt(2.0))  # the second is cut at 0
        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec(), mass=mass)
        assert abs(out.value - mass) <= out.error_estimate
