import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graddiv import (
    Beta,
    ComputationError,
    InvalidInputError,
    PiecewiseLinearCdf,
    Power,
    Triangular,
    TruncatedNormal,
    Uniform,
    bracketed_inverse,
    invert_cdf,
)

CATALOG = [
    Uniform(0.0, 1.0),
    Uniform(-3.0, 7.0),
    Triangular(0.0, 0.25, 1.0),
    Triangular(-1.0, 2.0, 4.0),
    Triangular(0.0, 0.0, 1.0),
    Triangular(0.0, 1.0, 1.0),
    Beta(2.0, 2.0),
    Beta(0.5, 0.5),
    Beta(2.0, 5.0, a=-1.0, b=3.0),
    TruncatedNormal(0.0, 1.0, -1.0, 2.0),
    TruncatedNormal(5.0, 0.5, 4.0, 7.0),
    Power(2.0),
    Power(0.5, a=1.0, b=9.0),
    PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5), (3.0, 1.0))),
]


class TestValidation:
    def test_uniform_needs_nonempty_interval(self):
        with pytest.raises(InvalidInputError):
            Uniform(1.0, 1.0)
        with pytest.raises(InvalidInputError):
            Uniform(2.0, 1.0)

    def test_triangular_mode_inside_support(self):
        with pytest.raises(InvalidInputError):
            Triangular(0.0, 1.5, 1.0)
        with pytest.raises(InvalidInputError):
            Triangular(0.0, -0.5, 1.0)

    def test_beta_shapes_positive(self):
        with pytest.raises(InvalidInputError):
            Beta(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            Beta(1.0, -2.0)

    def test_truncated_normal_needs_positive_sigma(self):
        with pytest.raises(InvalidInputError):
            TruncatedNormal(0.0, 0.0, -1.0, 1.0)

    def test_truncated_normal_needs_mass_on_window(self):
        with pytest.raises(InvalidInputError):
            TruncatedNormal(0.0, 1.0, 60.0, 61.0)

    def test_power_exponent_positive(self):
        with pytest.raises(InvalidInputError):
            Power(0.0)

    def test_piecewise_needs_two_knots(self):
        with pytest.raises(InvalidInputError):
            PiecewiseLinearCdf(((0.0, 0.0),))

    def test_piecewise_needs_strict_monotonicity(self):
        with pytest.raises(InvalidInputError):
            PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)))
        with pytest.raises(InvalidInputError):
            PiecewiseLinearCdf(((0.0, 0.0), (0.0, 0.5), (2.0, 1.0)))

    def test_piecewise_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            PiecewiseLinearCdf(((0.0, 0.0), (math.inf, 1.0)))


class TestClosedForms:
    def test_uniform(self):
        u = Uniform(0.0, 1.0)
        assert u.cdf(0.25) == 0.25
        assert u.density(0.5) == 1.0
        assert invert_cdf(u, 0.25) == 0.25

    def test_uniform_wide(self):
        u = Uniform(-3.0, 7.0)
        assert u.cdf(2.0) == 0.5
        assert u.density(0.0) == pytest.approx(0.1)

    def test_power_two(self):
        p = Power(2.0)
        assert p.cdf(0.5) == 0.25
        assert invert_cdf(p, 0.25) == 0.5
        assert p.density(0.5) == 1.0

    def test_triangular_at_mode(self):
        t = Triangular(0.0, 0.5, 2.0)
        assert t.cdf(0.5) == 0.25
        assert t.density(0.5) == 1.0
        assert t.breakpoints() == (0.5,)

    def test_triangular_edge_modes(self):
        left = Triangular(0.0, 0.0, 1.0)
        assert left.cdf(0.5) == 0.75
        assert left.density(0.25) == 1.5
        assert left.breakpoints() == ()
        right = Triangular(0.0, 1.0, 1.0)
        assert right.cdf(0.5) == 0.25
        assert right.breakpoints() == ()

    def test_beta_symmetric(self):
        b = Beta(2.0, 2.0)
        assert b.cdf(0.5) == pytest.approx(0.5, abs=1e-15)
        assert b.density(0.5) == pytest.approx(1.5, abs=1e-12)

    def test_beta_rescaled_support(self):
        b = Beta(2.0, 2.0, a=-1.0, b=3.0)
        assert b.cdf(1.0) == pytest.approx(0.5, abs=1e-15)
        assert b.density(1.0) == pytest.approx(0.375, abs=1e-12)

    def test_beta_edge_density(self):
        assert Beta(2.0, 2.0).density(0.0) == 0.0
        assert Beta(0.5, 0.5).density(0.0) == math.inf
        assert Beta(1.0, 1.0).density(0.0) == pytest.approx(1.0)

    def test_truncated_normal_endpoints(self):
        tn = TruncatedNormal(0.0, 1.0, -1.0, 2.0)
        assert tn.cdf(-1.0) == 0.0
        assert tn.cdf(2.0) == 1.0

    def test_piecewise(self):
        pw = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5), (3.0, 1.0)))
        assert invert_cdf(pw, 0.75) == 2.0
        assert pw.cdf(2.0) == 0.75
        assert pw.density(0.5) == 0.5
        assert pw.density(2.0) == 0.25
        assert pw.breakpoints() == (1.0,)


class TestGradeStructure:
    def test_image_spans_cdf_range(self):
        for F in CATALOG:
            lo, hi = F.image
            a, b = F.support
            assert lo == F.cdf(a)
            assert hi == F.cdf(b)
            assert F.grade_span == hi - lo > 0

    def test_image_is_kept_outside_the_fields(self):
        for F in CATALOG:
            fresh = dataclasses.replace(F)
            a, b = F.support
            assert F.image == (F.cdf(a), F.cdf(b))
            assert F.image is F.image
            assert "image" not in {f.name for f in dataclasses.fields(F)}
            assert "image" not in repr(F)
            assert F == fresh and hash(F) == hash(fresh)
            assert repr(F) == repr(fresh)

    def test_densities_pinned_to_the_last_bit(self):
        # constants computed at construction must round as the per-call
        # expressions did
        assert TruncatedNormal(0.3, 0.3, -1.0, 2.0).density(0.5) == 1.0648345123577605
        assert TruncatedNormal(1.7, 2.3, -1.0, 2.0).density(0.5) == 0.3506844172853165
        assert Beta(2.5, 3.7, a=-1.0, b=3.0).density(0.4) == 0.4943073295597911
        assert Beta(1.0, 3.7, a=-1.0, b=3.0).density(-1.0) == 0.9250000000000002
        assert Beta(0.7, 1.0).density(1.0) == 0.6999999999999998

    def test_catalog_families_are_probabilities(self):
        for F in CATALOG:
            assert F.is_probability()

    def test_unnormalized_piecewise_is_not_probability(self):
        pw = PiecewiseLinearCdf(((0.0, 0.2), (1.0, 0.9)))
        assert not pw.is_probability()
        assert pw.grade_span == pytest.approx(0.7)

    def test_piecewise_grades_need_not_start_at_zero(self):
        pw = PiecewiseLinearCdf(((0.0, 0.2), (1.0, 0.9)))
        assert invert_cdf(pw, 0.55) == pytest.approx(0.5)

    def test_cdf_is_monotone_on_a_grid(self):
        for F in CATALOG:
            a, b = F.support
            xs = [a + (b - a) * k / 64 for k in range(65)]
            us = [F.cdf(x) for x in xs]
            assert all(u1 <= u2 for u1, u2 in zip(us, us[1:]))


class TestInversion:
    @given(st.sampled_from(CATALOG), st.floats(0.001, 0.999))
    def test_inverse_residual_contract(self, F, frac):
        lo, hi = F.image
        u = lo + (hi - lo) * frac
        x = invert_cdf(F, u)
        a, b = F.support
        assert a <= x <= b
        assert abs(F.cdf(x) - u) <= 1e-12 * F.grade_span

    @given(st.sampled_from(CATALOG), st.floats(0.001, 0.999))
    def test_generic_bracket_solver_agrees_with_closed_forms(self, F, frac):
        lo, hi = F.image
        u = lo + (hi - lo) * frac
        a, b = F.support
        x = bracketed_inverse(F.cdf, a, b, u, 1e-12 * F.grade_span)
        assert abs(F.cdf(x) - u) <= 1e-12 * F.grade_span

    def test_invert_rejects_grade_outside_image(self):
        pw = PiecewiseLinearCdf(((0.0, 0.2), (1.0, 0.9)))
        with pytest.raises(InvalidInputError):
            invert_cdf(pw, 0.95)
        with pytest.raises(InvalidInputError):
            invert_cdf(Uniform(0.0, 1.0), -0.1)

    def test_invert_at_image_endpoints(self):
        u = Uniform(2.0, 5.0)
        assert invert_cdf(u, 0.0) == 2.0
        assert invert_cdf(u, 1.0) == 5.0

    def test_unbracketable_target_raises(self):
        with pytest.raises(ComputationError):
            bracketed_inverse(math.sin, 0.0, 1.0, 5.0, 1e-12)


class TestDensityConsistency:
    @given(st.sampled_from(CATALOG), st.floats(0.05, 0.95), st.floats(1e-6, 1e-5))
    def test_density_matches_cdf_slope(self, F, frac, rel_step):
        # Central difference of the cdf approximates the density away from
        # breakpoints and support edges.
        a, b = F.support
        x = a + (b - a) * frac
        step = (b - a) * rel_step
        if any(abs(x - bp) < 2 * step for bp in F.breakpoints()):
            return
        slope = (F.cdf(x + step) - F.cdf(x - step)) / (2 * step)
        dens = F.density(x)
        assert abs(slope - dens) <= 1e-3 * max(1.0, dens)
