import ast
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import graddiv
from graddiv import (
    Beta,
    InvalidInputError,
    PiecewiseLinearCdf,
    Power,
    Triangular,
    TruncatedNormal,
    Uniform,
    QuadratureSpec,
    corrected_entropy,
    invert_cdf,
)
from graddiv.families import _log_beta

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
    TruncatedNormal(-0.5, 1.0, 0.25, 2.0),
    TruncatedNormal(0.0, 1.0, 30.0, 31.0),
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

    @pytest.mark.parametrize(
        "make",
        [
            lambda a, b: Uniform(a, b),
            lambda a, b: Triangular(a, 0.5, b),
            lambda a, b: Beta(2.0, 2.0, a=a, b=b),
            lambda a, b: TruncatedNormal(0.0, 1.0, a, b),
            lambda a, b: Power(2.0, a=a, b=b),
            lambda a, b: PiecewiseLinearCdf(((a, 0.0), (b, 1.0))),
        ],
    )
    def test_support_width_must_be_a_double(self, make):
        with pytest.raises(InvalidInputError, match="overflows"):
            make(-1e308, 1e308)
        make(-1e308, 7e307)  # the widest a double holds stays valid

    def test_piecewise_grade_span_must_be_a_double(self):
        with pytest.raises(InvalidInputError, match="grade span"):
            PiecewiseLinearCdf(((0.0, -1e308), (1.0, 1e308)))


class TestClosedForms:
    @pytest.mark.parametrize("c", [1e300, 2e300, 4e300])
    def test_triangular_on_a_support_near_the_double_range(self, c):
        # every value matches the same shape on [0, 3] rescaled; a product
        # of two widths would overflow here
        wide, unit = Triangular(1e300, c, 4e300), Triangular(0.0, c / 1e300 - 1.0, 3.0)
        assert wide.image == (0.0, 1.0)
        for t in (0.1, 0.5, 1.0, 1.7, 2.9):
            x = 1e300 + t * 1e300
            assert wide.cdf(x) == pytest.approx(unit.cdf(t), rel=1e-14)
            assert wide.density(x) * 1e300 == pytest.approx(unit.density(t), rel=1e-14)
        for u in (0.0, 0.2, 0.5, 0.9, 1.0):
            assert wide.inverse(u) / 1e300 - 1.0 == pytest.approx(unit.inverse(u), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_triangular_mode_at_an_end(self, c):
        T = Triangular(0.0, c, 1.0)
        assert T.image == (0.0, 1.0)
        assert T.cdf(0.5) == (0.25 if c == 1.0 else 0.75)

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

    @given(st.floats(1e-3, 169.0), st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))
    def test_beta_one_edge_density(self, beta, a, width):
        # B(1, beta) = 1 / beta, so the density at a is beta / (b - a); from
        # a + b = 171 on, ln B is a difference of lgamma values near 1e3 and
        # carries about 1e-13 of absolute error
        F = Beta(1.0, beta, a=a, b=a + width)
        assert F.density(a) == pytest.approx(beta / (F.b - F.a), rel=1e-13)

    def test_beta_function_closed_forms(self):
        assert _log_beta(2.0, 5.0) == pytest.approx(-math.log(30.0), rel=1e-15)
        assert _log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-15)
        assert Beta(2.0, 5.0).density(0.5) == pytest.approx(30.0 * 0.5 * 0.5**4, rel=1e-15)

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

    @pytest.mark.parametrize("d", [5e-324, 1e-321])
    def test_log_density_at_a_subnormal_distance(self, d):
        # d / 500 and d / 1000 underflow to 0; the log of such a ratio is
        # ln d minus the log of the divisor
        log_ratio = math.log(d) - math.log(1000.0)
        power = Power(3.0, 0.0, 1000.0)
        assert math.isclose(power.log_density(d, d, 1000.0),
                            math.log(3.0 / 1000.0) + 2.0 * log_ratio, rel_tol=1e-15)
        beta = Beta(2.0, 3.0, 0.0, 1000.0)
        expected = log_ratio - math.log(1000.0) - _log_beta(2.0, 3.0)
        assert math.isclose(beta.log_density(d, d, 1000.0), expected, rel_tol=1e-15)
        assert math.isclose(beta.log_density(1000.0 - d, 1000.0, d), 2.0 * log_ratio
                            - math.log(1000.0) - _log_beta(2.0, 3.0), rel_tol=1e-15)
        tri = Triangular(0.0, 500.0, 1000.0)
        peak = math.log(2.0 / 1000.0)
        assert math.isclose(tri.log_density(d, d, 1000.0),
                            peak + math.log(d) - math.log(500.0), rel_tol=1e-15)
        assert math.isclose(tri.log_density(1000.0 - d, 1000.0, d),
                            peak + math.log(d) - math.log(500.0), rel_tol=1e-15)


class TestGradeStructure:
    def test_image_spans_cdf_range(self):
        for F in CATALOG:
            lo, hi = F.image
            a, b = F.support
            assert lo == F.cdf(a)
            assert hi == F.cdf(b)
            assert F.grade_span == hi - lo > 0

    @pytest.mark.parametrize(
        "F",
        [*CATALOG, TruncatedNormal(0.5, 0.2, 0.0, 1.0), PiecewiseLinearCdf(((0.0, 0.2), (1.0, 0.9)))],
        ids=repr,
    )
    def test_cdf_outside_the_support_is_the_image_end(self, F):
        a, b = F.support
        lo, hi = F.image
        for w in (2.0**-40 * (b - a), 0.5 * (b - a), b - a, math.inf):
            assert F.cdf(a - w) == lo, w
            assert F.cdf(b + w) == hi, w

    def test_image_is_kept_outside_the_fields(self):
        for F in CATALOG:
            fresh = type(F)(*(getattr(F, name) for name in F._fields))
            a, b = F.support
            assert F.image == (F.cdf(a), F.cdf(b))
            assert F.image is F.image
            assert "image" not in F._fields
            assert "image" not in repr(F)
            assert F == fresh and hash(F) == hash(fresh)
            assert repr(F) == repr(fresh)

    def test_densities_pinned_to_the_last_bit(self):
        # constants computed at construction must round as the per-call
        # expressions did
        assert TruncatedNormal(0.3, 0.3, -1.0, 2.0).density(0.5) == 1.0648345123577605
        assert TruncatedNormal(1.7, 2.3, -1.0, 2.0).density(0.5) == 0.3506844172853165
        assert Beta(2.5, 3.7, a=-1.0, b=3.0).density(0.4) == 0.4943073295597909
        assert Beta(1.0, 3.7, a=-1.0, b=3.0).density(-1.0) == 0.9250000000000004
        assert Beta(0.7, 1.0).density(1.0) == 0.7000000000000001

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


# Uniform and PiecewiseLinearCdf keep ln of their density (of each
# segment's slope) from construction: math.log of it where the slope is a
# double, and still finite where the slope overflows or underflows.
CONSTANT_PIECES = [
    Uniform(0.0, 1.0),
    Uniform(-3.0, 7.0),
    Uniform(0.0, 1e-310),
    Uniform(-8e307, 8e307),
    PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5), (3.0, 1.0))),
    PiecewiseLinearCdf(((0.0, 0.0), (1e-10, 1e300), (1.0, 1.0000001e300))),
    PiecewiseLinearCdf(((0.0, 0.0), (1e300, 1e-300), (1.1e300, 1.0))),
]


class TestKeptLogDensity:
    @given(st.sampled_from(CONSTANT_PIECES), st.floats(0.0, 1.0))
    def test_is_the_log_of_the_density(self, F, frac):
        a, b = F.support
        x = min(a + (b - a) * frac, b)
        fx = F.density(x)
        lf = F.log_density(x, x - a, b - x)
        if 0.0 < fx < math.inf:
            assert lf == math.log(fx)

    def test_slopes_beyond_double_range(self):
        assert Uniform(0.0, 1e-310).log_density(0.0, 0.0, 1e-310) == -math.log(1e-310)
        steep = PiecewiseLinearCdf(((0.0, 0.0), (1e-10, 1e300), (1.0, 1.0000001e300)))
        assert steep.log_density(5e-11, 5e-11, 1.0) == math.log(1e300) - math.log(1e-10)
        flat = PiecewiseLinearCdf(((0.0, 0.0), (1e300, 1e-300), (1.1e300, 1.0)))
        assert flat.log_density(1.0, 1.0, 1.1e300) == math.log(1e-300) - math.log(1e300)


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


def test_no_module_calls_density():
    # every integral reads a density through log_density
    offenders = []
    for path in sorted(Path(graddiv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "density"]
    assert offenders == []


def _betaln(alpha, beta):
    from scipy.special import betaln

    return float(betaln(alpha, beta))


def _agrees_with_betaln(alpha, beta):
    ref = _betaln(alpha, beta)
    value = _log_beta(alpha, beta)
    # betaln overflows to inf for subnormal shapes; that value is kept
    return value == ref or abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


class TestLogBeta:
    """ln B against scipy's betaln, which it replaces where every gamma
    value is finite and defers to elsewhere."""

    @given(
        st.floats(5e-324, 1e17, allow_subnormal=True),
        st.floats(5e-324, 1e17, allow_subnormal=True),
    )
    def test_matches_betaln(self, alpha, beta):
        assert _agrees_with_betaln(alpha, beta)

    @given(st.floats(-3.0, math.log10(171.0)), st.floats(-3.0, math.log10(171.0)))
    def test_matches_betaln_on_the_gamma_route(self, log_alpha, log_beta):
        assert _agrees_with_betaln(10.0**log_alpha, 10.0**log_beta)

    @pytest.mark.parametrize(
        "shape", [5e-324, 2.2250738585072014e-308, 1e-300, 169.99, 170.9, 171.0, 1e6, 1e16]
    )
    def test_extreme_shapes_against_one(self, shape):
        for alpha, beta in ((shape, 1.0), (1.0, shape)):
            assert _agrees_with_betaln(alpha, beta)
        # B(x, 1) = 1 / x, wherever betaln itself is finite
        if math.isfinite(_betaln(shape, 1.0)):
            assert _log_beta(shape, 1.0) == pytest.approx(-math.log(shape), rel=1e-13)

    def test_outside_the_gamma_range_defers_to_betaln(self):
        for alpha, beta in ((5e-324, 2.0), (100.0, 71.0), (1e16, 1.0), (1e6, 1e-3)):
            assert _log_beta(alpha, beta) == _betaln(alpha, beta)


_FIRST_QUANTILE = """
from graddiv import Beta, invert_cdf
print(repr(invert_cdf(Beta(2.0, 5.0), 0.3)))
"""


def test_first_quantile_in_a_fresh_process_is_betaincinv():
    from scipy.special import betaincinv

    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_QUANTILE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == float(betaincinv(2.0, 5.0, 0.3))


def test_scipy_functions_are_bound_directly_after_first_use():
    from scipy import special

    from graddiv import families

    Beta(2.0, 5.0).cdf(0.3)
    invert_cdf(Beta(2.0, 5.0), 0.3)
    invert_cdf(TruncatedNormal(0.0, 1.0, -1.0, 2.0), 0.3)
    _log_beta(1e16, 1.0)
    assert families._betainc is special.betainc
    assert families._betaincinv is special.betaincinv
    assert families._ndtri is special.ndtri
    assert families._betaln is special.betaln


class TestTruncatedNormalUpperTail:
    """A window above the mean is measured on the mirrored lower tail."""

    UPPER = TruncatedNormal(0.0, 1.0, 30.0, 31.0)
    MIRROR = TruncatedNormal(0.0, 1.0, -31.0, -30.0)

    def test_deep_upper_window_is_a_probability(self):
        assert self.UPPER.image == (0.0, 1.0)
        assert self.UPPER.is_probability()

    def test_cdf_mirrors_the_lower_window(self):
        a, b = self.UPPER.support
        for k in range(65):
            x = a + (b - a) * k / 64
            assert self.UPPER.cdf(x) == pytest.approx(1.0 - self.MIRROR.cdf(-x), abs=1e-15)
            assert self.UPPER.density(x) == pytest.approx(self.MIRROR.density(-x), rel=1e-15)

    def test_quantile_mirrors_the_lower_window(self):
        for u in (0.0, 1e-9, 0.1, 0.5, 0.9):
            assert invert_cdf(self.UPPER, u) == pytest.approx(
                -invert_cdf(self.MIRROR, 1.0 - u), abs=1e-12
            )

    def test_corrected_entropy_matches_the_mirror(self):
        spec = QuadratureSpec()
        up = corrected_entropy(self.UPPER, spec)
        down = corrected_entropy(self.MIRROR, spec)
        budget = max(spec.abs_tol, spec.rel_tol * abs(down.value))
        assert abs(up.value - down.value) <= 2.0 * budget

    def test_shallow_window_above_the_mean(self):
        F = TruncatedNormal(-0.5, 1.0, 0.25, 2.0)
        M = TruncatedNormal(0.5, 1.0, -2.0, -0.25)
        for x in (0.25, 0.5, 1.0, 1.7, 2.0):
            assert F.cdf(x) == pytest.approx(1.0 - M.cdf(-x), abs=1e-15)
