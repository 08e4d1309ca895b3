import dataclasses
import math

import pytest

from graddiv import (
    ComputationError,
    InvalidInputError,
    QuadratureOutcome,
    QuadratureSpec,
    integrate_adaptive,
)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-8
        assert spec.max_depth == 60
        assert len(dataclasses.fields(spec)) == 3

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(InvalidInputError):
            QuadratureSpec(rel_tol=-1e-8)

    def test_rejects_bad_depth(self):
        with pytest.raises(InvalidInputError):
            QuadratureSpec(max_depth=0)
        with pytest.raises(InvalidInputError):
            QuadratureSpec(max_depth=2.5)


class TestIntegrateAdaptive:
    def test_polynomial_is_captured_by_one_panel(self):
        out = integrate_adaptive(lambda x: x**4, 0.0, 1.0, QuadratureSpec())
        assert out.value == pytest.approx(0.2, abs=1e-14)
        assert not out.negative_infinity
        assert out.error_estimate <= 1e-10

    def test_oscillatory_integrand(self):
        out = integrate_adaptive(math.sin, 0.0, 2 * math.pi, QuadratureSpec())
        assert out.value == pytest.approx(0.0, abs=1e-10)

    def test_kink_with_breakpoint_hint(self):
        spec = QuadratureSpec()
        hinted = integrate_adaptive(
            lambda x: abs(x - 0.5), 0.0, 1.0, spec, breakpoints=(0.5,)
        )
        blind = integrate_adaptive(lambda x: abs(x - 0.5), 0.0, 1.0, spec)
        assert hinted.value == pytest.approx(0.25, abs=1e-12)
        assert blind.value == pytest.approx(0.25, abs=1e-8)
        assert hinted.panels < blind.panels

    def test_breakpoints_outside_interval_ignored(self):
        out = integrate_adaptive(
            lambda x: x, 0.0, 1.0, QuadratureSpec(), breakpoints=(-1.0, 2.0)
        )
        assert out.value == pytest.approx(0.5, abs=1e-13)

    def test_log_endpoint_singularity(self):
        # integral of ln x over (0, 1] is -1; integrable but unbounded at 0
        out = integrate_adaptive(math.log, 0.0, 1.0, QuadratureSpec())
        assert out.value == pytest.approx(-1.0, abs=1e-8)

    def test_interval_must_be_increasing(self):
        with pytest.raises(InvalidInputError):
            integrate_adaptive(lambda x: x, 1.0, 1.0, QuadratureSpec())
        with pytest.raises(InvalidInputError):
            integrate_adaptive(lambda x: x, 2.0, 1.0, QuadratureSpec())

    def test_negative_infinity_short_circuits(self):
        def fn(x):
            return -math.inf if x > 0.9 else 0.0

        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec())
        assert out.negative_infinity
        assert out.value == -math.inf
        assert out.error_estimate == 0.0

    def test_nan_sample_raises(self):
        with pytest.raises(ComputationError):
            integrate_adaptive(lambda x: math.nan, 0.0, 1.0, QuadratureSpec())

    def test_positive_infinity_sample_raises(self):
        with pytest.raises(ComputationError):
            integrate_adaptive(lambda x: math.inf, 0.0, 1.0, QuadratureSpec())

    def test_divergent_integrand_fails_loudly(self):
        # 1/x over (0, 1] has no finite integral; the refiner must hit
        # max_depth and raise rather than return a number.
        spec = QuadratureSpec(max_depth=16)
        with pytest.raises(ComputationError):
            integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0, spec)

    def test_endpoint_samples_stay_interior(self):
        # The integrand is only finite on the open interval; interior
        # sampling must keep the endpoints out of reach.
        def fn(x):
            assert 0.0 < x < 1.0
            return math.log(x) + math.log1p(-x)

        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec(rel_tol=1e-10))
        assert out.value == pytest.approx(-2.0, abs=1e-8)

    def test_tiny_interval(self):
        out = integrate_adaptive(lambda x: 1.0, 0.0, 1e-12, QuadratureSpec())
        assert out.value == pytest.approx(1e-12, rel=1e-12)

    def test_reported_estimate_bounds_actual_error_on_smooth_integrand(self):
        out = integrate_adaptive(math.exp, 0.0, 1.0, QuadratureSpec())
        actual = abs(out.value - (math.e - 1.0))
        assert actual <= max(out.error_estimate, 1e-14)

    def test_integrand_sees_python_floats(self):
        seen = set()

        def fn(x):
            seen.add(type(x))
            return math.sqrt(x)

        out = integrate_adaptive(fn, 0.0, 1.0, QuadratureSpec())
        assert seen == {float}
        assert type(out.value) is float
        assert type(out.error_estimate) is float

    def test_rule_is_numpys_leggauss(self):
        import numpy as np

        from graddiv.quadrature import _GL_NODES, _GL_WEIGHTS

        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert len(_GL_NODES) == len(_GL_WEIGHTS) == 15
        for ours, theirs in zip(_GL_NODES + _GL_WEIGHTS, [*nodes, *weights]):
            assert type(ours) is float
            assert ours == theirs

    def test_outcome_is_frozen(self):
        out = QuadratureOutcome(1.0, 0.0, 3)
        with pytest.raises(AttributeError):
            out.value = 2.0
