import math
import random
from dataclasses import dataclass

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graddiv import (
    NEGATIVE_INFINITY,
    Beta,
    ComputationError,
    ContinuousGrading,
    InvalidInputError,
    PiecewiseLinearCdf,
    Power,
    QuadratureSpec,
    Triangular,
    TruncatedNormal,
    Uniform,
    classical_entropy,
    corrected_entropy,
    divergence_continuous,
    invert_cdf,
    riemann_divergence,
    symmetric_divergence,
)

U01 = Uniform(0.0, 1.0)
P2 = Power(2.0)

PROBABILITY_FAMILIES = [
    Uniform(0.0, 1.0),
    Uniform(-3.0, 7.0),
    Triangular(0.0, 0.25, 1.0),
    Triangular(-1.0, 2.0, 4.0),
    Beta(2.0, 2.0),
    Beta(2.0, 5.0, a=-1.0, b=3.0),
    TruncatedNormal(0.0, 1.0, -1.0, 2.0),
    Power(2.0),
    Power(3.0, a=1.0, b=2.0),
    PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5), (3.0, 1.0))),
]


@dataclass(frozen=True)
class _HalfSupported(ContinuousGrading):
    """Test double whose density is 1/h on [0, h) and vanishes on the rest
    of [0, 1]; by default h = 1/2, the right half.

    Bypasses the catalog on purpose: a genuine zero-density region makes
    the divergence of any fully supported grading from it -inf.
    """

    h: float = 0.5

    family = "test_half_supported"

    @property
    def support(self):
        return (0.0, 1.0)

    def cdf(self, x):
        return min(x / self.h, 1.0)

    def density(self, x):
        return 1.0 / self.h if x < self.h else 0.0

    def log_density(self, x, da, db):
        return -math.log(self.h) if x < self.h else -math.inf

    def inverse(self, u):
        return self.h * u

    def shape_params(self):
        return {}


@dataclass(frozen=True)
class _DeclaredStep(_HalfSupported):
    """_HalfSupported that declares h, where its density drops to 0, as a
    breakpoint, so each side of the drop converges."""

    family = "test_declared_step"

    def breakpoints(self):
        return (self.h,)


class TestDivergenceContinuous:
    def test_power_two_from_uniform(self):
        r = divergence_continuous(P2, U01)
        assert r.value == pytest.approx(0.5 - math.log(2.0), abs=1e-8)
        assert r.terms_used > 0
        assert r.error_estimate > 0.0
        assert r.flags == frozenset()

    def test_uniform_from_power_two(self):
        r = divergence_continuous(U01, P2)
        assert r.value == pytest.approx(math.log(2.0) - 1.0, abs=1e-8)

    def test_self_divergence_is_zero(self):
        assert divergence_continuous(U01, U01).value == 0.0

    def test_support_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            divergence_continuous(U01, Uniform(0.0, 2.0))

    def test_zero_density_region_diverges(self):
        r = divergence_continuous(U01, _HalfSupported())
        assert r.value == -math.inf
        assert r.flags == frozenset({NEGATIVE_INFINITY})

    def test_gibbs_bound_for_probability_pairs(self):
        pairs = [
            (Triangular(0.0, 0.25, 1.0), Beta(2.0, 2.0)),
            (Beta(2.0, 2.0), Power(2.0)),
            (Power(2.0), Triangular(0.0, 0.75, 1.0)),
        ]
        for F, G in pairs:
            assert divergence_continuous(F, G).value <= 1e-12

    def test_beta_pair_with_shared_support(self):
        r = divergence_continuous(Beta(5.0, 5.0), Beta(2.0, 2.0))
        assert math.isfinite(r.value)
        assert r.value < 0.0

    def test_segment_slope_beyond_double_range(self):
        # The first slope, 1e300 / 1e-10, overflows; its logarithm does not.
        G = PiecewiseLinearCdf(((0.0, 0.0), (1e-10, 1e300), (1.0, 1.0000001e300)))
        r = divergence_continuous(U01, G)
        steep = 1e-10 * (math.log(1e300) - math.log(1e-10))
        rest = (1.0 - 1e-10) * math.log((1.0000001e300 - 1e300) / (1.0 - 1e-10))
        assert r.value == pytest.approx(674.6574, abs=1e-4)
        assert abs(r.value - (steep + rest)) <= r.error_estimate

    def test_custom_spec_tightens_estimate(self):
        loose = divergence_continuous(P2, U01, QuadratureSpec(abs_tol=1e-4, rel_tol=1e-4))
        tight = divergence_continuous(P2, U01, QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))
        assert tight.error_estimate < loose.error_estimate
        exact = 0.5 - math.log(2.0)
        assert abs(tight.value - exact) <= abs(loose.value - exact) + 1e-12


class TestRiemannDivergence:
    def test_uniform_self_is_exactly_zero(self):
        assert riemann_divergence(Uniform(0.0, 2.0), Uniform(0.0, 2.0), 7) == 0.0

    def test_first_order_convergence(self):
        # Both divergences from the uniform are 0.5 - ln 2, the triangular's
        # for any mode; its density has a breakpoint at the mode.
        exact = 0.5 - math.log(2.0)
        for F in (P2, Triangular(0.0, 0.25, 1.0)):
            errs = [abs(riemann_divergence(F, U01, n) - exact) for n in (100, 1000, 10000)]
            assert errs[0] > errs[1] > errs[2], F
            assert errs[2] < 1e-4, F

    def test_agrees_with_quadrature_on_beta(self):
        b22 = Beta(2.0, 2.0)
        quad = divergence_continuous(b22, U01).value
        grid = riemann_divergence(b22, U01, 100_000)
        assert grid == pytest.approx(quad, abs=1e-4)

    def test_rejects_small_grids(self):
        with pytest.raises(InvalidInputError):
            riemann_divergence(U01, U01, 1)

    def test_rejects_support_mismatch(self):
        with pytest.raises(InvalidInputError):
            riemann_divergence(U01, Uniform(0.0, 2.0), 100)

    def test_returns_plain_float(self):
        assert isinstance(riemann_divergence(P2, U01, 50), float)

    def test_a_cell_without_grade_width_is_refused(self):
        # F's grades sit at 1e6, where a tenth of its span, 1e-11, is below
        # half an ulp: the first cell's du rounds to 0
        F = PiecewiseLinearCdf(((0.0, 1e6), (1.0, 1e6 + 1e-10)))
        with pytest.raises(ComputationError, match="^grade grid collapsed at cell 1 "):
            riemann_divergence(F, U01, 10)

    def test_a_cell_whose_dq_rounds_to_0_is_negative_infinity(self):
        # G rises by 5e-324 over [0, 1/2], so a cell's dq there rounds to 0
        # and the sum is -inf. G's density is positive throughout:
        # divergence_continuous gives 1/2 ln(2 * 5e-324) + 1/2 ln 2.
        G = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 5e-324), (1.0, 1.0)))
        assert riemann_divergence(U01, G, 10) == -math.inf
        assert divergence_continuous(U01, G).value == pytest.approx(
            0.5 * math.log(2.0 * 5e-324) + 0.5 * math.log(2.0), rel=1e-12)

    def test_cell_ratio_below_double_range(self):
        # The first cell's dq is subnormal (1.2e-320) against du = 2e4, so
        # dq / du underflows to 0; its log is ln dq - ln du. The same 50
        # cells, summed at 50 digits, agree.
        F = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1e6)))
        G = Power(188.3)
        lo, hi = F.image
        us = [hi if k == 50 else lo + (hi - lo) * (k / 50) for k in range(51)]
        qs = [G.cdf(invert_cdf(F, u)) for u in us]
        assert 0.0 < qs[1] - qs[0] and (qs[1] - qs[0]) / (us[1] - us[0]) == 0.0
        with mpmath.workdps(50):
            exact = mpmath.fsum(
                mpmath.log((mpmath.mpf(q) - q0) / (mpmath.mpf(u) - u0)) * (mpmath.mpf(u) - u0)
                for u0, u, q0, q in zip(us, us[1:], qs, qs[1:])
            )
        assert riemann_divergence(F, G, 50) == pytest.approx(float(exact), rel=1e-12)

    def test_cell_ratio_beyond_double_range(self):
        # F's grades span 1e-310, so every du = 1e-311 is subnormal against
        # dq = 0.1 and dq / du overflows; its log is ln dq - ln du.
        F, G = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1e-310))), U01
        lo, hi = F.image
        us = [hi if k == 10 else lo + (hi - lo) * (k / 10) for k in range(11)]
        qs = [G.cdf(invert_cdf(F, u)) for u in us]
        assert (qs[1] - qs[0]) / (us[1] - us[0]) == math.inf
        with mpmath.workdps(50):
            exact = mpmath.fsum(
                mpmath.log((mpmath.mpf(q) - q0) / (mpmath.mpf(u) - u0)) * (mpmath.mpf(u) - u0)
                for u0, u, q0, q in zip(us, us[1:], qs, qs[1:])
            )
        value = riemann_divergence(F, G, 10)
        assert value == pytest.approx(float(exact), rel=1e-12)
        assert value == pytest.approx(divergence_continuous(F, G).value, rel=1e-9)


class TestCorrectedEntropy:
    def test_uniform_is_zero(self):
        assert corrected_entropy(Uniform(0.0, 10.0)).value == 0.0
        assert corrected_entropy(Uniform(-4.0, -1.0)).value == 0.0

    def test_beta_two_two(self):
        # 5/3 - ln 6: corrected entropy of the symmetric quadratic density
        r = corrected_entropy(Beta(2.0, 2.0))
        assert r.value == pytest.approx(5.0 / 3.0 - math.log(6.0), abs=1e-8)

    def test_power_two(self):
        r = corrected_entropy(P2)
        assert r.value == pytest.approx(0.5 - math.log(2.0), abs=1e-8)

    def test_arcsine_shape(self):
        # Endpoint densities diverge like x^(-1/2); the rule reads them
        # from the endpoint distances and holds the closed form to its
        # estimate, which is near the rounding of the sum.
        r = corrected_entropy(Beta(0.5, 0.5))
        assert abs(r.value - math.log(math.pi / 4.0)) <= r.error_estimate <= 1e-12

    def test_power_with_a_slowly_decaying_singular_end(self):
        # the terms toward 0 fall like e^(-u / 10) and never below
        # rounding, so that side keeps its full reach
        p = 0.05
        r = corrected_entropy(Power(p))
        assert abs(r.value - (-math.log(p) + (p - 1.0) / p)) <= r.error_estimate <= 1e-10

    def test_triangular_on_a_support_near_the_double_range(self):
        # 1/2 - ln 2 for every triangular density
        r = corrected_entropy(Triangular(1e300, 2e300, 4e300))
        assert r.value == pytest.approx(0.5 - math.log(2.0), abs=1e-8)

    def test_rejects_non_probability_grading(self):
        with pytest.raises(InvalidInputError):
            corrected_entropy(PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5))))

    def test_rescaling_invariance(self):
        # Affinely transplanting a shape to another interval must not move
        # its corrected entropy.
        pairs = [
            (Uniform(0.0, 1.0), Uniform(-7.0, 4.0)),
            (Triangular(0.0, 0.25, 1.0), Triangular(10.0, 10.5, 12.0)),
            (Beta(2.0, 5.0), Beta(2.0, 5.0, a=-1.0, b=3.0)),
            (Power(2.0), Power(2.0, a=5.0, b=6.5)),
            (
                TruncatedNormal(0.5, 0.5, 0.0, 1.0),
                TruncatedNormal(5.0, 1.0, 4.0, 6.0),
            ),
        ]
        for base, moved in pairs:
            hb = corrected_entropy(base).value
            hm = corrected_entropy(moved).value
            assert hm == pytest.approx(hb, abs=1e-8)


@dataclass(frozen=True)
class _InfiniteOnRightHalf(_HalfSupported):
    """Test double whose density has overflowed to +inf on the right half
    of [0, 1], where _HalfSupported's vanishes."""

    family = "test_infinite_on_right_half"

    def density(self, x):
        return math.inf if x >= 0.5 else 0.0

    def log_density(self, x, da, db):
        return math.inf if x >= 0.5 else -math.inf


class TestDensityOutOfRange:
    """A density that is infinite, overflows a term or raises a float
    exception is a computation failure, never a -inf divergence."""

    @pytest.mark.parametrize(
        "F",
        [
            TruncatedNormal(0.0, 1e-310, -1.0, 1.0),  # density +inf
            TruncatedNormal(0.0, 1e-306, -1.0, 1.0),  # density finite, term beyond range
            Beta(1e300, 1e300),  # OverflowError in exp
        ],
    )
    def test_corrected_and_classical_entropy(self, F):
        with pytest.raises(ComputationError, match="left double range"):
            corrected_entropy(F)
        with pytest.raises(ComputationError, match="left double range"):
            classical_entropy(F)

    def test_infinite_density_against_a_vanishing_one(self):
        with pytest.raises(ComputationError, match="density of F is infinite"):
            divergence_continuous(_InfiniteOnRightHalf(), _HalfSupported())
        with pytest.raises(ComputationError, match="left double range"):
            divergence_continuous(_InfiniteOnRightHalf(), U01)

    @pytest.mark.parametrize(
        "F",
        [
            TruncatedNormal(0.0, 1e-310, -1.0, 1.0),
            TruncatedNormal(0.0, 1e-306, -1.0, 1.0),
            Beta(1e300, 1e300),
        ],
    )
    def test_symmetric_divergence(self, F):
        for pair in ((F, Uniform(*F.support)), (Uniform(*F.support), F)):
            with pytest.raises(ComputationError, match="left double range"):
                symmetric_divergence(*pair)

    def test_symmetric_infinite_density_against_a_vanishing_one(self):
        for pair in ((_InfiniteOnRightHalf(), _HalfSupported()),
                     (_HalfSupported(), _InfiniteOnRightHalf())):
            with pytest.raises(ComputationError, match="a density is infinite"):
                symmetric_divergence(*pair)


class TestClassicalEntropy:
    def test_uniform(self):
        r = classical_entropy(Uniform(0.0, 10.0))
        assert r.value == pytest.approx(math.log(10.0), abs=1e-10)

    def test_triangular(self):
        # 1/2 + ln((b - a) / 2) for any triangular density
        r = classical_entropy(Triangular(0.0, 1.0, 2.0))
        assert r.value == pytest.approx(0.5, abs=1e-8)

    def test_shift_invariance(self):
        a = classical_entropy(TruncatedNormal(0.0, 1.0, -1.0, 1.0)).value
        b = classical_entropy(TruncatedNormal(5.0, 1.0, 4.0, 6.0)).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_split_from_corrected_by_log_width(self):
        for F in PROBABILITY_FAMILIES:
            a, b = F.support
            corrected = corrected_entropy(F).value
            classical = classical_entropy(F).value
            assert corrected == pytest.approx(
                classical - math.log(b - a), abs=1e-6
            )

    @pytest.mark.parametrize(
        "F, expected",
        [
            (Uniform(0.0, 10.0), ("0x1.26bb1bbb55516p+1", 57, "0x1.0b87decee4881p-43")),
            (Triangular(0.0, 1.0, 2.0), ("0x1.0000000000000p-1", 148, "0x1.003ea2b23f3bfp-38")),
            (Beta(2.0, 5.0), ("-0x1.f028d1db40a28p-2", 81, "0x1.93a172807bcd0p-45")),
            (TruncatedNormal(0.0, 1.0, -1.0, 1.0),
             ("0x1.5d961e33e12fap-1", 113, "0x1.97c74828d318ap-46")),
            (Power(0.5, 2.0, 7.0), ("0x1.4d763776aaa2cp+0", 61, "0x1.2715135469731p-45")),
            (PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.25), (3.0, 1.0))),
             ("0x1.150ac42964d62p+0", 114, "0x1.394ec8ed73bd0p-44")),
        ],
    )
    def test_pinned(self, F, expected):
        r = classical_entropy(F)
        assert (r.value.hex(), r.terms_used, r.error_estimate.hex()) == expected

    @pytest.mark.parametrize(
        "F, exact",
        [
            (Uniform(0.0, 10.0), lambda: mpmath.log(10)),
            (Triangular(0.0, 1.0, 2.0), lambda: mpmath.mpf(0.5)),
            (Beta(2.0, 5.0), lambda: _beta_entropy_closed_form(2.0, 5.0)),
            (TruncatedNormal(0.0, 1.0, -1.0, 1.0),
             lambda: _truncated_normal_entropy(0.0, 1.0, -1.0, 1.0) + mpmath.log(2)),
            (Power(0.5, 2.0, 7.0), lambda: mpmath.log(10) - 1),
            (PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.25), (3.0, 1.0))),
             lambda: -(mpmath.mpf(0.25) * mpmath.log(0.25) + mpmath.mpf(0.75) * mpmath.log(0.375))),
        ],
    )
    def test_pinned_cases_meet_their_closed_forms(self, F, exact):
        r = classical_entropy(F)
        with mpmath.workdps(50):
            assert abs(r.value - exact()) <= r.error_estimate


def _symmetric_pairs(count: int, seed: int):
    """Seeded pairs of Beta, Power and Uniform gradings on a shared
    interval, with shapes log-uniform on [0.5, 5]."""
    rng = random.Random(seed)

    def shape():
        return math.exp(rng.uniform(math.log(0.5), math.log(5.0)))

    def grading(a, b):
        kind = rng.choice(("beta", "beta", "power", "uniform"))
        if kind == "beta":
            return Beta(shape(), shape(), a=a, b=b)
        if kind == "power":
            return Power(shape(), a=a, b=b)
        return Uniform(a, b)

    pairs = []
    for _ in range(count):
        a, b = rng.choice(((0.0, 1.0), (-1.0, 3.0), (2.0, 2.5)))
        pairs.append((grading(a, b), grading(a, b)))
    return pairs


def _beta_shape(F: ContinuousGrading) -> tuple[float, float]:
    if isinstance(F, Beta):
        return F.alpha, F.beta
    if isinstance(F, Power):
        return F.p, 1.0
    assert isinstance(F, Uniform)
    return 1.0, 1.0


class TestSymmetricDivergence:
    def test_uniform_power_pair(self):
        r = symmetric_divergence(U01, P2)
        assert r.value == pytest.approx(-0.5, abs=1e-8)

    def test_swap_invariance(self):
        pairs = [
            (U01, P2),
            (Beta(2.0, 2.0), Triangular(0.0, 0.25, 1.0)),
            (TruncatedNormal(0.0, 1.0, -1.0, 2.0), Uniform(-1.0, 2.0)),
        ]
        for F, G in pairs:
            assert abs(
                symmetric_divergence(F, G).value - symmetric_divergence(G, F).value
            ) <= 1e-10

    def test_self_pair_is_zero(self):
        assert symmetric_divergence(P2, P2).value == 0.0

    def test_nonpositive_for_probability_pairs(self):
        r = symmetric_divergence(Beta(2.0, 2.0), Triangular(0.0, 0.5, 1.0))
        assert r.value <= 0.0

    def test_zero_density_region_diverges(self):
        r = symmetric_divergence(U01, _HalfSupported())
        assert r.value == -math.inf
        assert NEGATIVE_INFINITY in r.flags

    def test_second_direction_is_skipped_after_negative_infinity(self):
        # _HalfSupported's density jumps to 0 at 1/2 without declaring a
        # breakpoint, so its own direction would not converge; the sum is
        # -inf whatever it is.
        with pytest.raises(ComputationError, match="did not converge"):
            divergence_continuous(_HalfSupported(), U01)
        r = symmetric_divergence(U01, _HalfSupported())
        assert r.terms_used == divergence_continuous(U01, _HalfSupported()).terms_used

    @pytest.mark.parametrize("F, G", _symmetric_pairs(16, seed=5))
    def test_against_the_closed_form(self, F, G):
        # -KL(F || G) - KL(G || F): on [a, b], Power(p) is Beta(p, 1) and
        # Uniform is Beta(1, 1), and KL does not depend on the interval
        first, second = _beta_shape(F), _beta_shape(G)
        with mpmath.workdps(50):
            exact = float(-_beta_kl_closed_form(first, second)
                          - _beta_kl_closed_form(second, first))
        r = symmetric_divergence(F, G)
        assert r.flags == frozenset()
        assert abs(r.value - exact) <= r.error_estimate

    def test_both_densities_vanishing_is_a_zero_term(self):
        # past h both densities are 0, where (f - g) ln(g / f) is 0 * NaN;
        # the term is 0, so F from itself is exactly 0
        r = symmetric_divergence(_DeclaredStep(0.5), _DeclaredStep(0.5))
        assert r.value == 0.0 and r.flags == frozenset()
        assert r.terms_used == 98
        # on [1/4, 1/2) g vanishes under f, and past 1/2 both do
        r = symmetric_divergence(_DeclaredStep(0.5), _DeclaredStep(0.25))
        assert r.value == -math.inf and r.flags == frozenset({NEGATIVE_INFINITY})

    @pytest.mark.parametrize("F, G", [(U01, _HalfSupported()), (_HalfSupported(), U01)])
    def test_negative_infinity_in_each_orientation(self, F, G):
        r = symmetric_divergence(F, G)
        assert r.value == -math.inf
        assert r.flags == frozenset({NEGATIVE_INFINITY})

    def test_one_integral_takes_fewer_evaluations_than_both_directions(self):
        # evaluation counts are deterministic: 97 against 81 + 81 when the
        # sum became one integral
        F, G = Beta(2.0, 5.0), Beta(5.0, 2.0)
        both = divergence_continuous(F, G).terms_used + divergence_continuous(G, F).terms_used
        assert symmetric_divergence(F, G).terms_used < both

    @pytest.mark.parametrize(
        "F, G",
        [
            # f + g has two narrow peaks with a valley between them
            (TruncatedNormal(4.56, 0.12, 2.0, 6.0), TruncatedNormal(2.47, 0.015, 2.0, 6.0)),
            # (f - g) ln(g / f) dips to 0 where f = g near an end
            (TruncatedNormal(2.62, 0.0588, -1.0, 3.0), Triangular(-1.0, 2.91, 3.0)),
        ],
    )
    def test_a_cut_walk_that_fails_is_walked_again_at_full_reach(self, F, G):
        both = divergence_continuous(F, G), divergence_continuous(G, F)
        r = symmetric_divergence(F, G)
        assert abs(r.value - sum(d.value for d in both)) <= (
            r.error_estimate + sum(d.error_estimate for d in both))

    @pytest.mark.parametrize(
        "F, G",
        [
            (Beta(2.0, 5.0), Beta(5.0, 2.0)),
            (Beta(0.5, 0.5), Beta(2.0, 2.0)),
            (Power(0.5), U01),
            (TruncatedNormal(0.0, 1.0, -1.0, 2.0), Triangular(-1.0, 0.5, 2.0)),
            (PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5), (3.0, 2.0))), Uniform(0.0, 3.0)),
            (U01, _HalfSupported()),
        ],
    )
    def test_swap_is_bit_identical(self, F, G):
        def bits(r):
            return r.value.hex(), r.terms_used, r.error_estimate.hex(), r.flags

        assert bits(symmetric_divergence(F, G)) == bits(symmetric_divergence(G, F))


class TestBitIdenticalResults:
    """Plain float results, and values pinned to the last bit."""

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: divergence_continuous(Beta(2.0, 5.0), Beta(5.0, 2.0)),
            lambda: corrected_entropy(Beta(2.0, 5.0)),
            lambda: symmetric_divergence(Beta(2.0, 5.0), Beta(5.0, 2.0)),
            lambda: classical_entropy(TruncatedNormal(0.0, 1.0, -1.0, 2.0)),
        ],
    )
    def test_value_and_estimate_are_python_floats(self, compute):
        r = compute()
        assert type(r.value) is float
        assert type(r.error_estimate) is float

    def test_corrected_beta_pinned(self):
        # the closed form is -0.484530714995488708746...
        r = corrected_entropy(Beta(2.0, 5.0))
        assert r.value == -0.4845307149954885
        assert r.error_estimate == 4.481200448604697e-14
        assert r.terms_used == 81
        assert abs(r.value - -0.484530714995488708746) <= r.error_estimate

    def test_divergence_beta_pair_pinned(self):
        # the closed form is -13/4
        r = divergence_continuous(Beta(2.0, 5.0), Beta(5.0, 2.0))
        assert r.value == -3.25
        assert r.terms_used == 81

    @pytest.mark.parametrize(
        "compute, value, error_estimate, terms_used",
        [
            (lambda: corrected_entropy(Power(2.0)),
             -0.19314718055994531, 3.6038655057136417e-12, 53),
            (lambda: corrected_entropy(TruncatedNormal(0.3, 0.5, -1.0, 2.0)),
             -0.39768344016459034, 1.3862739235580668e-10, 113),
            (lambda: corrected_entropy(Triangular(0.0, 0.6, 2.0)),
             -0.19314718055994534, 3.6097454809342194e-12, 106),
            (lambda: corrected_entropy(
                PiecewiseLinearCdf(((0, 0), (0.5, 0.6), (1.5, 0.9), (2, 1)))),
             -0.28040448209512714, 4.169233511016012e-14, 171),
            (lambda: symmetric_divergence(Beta(2, 5), Beta(5, 2)),
             -6.499999999999998, 2.8246192677406527e-13, 97),
        ],
        ids=["power", "truncated_normal", "triangular", "piecewise_linear_cdf", "symmetric_beta"],
    )
    def test_one_result_per_family_pinned(self, compute, value, error_estimate, terms_used):
        r = compute()
        assert (r.value, r.error_estimate, r.terms_used) == (value, error_estimate, terms_used)
        assert r.flags == frozenset()

    def test_corrected_beta_spends_no_evaluations_below_rounding(self):
        # each side ends where its terms fall below one rounding of the
        # sum, far short of 2^-1050 of the width, which takes 197
        assert corrected_entropy(Beta(2.0, 5.0)).terms_used <= 100

    def test_riemann_beta_uniform_pinned(self):
        assert riemann_divergence(Beta(2.0, 2.0), U01, 1000) == -0.12469156408815721


def _beta_entropy_closed_form(alpha: float, beta: float):
    """Corrected entropy of Beta(alpha, beta) from its digamma closed form,
    in 50-digit mpmath."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        return (
            mpmath.log(mpmath.beta(a, b))
            - (a - 1) * mpmath.digamma(a)
            - (b - 1) * mpmath.digamma(b)
            + (a + b - 2) * mpmath.digamma(a + b)
        )


def _truncated_normal_entropy(mu: float, sigma: float, a: float, b: float):
    """Corrected entropy of TruncatedNormal(mu, sigma, a, b), in the working
    precision of mpmath; a window above the mean is measured on the
    mirrored lower tail, as the family does."""
    def below(z):
        # the normal cdf, taken as 0 below -1000, where mpmath's erfc overflows
        return mpmath.ncdf(z) if z > -1000 else mpmath.mpf(0)

    mu, sigma, a, b = (mpmath.mpf(v) for v in (mu, sigma, a, b))
    lo, hi = (a - mu) / sigma, (b - mu) / sigma
    if a > mu:
        mass = below(-lo) - below(-hi)
    else:
        mass = below(hi) - below(lo)
    differential = mpmath.log(mpmath.sqrt(2 * mpmath.pi * mpmath.e) * sigma * mass) + (
        lo * mpmath.npdf(lo) - hi * mpmath.npdf(hi)
    ) / (2 * mass)
    return differential - mpmath.log(b - a)


def _truncated_normal_windows(count: int, seed: int):
    """Seeded windows: mu in [-3, 3], sigma log-uniform on [0.1, 10], the
    left end in [-5, 5] and the width log-uniform on [1e-3, 5]; a window
    with no normal mass at double precision is left out."""
    rng = random.Random(seed)
    windows = []
    for _ in range(count):
        mu = rng.uniform(-3.0, 3.0)
        sigma = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        width = math.exp(rng.uniform(math.log(1e-3), math.log(5.0)))
        a = rng.uniform(-5.0, 5.0)
        try:
            windows.append(TruncatedNormal(mu, sigma, a, a + width))
        except InvalidInputError:
            pass
    return windows


class TestClosedForms:
    """Every computed value lies within its error_estimate of the exact
    one, or the computation raises ComputationError."""

    @settings(max_examples=150)
    @given(st.floats(0.02, 50.0), st.floats(0.02, 50.0))
    @example(0.05, 0.05)
    @example(0.05, 50.0)
    @example(50.0, 0.05)
    @example(50.0, 50.0)
    @example(0.02, 0.02)
    @example(0.03, 2.0)
    @example(1.0, 0.99999)
    @example(47.0, 46.62210308035433)
    def test_beta_corrected_entropy(self, alpha, beta):
        # the estimate covers the rounding of Beta's own ln B, which shifts
        # the log density at every node
        exact = float(_beta_entropy_closed_form(alpha, beta))
        try:
            r = corrected_entropy(Beta(alpha, beta))
        except ComputationError:
            # mass within 1e-316 of an end that doubles cannot resolve
            assert min(alpha, beta) < 0.05
            return
        assert abs(r.value - exact) <= r.error_estimate

    def test_beta_with_log_normalizer_near_zero(self):
        # ln B(1, 0.99999) is 1.00000500003e-05, 7e-16 off in doubles
        r = corrected_entropy(Beta(1.0, 0.99999))
        exact = float(_beta_entropy_closed_form(1.0, 0.99999))
        assert abs(r.value - exact) <= r.error_estimate

    @settings(max_examples=60)
    @given(st.floats(0.02, 50.0))
    @example(0.05)
    @example(0.02)
    def test_power_corrected_entropy(self, p):
        with mpmath.workdps(50):
            exact = float(-mpmath.log(p) + (mpmath.mpf(p) - 1) / p)
        try:
            r = corrected_entropy(Power(p))
        except ComputationError:
            assert p < 0.05
            return
        assert abs(r.value - exact) <= r.error_estimate

    @pytest.mark.parametrize("F", [Power(1e-300), Beta(1e-300, 1.0), Beta(5e-324, 1.0)])
    def test_mass_beyond_double_resolution_is_an_error(self, F):
        # almost all the mass lies within 1e-300 of 0; the exact corrected
        # entropy is about -1e300 (and -inf for the subnormal shape)
        with pytest.raises(ComputationError, match="did not converge"):
            corrected_entropy(F)

    def test_truncated_normal_deep_in_the_tail(self):
        # sigma * sqrt(2 pi) * mass underflows, but its log does not: the
        # density is about 3e301 * exp(-3e301 (x - a)) near a = 3e-299
        F = TruncatedNormal(0.0, 1e-300, 3e-299, 1.0)
        with mpmath.workdps(50):
            exact = float(_truncated_normal_entropy(0.0, 1e-300, 3e-299, 1.0))
        for r in (corrected_entropy(F), classical_entropy(F)):
            assert abs(r.value - exact) <= r.error_estimate

    def test_truncated_normal_deep_in_the_upper_tail(self):
        # the mirror image: all the mass within 1e-301 of b, and the terms
        # on the way to it zero, which must not end that side early
        F = TruncatedNormal(0.0, 1e-300, -1.0, -3e-299)
        with mpmath.workdps(50):
            exact = float(_truncated_normal_entropy(0.0, 1e-300, 3e-299, 1.0))
        for r in (corrected_entropy(F), classical_entropy(F)):
            assert abs(r.value - exact) <= r.error_estimate

    def test_truncated_normal_windows(self):
        # A narrow window's mass is a difference of two close cdf values;
        # the estimate covers the digits that difference loses.
        windows = _truncated_normal_windows(400, seed=0)
        assert len(windows) > 380
        for F in windows:
            with mpmath.workdps(60):
                exact = float(_truncated_normal_entropy(F.mu, F.sigma, F.a, F.b))
            r = corrected_entropy(F)
            assert abs(r.value - exact) <= r.error_estimate, F

    @pytest.mark.parametrize(
        "F, G",
        [
            (TruncatedNormal(0.3, 0.5, -1.0, 2.0), Uniform(-1.0, 2.0)),
            (Uniform(-1.0, 2.0), TruncatedNormal(0.3, 0.5, -1.0, 2.0)),
            (TruncatedNormal(0.0, 1.0, -1.0, 2.0), TruncatedNormal(0.5, 0.7, -1.0, 2.0)),
            (TruncatedNormal(0.0, 1.0, 30.0, 31.0), Uniform(30.0, 31.0)),
            (Beta(2.0, 2.0), U01),
            (U01, Beta(2.0, 2.0)),
            (Beta(2.0, 5.0), Beta(5.0, 2.0)),
            (Power(2.0), Beta(2.0, 2.0)),
            (Power(0.5), U01),
            (Beta(0.5, 0.5), Beta(2.0, 2.0)),
            (Beta(0.8, 2.0), Power(0.5)),
            (Triangular(0.0, 0.25, 1.0), Beta(2.0, 2.0)),
        ],
    )
    def test_divergence_against_mpmath_quad(self, F, G):
        a, b = F.support
        points = sorted({a, b, *F.breakpoints(), *G.breakpoints()})
        with mpmath.workdps(50):
            exact, oracle_error = mpmath.quad(
                lambda x: _mp_density(F, x) * mpmath.log(_mp_density(G, x) / _mp_density(F, x)),
                [mpmath.mpf(p) for p in points], error=True,
            )
            assert oracle_error < 1e-20
        r = divergence_continuous(F, G)
        assert abs(r.value - float(exact)) <= r.error_estimate

    @pytest.mark.parametrize(
        "shapes",
        [(0.05, 2.0, 2.0, 0.3), (0.3, 0.3, 5.0, 5.0), (5.0, 0.05, 0.5, 0.5), (0.05, 0.05, 0.05, 50.0)],
    )
    def test_beta_divergence_against_its_closed_form(self, shapes):
        # mpmath's own tanh-sinh does not resolve these endpoint
        # singularities at 50 digits; the digamma form is exact
        a1, b1, a2, b2 = shapes
        exact = float(-_beta_kl_closed_form((a1, b1), (a2, b2)))
        r = divergence_continuous(Beta(a1, b1), Beta(a2, b2))
        assert abs(r.value - exact) <= r.error_estimate


def _beta_kl_closed_form(first, second):
    """KL(Beta(*first) || Beta(*second)) from its digamma closed form, in
    50-digit mpmath."""
    with mpmath.workdps(50):
        a1, b1, a2, b2 = (mpmath.mpf(v) for v in (*first, *second))
        return (
            mpmath.log(mpmath.beta(a2, b2) / mpmath.beta(a1, b1))
            + (a1 - a2) * mpmath.digamma(a1)
            + (b1 - b2) * mpmath.digamma(b1)
            + (a2 - a1 + b2 - b1) * mpmath.digamma(a1 + b1)
        )


def _mp_density(F: ContinuousGrading, x):
    """F's density at x in mpmath arithmetic, from its closed form."""
    a, b = (mpmath.mpf(v) for v in F.support)
    t = (x - a) / (b - a)
    if isinstance(F, Uniform):
        return 1 / (b - a)
    if isinstance(F, Beta):
        alpha, beta = mpmath.mpf(F.alpha), mpmath.mpf(F.beta)
        return t ** (alpha - 1) * (1 - t) ** (beta - 1) / mpmath.beta(alpha, beta) / (b - a)
    if isinstance(F, Power):
        p = mpmath.mpf(F.p)
        return p * t ** (p - 1) / (b - a)
    if isinstance(F, Triangular):
        c = mpmath.mpf(F.c)
        if x <= c:
            return 2 * (x - a) / ((c - a) * (b - a))
        return 2 * (b - x) / ((b - c) * (b - a))
    if isinstance(F, TruncatedNormal):
        mu, sigma = mpmath.mpf(F.mu), mpmath.mpf(F.sigma)
        # a window above the mean is measured on the mirrored lower tail
        side = -1 if a > mu else 1
        mass = side * (mpmath.ncdf(side * (b - mu) / sigma) - mpmath.ncdf(side * (a - mu) / sigma))
        return mpmath.npdf((x - mu) / sigma) / (sigma * mass)
    raise TypeError(F)
