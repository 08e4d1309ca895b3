"""Divergence of one continuous grading from another on a shared interval.

For gradings F, G on [a, b] with densities f, g, the divergence is

    integral over [a, b] of f(x) * ln(g(x) / f(x)) dx,

the continuum limit of the increment-sum form: increments of the graded
chain become density ratios. Where f vanishes the integrand contributes
nothing; where g vanishes but f does not, the divergence is -inf.

Two independent evaluation routes are provided on purpose. The precise
one is divergence_continuous, on adaptive quadrature, and the entropies
run on it: corrected_entropy from the uniform grading, classical_entropy
from the position grading x -> x (density 1, log 0). symmetric_divergence,
the sum of both directions, is one integral of (f - g) ln(g / f) on the
same quadrature; it is -inf where either density vanishes under the
other. riemann_divergence builds the sum directly from a partition of the
grade image via cdf inversion, making it a structurally different
cross-check rather than a faster variant of the same code path.
"""

import math

from .discrete import DivergenceResult, _result
from .errors import ComputationError, InvalidInputError
from .families import ContinuousGrading, PiecewiseLinearCdf, Uniform, invert_cdf
from .ordered import count, log_ratio
from .quadrature import QuadratureSpec, integrate_adaptive


def _require_same_support(F: ContinuousGrading, G: ContinuousGrading) -> tuple[float, float]:
    if F.support != G.support:
        raise InvalidInputError(
            f"gradings live on different supports: {F.support!r} vs {G.support!r}"
        )
    return F.support


def _out_of_range(detail: str) -> ComputationError:
    return ComputationError(f"the integrand left double range: {detail}")


def _quadrature(
    F: ContinuousGrading,
    G: ContinuousGrading,
    spec: QuadratureSpec,
    make_integrand,
    term: str,
    mass: float,
    value_rounding: float,
    mass_rounding: float,
) -> DivergenceResult:
    """The quadrature that divergence_continuous and symmetric_divergence
    share, over F and G's common support.

    make_integrand(log_f, log_g, vanished) builds the integrand; it appends
    x to ``vanished`` where it returns -inf for a vanishing density, so a
    -inf that is not such a node is a term (named ``term``) beyond double
    range. The error estimate adds value_rounding |value| + mass_rounding
    for the rounding of the gradings' log-normalizers.
    """
    a, b = _require_same_support(F, G)
    vanished = []
    outcome = integrate_adaptive(
        make_integrand(F.log_density, G.log_density, vanished), a, b, spec,
        breakpoints=F.breakpoints() + G.breakpoints(), mass=mass,
    )
    if outcome.negative_infinity:
        if not vanished:
            raise _out_of_range(f"a term {term} overflowed to -inf")
        return _result(-math.inf, outcome.panels, 0.0, True)
    error = outcome.error_estimate + value_rounding * abs(outcome.value) + mass_rounding
    return _result(outcome.value, outcome.panels, 0.0, False, error_estimate=error)


# The value is -inf only where a density vanishes under a positive, finite
# other. An infinite density, a term beyond double range or a float
# exception raised by a density is a computation failure, never a -inf
# divergence. A term beyond double range is -inf, which stops the
# quadrature walk, and is told from a vanishing density afterwards; a NaN
# or +inf term fails in integrate_adaptive.

def _directed(log_f, log_g, vanished):
    """f ln(g / f) and f, with no test on the common path."""
    inf, exp = math.inf, math.exp

    def integrand(x: float, da: float, db: float) -> tuple[float, float]:
        try:
            lf = log_f(x, da, db)
            fx = exp(lf)
            if fx == 0.0:
                return 0.0, 0.0
            lg = log_g(x, da, db)
        except ArithmeticError as exc:
            raise _out_of_range(f"{exc} at x={x!r}") from None
        if lg == -inf:
            if fx == inf:
                raise _out_of_range(f"the density of F is infinite at x={x!r}")
            vanished.append(x)
            return -inf, fx
        return fx * (lg - lf), fx

    return integrand


def _symmetric(log_f, log_g, vanished):
    """(f - g) ln(g / f) and f + g; written alike in f and g, so swapping
    them changes no bit. A finite term is the common path: it means both
    logs are finite."""
    inf, exp = math.inf, math.exp

    def integrand(x: float, da: float, db: float) -> tuple[float, float]:
        try:
            lf = log_f(x, da, db)
            lg = log_g(x, da, db)
            fx = exp(lf)
            gx = exp(lg)
        except ArithmeticError as exc:
            raise _out_of_range(f"{exc} at x={x!r}") from None
        term = (fx - gx) * (lg - lf)
        if term - term == 0.0:
            return term, fx + gx
        if fx == 0.0 and gx == 0.0:
            return 0.0, 0.0
        if lf == -inf or lg == -inf:
            if fx == inf or gx == inf:
                raise _out_of_range(f"a density is infinite at x={x!r}")
            vanished.append(x)
            return -inf, fx + gx
        return term, fx + gx

    return integrand


def divergence_continuous(
    F: ContinuousGrading,
    G: ContinuousGrading,
    spec: QuadratureSpec = QuadratureSpec(),
) -> DivergenceResult:
    """Divergence of G from F: integral of f * ln(g/f) over the support.

    The integrand is exp(lf) * (lg - lf) from the two log-densities, and
    F's density must integrate to its grade span on the same nodes.
    """
    # A rounded log-normalizer shifts ln f by up to d_f and ln g by up to
    # d_g at every x, which moves the value by up to d_f |value| +
    # (d_f + d_g) times F's mass.
    d_f, d_g = F._log_norm_error, G._log_norm_error
    return _quadrature(F, G, spec, _directed, "f ln(g / f)", F.grade_span,
                       d_f, (d_f + d_g) * F.grade_span)


def riemann_divergence(F: ContinuousGrading, G: ContinuousGrading, n_points: int) -> float:
    """Divergence approximated on an n-cell partition of the grade image.

    Splits im(F) evenly into u-values, pulls each back through the
    quantile of F, reads G at those points, and sums ln(dq/du) * du over
    the cells. Shares no code with the quadrature route; converges at
    first order in 1/n.
    """
    n_points = count(n_points, "n_points", 2)
    _require_same_support(F, G)
    lo, hi = F.image
    log, inf = math.log, math.inf
    total = 0.0
    prev_u = lo
    prev_q = G.cdf(invert_cdf(F, lo))
    for k in range(1, n_points + 1):
        u = hi if k == n_points else lo + (hi - lo) * (k / n_points)
        q = G.cdf(invert_cdf(F, u))
        du = u - prev_u
        dq = q - prev_q
        if du <= 0.0:
            raise ComputationError(
                f"grade grid collapsed at cell {k} (n_points too large for float spacing)"
            )
        if dq <= 0.0:
            return -inf
        ratio = dq / du
        if 0.0 < ratio < inf:
            total += log(ratio) * du
        else:  # dq / du underflowed to 0 or overflowed
            total += log_ratio(dq, du) * du
        prev_u, prev_q = u, q
    return total + 0.0


def corrected_entropy(
    F: ContinuousGrading, spec: QuadratureSpec = QuadratureSpec()
) -> DivergenceResult:
    """Entropy of a probability grading measured against the uniform one.

    Equals -integral of f * ln((b - a) * f); unlike the classical
    differential entropy it is invariant under affine rescaling of the
    support and vanishes exactly for the uniform density.
    """
    if not F.is_probability():
        raise InvalidInputError(
            f"corrected entropy needs a probability grading; image is {F.image!r}"
        )
    a, b = F.support
    return divergence_continuous(F, Uniform(a, b), spec)


def symmetric_divergence(
    F: ContinuousGrading,
    G: ContinuousGrading,
    spec: QuadratureSpec = QuadratureSpec(),
) -> DivergenceResult:
    """Sum of the divergence in both directions; -inf if either side is.

    The sum is one integral, of (f - g) ln(g / f): the negated Jeffreys
    divergence (Jeffreys, Proc. R. Soc. Lond. A 186, 1946). Its integrand
    is <= 0 at every x, so the sum does not cancel and one estimate covers
    it. Each node reads each log density once, and f + g must integrate to
    the summed grade spans on the same nodes, so a deficit in either
    density keeps the rule refining. The walk stops at the first node where
    one density vanishes under a positive, finite other; where both vanish
    the term is 0. Raises ComputationError when the sum leaves double
    range.
    """
    # With ln f and ln g shifted by constants c_f, c_g (|c| <= d) and
    # spans S_F, S_G, the value moves by c_f D(F||G) + c_g D(G||F) +
    # (c_g - c_f)(S_F - S_G) to first order. Since ln t <= t - 1,
    # D(F||G) - (S_G - S_F) and D(G||F) - (S_F - S_G) are both <= 0 and sum
    # to the value, so the shift is at most max(d_f, d_g) |value| +
    # 2 (d_f + d_g) |S_F - S_G|. With equal spans the last term is 0, and
    # what is left of the spans' part is second order, (c_g - c_f)^2 S_F;
    # (d_f + d_g) max(d_f, d_g) (S_F + S_G) covers it.
    d_f, d_g = F._log_norm_error, G._log_norm_error
    s_f, s_g = F.grade_span, G.grade_span
    d_max = max(d_f, d_g)
    return _quadrature(F, G, spec, _symmetric, "(f - g) ln(g / f)", s_f + s_g,
                       d_max, (d_f + d_g) * (2.0 * abs(s_f - s_g) + d_max * (s_f + s_g)))


def classical_entropy(
    F: ContinuousGrading, spec: QuadratureSpec = QuadratureSpec()
) -> DivergenceResult:
    """Differential entropy -integral of f * ln(f) over the support: the
    divergence of F from the position grading x -> x."""
    a, b = F.support
    return divergence_continuous(F, PiecewiseLinearCdf(((a, a), (b, b))), spec)
