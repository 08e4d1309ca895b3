"""Divergence of one continuous grading from another on a shared interval.

For gradings F, G on [a, b] with densities f, g, the divergence is

    integral over [a, b] of f(x) * ln(g(x) / f(x)) dx,

the continuum limit of the increment-sum form: increments of the graded
chain become density ratios. Where f vanishes the integrand contributes
nothing; where g vanishes but f does not, the divergence is -inf.

Two independent evaluation routes are provided on purpose. The precise
one is divergence_continuous, on adaptive quadrature, and the entropies
run on it: corrected_entropy from the uniform grading, classical_entropy
from the position grading x -> x (density 1, log 0), and
symmetric_divergence in both directions. riemann_divergence builds the sum
directly from a partition of the grade image via cdf inversion, making it
a structurally different cross-check rather than a faster variant of the
same code path.
"""

import math

from .discrete import NEGATIVE_INFINITY, DivergenceResult, _result
from .errors import ComputationError, InvalidInputError
from .families import ContinuousGrading, PiecewiseLinearCdf, Uniform, invert_cdf
from .ordered import as_int, log_ratio
from .quadrature import QuadratureSpec, integrate_adaptive

__all__ = [
    "divergence_continuous",
    "riemann_divergence",
    "corrected_entropy",
    "symmetric_divergence",
    "classical_entropy",
]


def _require_same_support(F: ContinuousGrading, G: ContinuousGrading) -> tuple[float, float]:
    if F.support != G.support:
        raise InvalidInputError(
            f"gradings live on different supports: {F.support!r} vs {G.support!r}"
        )
    return F.support


def _out_of_range(detail: str) -> ComputationError:
    return ComputationError(f"the integrand left double range: {detail}")


def divergence_continuous(
    F: ContinuousGrading,
    G: ContinuousGrading,
    spec: QuadratureSpec = QuadratureSpec(),
) -> DivergenceResult:
    """Divergence of G from F: integral of f * ln(g/f) over the support.

    The integrand is exp(lf) * (lg - lf) from the two log-densities, and
    F's density must integrate to its grade span on the same nodes.
    """
    a, b = _require_same_support(F, G)
    log_f, log_g = F.log_density, G.log_density
    inf, exp = math.inf, math.exp
    vanishes = False

    # The value is -inf only where g vanishes under positive, finite f. An
    # infinite density, a term beyond double range or a float exception
    # raised by a density is a computation failure, never a -inf
    # divergence. No sample pays for a test: a term beyond double range is
    # -inf, which stops the quadrature walk, and is told from a vanishing g
    # afterwards; a NaN or +inf term fails in integrate_adaptive.
    def integrand(x: float, da: float, db: float) -> tuple[float, float]:
        nonlocal vanishes
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
            vanishes = True
            return -inf, fx
        return fx * (lg - lf), fx

    outcome = integrate_adaptive(
        integrand, a, b, spec, breakpoints=F.breakpoints() + G.breakpoints(), mass=F.grade_span
    )
    if outcome.negative_infinity:
        if not vanishes:
            raise _out_of_range("a term f ln(g / f) overflowed to -inf")
        return _result(-inf, outcome.panels, 0.0, True)
    # A rounded log-normalizer shifts ln f by up to d_f and ln g by up to
    # d_g at every x, which moves the value by up to d_f |value| +
    # (d_f + d_g) times F's mass.
    d_f, d_g = F._log_norm_error, G._log_norm_error
    error = outcome.error_estimate + d_f * abs(outcome.value) + (d_f + d_g) * F.grade_span
    return _result(outcome.value, outcome.panels, 0.0, False, error_estimate=error)


def riemann_divergence(F: ContinuousGrading, G: ContinuousGrading, n_points: int) -> float:
    """Divergence approximated on an n-cell partition of the grade image.

    Splits im(F) evenly into u-values, pulls each back through the
    quantile of F, reads G at those points, and sums ln(dq/du) * du over
    the cells. Shares no code with the quadrature route; converges at
    first order in 1/n.
    """
    n_points = as_int(n_points, "n_points")
    if n_points < 2:
        raise InvalidInputError(f"need an integer n_points >= 2, got {n_points!r}")
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

    When the first direction is -inf the second is not computed: the sum
    is -inf whatever it is, and a density with an undeclared jump (a
    support that ends inside [a, b]) would make its quadrature converge
    only at first order. Raises ComputationError when both sides are
    finite but their sum leaves double range.
    """
    d_fg = divergence_continuous(F, G, spec)
    if NEGATIVE_INFINITY in d_fg.flags:
        return d_fg
    d_gf = divergence_continuous(G, F, spec)
    return _result(
        d_fg.value + d_gf.value,
        d_fg.terms_used + d_gf.terms_used,
        d_fg.dropped_mass + d_gf.dropped_mass,
        NEGATIVE_INFINITY in d_fg.flags | d_gf.flags,
        error_estimate=d_fg.error_estimate + d_gf.error_estimate,
    )


def classical_entropy(
    F: ContinuousGrading, spec: QuadratureSpec = QuadratureSpec()
) -> DivergenceResult:
    """Differential entropy -integral of f * ln(f) over the support: the
    divergence of F from the position grading x -> x."""
    a, b = F.support
    return divergence_continuous(F, PiecewiseLinearCdf(((a, a), (b, b))), spec)
