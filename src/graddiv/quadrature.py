"""Tanh-sinh quadrature for divergence integrands.

The rule is the double-exponential substitution of Takahasi and Mori
(Publ. RIMS 9, 1974; Mori and Sugihara, J. Comput. Appl. Math. 127, 2001):
on a segment [lo, hi] of width w the node at t lies at distance
w / (1 + e^(2|u|)) from the nearer end, u = (pi/2) sinh(t), and the
trapezoidal rule in t with step h integrates analytic integrands with an
error that falls like exp(-c / h), endpoint singularities included.

The integrand is called as fn(x, da, db), where da and db are the distances
of x from the ends a and b of the whole interval. Near an end they come
from the transform, never as a difference of x and the end, so a density
singular at an end is evaluated at every node, down to 2^-1050 of the
width, even where x itself has rounded onto the end (the "complement"
interface of Boost.Math's tanh_sinh). The integrand at a node never sees
da or db equal to 0.

Level 0 samples t = 0, +-1/2, +-1, ... out to _T_MAX on every segment
between breakpoints; each further level halves the step for all segments
together, adding the nodes halfway between. Each level's nodes are built
on its first use in a process and kept: levels 0 to 3, where nearly every
integral stops, hold 99 with t >= 0, and all 13 hold 50 287.

Each side of each segment ends where its terms fall below rounding. Level
0 walks a side outward until it meets a node past the centre whose term is
positive, smaller than the side's previous term and at most eps times the
sum of |terms| so far, and whose density term (with ``mass``) is likewise
at most eps times the mass so far. That node is the side's last at every
level: deeper levels add only the nodes inside it. Past such a node a
double-exponential rule's terms fall faster than geometrically, so all
they hold is below one rounding of the sum, and it still enters the
estimate as the side's tail, read from half a step past the cut. A zero
term never ends a side, since a density may vanish across the middle of a
segment and hold its mass nearer the end; a side whose terms never become
that small, such as one toward a singular end, keeps its full reach. A
rule that cut a side and does not converge walks again with no side cut,
since a cut trusts what lies past it to stay below rounding: a density
with a second peak past a valley, or terms that dip toward 0 and rise
again, break that trust. The evaluations of both walks are counted, and
if the second fails too the first one's reason is raised.

The error estimate of level k >= 1 is the sum of

  - |I_k - I_(k-1)|, which bounds the error of I_(k-1) and so, since the
    rule converges quadratically in the number of levels, that of I_k;
  - a rounding floor n * eps * sum |w_i f_i| over the n nodes;
  - the tail beyond the outermost nodes: on each side of each segment the
    two outermost new terms give a decay rate in t, and the integral of
    that decay from where the trapezoidal sum ends, half a step past the
    side's last node, is added. An integrand
    whose terms do not decay toward an end (1/x at 0, or a density with
    its mass nearer the end than the last node) gets an infinite tail.

The integral is returned once the estimate meets
max(abs_tol, rel_tol * |I_k|). A tail that alone exceeds the budget and
shrinks by less than half from one level to the next fails at once, since
refining does not move the last node. A sample of -inf short-circuits the walk:
the divergence integrands return -inf only where the reference density
vanishes under positive mass, which makes the integral itself -inf. A NaN
or +inf sample is a ComputationError. Finite samples whose sum leaves
double range end the rule at the end of their level with a
ComputationError too, since no finer level brings the sum back; so every
outcome holds a finite value, or -inf with its flag.

With ``mass`` given, fn returns a pair (term, density) and the density's
integral on the same nodes must also come within the budget of ``mass``:
a density whose mass the nodes have not found, such as a spike narrower
than the coarse levels' spacing, keeps the rule refining, and one that
holds mass beyond the last node fails instead of returning a value.
"""

import functools
import math
import sys
from collections.abc import Callable, Sequence

from .errors import ComputationError, InvalidInputError, beyond_range
from .ordered import (
    _Record, _store, as_float, as_floats, count, interval, nonnegative, positive, result,
)

_EPS = sys.float_info.epsilon
# The nodes reach out to where the nearer end's distance, e^(-2u) of the
# width, is 2^-1050: a subnormal that still holds 24 significant bits.
# Nearer still, a density such as Beta(0.05, 0.05)'s times its log term
# leaves double range.
_T_MAX = math.asinh(1050.0 * math.log(2.0) / math.pi)
# Level L has step 2^-(L+1) and about 25 * 2^L nodes per segment; the rule
# never runs past this level whatever max_depth says.
_LEVELS = 12
# A side of a segment ends at the first level-0 node past the centre whose
# term is positive, smaller than the side's previous one and at most this
# share of the sum of |terms| so far (one rounding of that sum), and whose
# density term is likewise at most this share of the mass so far.
_CUT = _EPS


class QuadratureSpec(_Record):
    """Tolerances and limits for the tanh-sinh rule.

    max_depth is the most levels (halvings of the step) the rule may run
    past its first; at most _LEVELS are ever run.
    """

    abs_tol: float
    rel_tol: float
    max_depth: int

    _fields = ("abs_tol", "rel_tol", "max_depth")
    _defaults = (1e-10, 1e-8, 60)
    __slots__ = _fields

    def __post_init__(self):
        _store(self, "abs_tol", positive(self.abs_tol, "abs_tol"))
        _store(self, "rel_tol", positive(self.rel_tol, "rel_tol"))
        _store(self, "max_depth", count(self.max_depth, "max_depth"))


class QuadratureOutcome(_Record):
    """The integral, its error estimate, and the integrand evaluations
    (``panels``) it took. negative_infinity must be a bool; the other
    fields follow ``ordered.result``, with value -inf exactly when it is
    True."""

    value: float
    error_estimate: float
    panels: int
    negative_infinity: bool

    _fields = ("value", "error_estimate", "panels", "negative_infinity")
    _defaults = (False,)
    __slots__ = _fields

    def __post_init__(self):
        result(self, "value", self.negative_infinity is True, ("panels",), ("error_estimate",))
        if type(self.negative_infinity) is not bool:
            raise InvalidInputError(
                f"negative_infinity must be a bool, got {self.negative_infinity!r}"
            )


@functools.cache
def _level_nodes(level: int) -> tuple[float, int, tuple[tuple[float, float, float, float], ...]]:
    """The step h of a level, the spacing of its new nodes in steps, and
    for each new t >= 0 in increasing order (t, weight, near, far) per unit
    width: h times the weight pi cosh(t) e / (1 + e)^2, and the distances
    e / (1 + e) and 1 / (1 + e) of the node from the nearer and the farther
    end, e = e^(-2u). Level 0 holds t = 0, h, 2h, ...; level k >= 1 the
    odd multiples of its h. Built on first use and kept."""
    h = 0.5 ** (level + 1)
    first, spacing = (0.0, 1) if level == 0 else (h, 2)
    nodes = []
    for j in range(int((_T_MAX - first) / (spacing * h)) + 1):
        t = first + j * spacing * h
        e = math.exp(-math.pi * math.sinh(t))
        far = 1.0 / (1.0 + e)
        near = e * far
        nodes.append((t, h * math.pi * math.cosh(t) * near * far, near, far))
    return h, spacing, tuple(nodes)


def _tail(prev: float, last: float, spacing: int, gap: float) -> float:
    """The sum from gap steps past the last of two terms spacing steps
    apart on, read as an integral that decays at their rate; infinite if
    they do not decay."""
    if last == 0.0:
        return 0.0
    if prev <= last:
        return math.inf
    rate = math.log(prev / last) / spacing
    if rate == math.inf:
        return 0.0
    return last / rate * math.exp(-rate * gap)


class _DivergesToNegInf(Exception):
    pass


def integrate_adaptive(
    fn: Callable[[float, float, float], float],
    a: float,
    b: float,
    spec: QuadratureSpec,
    breakpoints: Sequence[float] = (),
    mass: float | None = None,
) -> QuadratureOutcome:
    """Integrate fn(x, da, db) over [a, b], splitting at the breakpoints.

    da and db are x's distances from a and b. With mass given, fn returns
    (term, density) and the density must integrate to mass on the nodes.
    Raises ComputationError if the estimate, or the density's mass, still
    misses the budget after min(max_depth, _LEVELS) levels, or as soon as
    the tail beyond the last nodes alone exceeds it and stops shrinking.
    A sum beyond double range raises ComputationError at the end of its
    level. An interval that ordered.interval refuses, or a mass that is
    not finite and >= 0, is an InvalidInputError before fn is called.
    """
    a, b = interval(as_float(a, "a"), as_float(b, "b"), "integration interval")
    cuts = sorted({c for c in as_floats(breakpoints, "breakpoints") if a < c < b})
    bounds = [a, *cuts, b]
    # (lo, hi, width, lo - a, b - hi) per segment
    segments = [(lo, hi, hi - lo, lo - a, b - hi) for lo, hi in zip(bounds, bounds[1:])]
    if mass is None:
        def pair(x, da, db):
            return fn(x, da, db), 0.0
    else:
        mass = as_float(mass, "mass")
        nonnegative((mass,), "mass")
        pair = fn

    levels = min(spec.max_depth, _LEVELS)
    # per segment, the level-0 node at which its left and its right side
    # end; level 0 finds them, and inf leaves a side its full reach
    uncut = (math.inf, math.inf)
    side_cuts = [uncut] * len(segments)
    walked = _walk(pair, segments, spec, mass, levels, side_cuts, True, 0)
    if isinstance(walked, QuadratureOutcome):
        return walked
    failure, evaluations = walked
    if side_cuts.count(uncut) < len(side_cuts):
        # A cut trusts the terms past it to stay below rounding, which a
        # second peak of the density past a valley, or terms that dip
        # toward 0 and rise again, can break: walk again at full reach.
        walked = _walk(pair, segments, spec, mass, levels, [uncut] * len(segments),
                       False, evaluations)
        if isinstance(walked, QuadratureOutcome):
            return walked
    raise ComputationError(failure)


def _walk(pair, segments, spec, mass, levels, side_cuts, cutting, evaluations):
    """One pass of the rule, counting evaluations on from ``evaluations``:
    its outcome, or why it did not converge and the evaluations so far.
    Level 0 cuts sides into ``side_cuts`` only when ``cutting``."""
    # the integral, the integral of |fn| and the density's mass so far
    integral = l1 = held = 0.0
    first = evaluations
    last_tail = math.inf
    try:
        for level in range(levels + 1):
            h, spacing, nodes = _level_nodes(level)
            searching = cutting and level == 0
            # the trapezoidal sum reaches half a step past its outermost
            # node, which is within a step of _T_MAX
            end = _T_MAX - 0.5 * h
            total = abs_total = mass_total = tail = 0.0
            for i, (lo, hi, width, off_a, off_b) in enumerate(segments):
                cut_left, cut_right = side_cuts[i]
                left_prev = left_last = right_prev = right_last = 0.0
                left_t = right_t = last_t = 0.0
                reach = end
                for t, weight, near, far in nodes:
                    if t > cut_left and t > cut_right:
                        break
                    dn = width * near
                    if dn == 0.0:
                        # a narrow segment's nodes end where dn underflows
                        reach = last_t + 0.5 * h
                        break
                    last_t = t
                    df = width * far
                    w = width * weight
                    # the node near lo, then, but for the centre t = 0, its
                    # mirror near hi, each inside its side's cut
                    if t <= cut_left:
                        x = lo + dn
                        evaluations += 1
                        value, density = pair(x, off_a + dn, off_b + df)
                        if value - value != 0.0:
                            _nonfinite(value, x)
                        term = w * value
                        total += term
                        density *= w
                        mass_total += density
                        left_prev, left_last, left_t = left_last, abs(term), t
                        abs_total += left_last
                        if t == 0.0:
                            # the centre term precedes the first on each side
                            right_last = left_last
                            continue
                        if (searching and 0.0 < left_last < left_prev
                                and left_last <= _CUT * abs_total
                                and density <= _CUT * mass_total):
                            cut_left = t
                    if t <= cut_right:
                        x = hi - dn
                        evaluations += 1
                        value, density = pair(x, off_a + df, off_b + dn)
                        if value - value != 0.0:
                            _nonfinite(value, x)
                        term = w * value
                        total += term
                        density *= w
                        mass_total += density
                        right_prev, right_last, right_t = right_last, abs(term), t
                        abs_total += right_last
                        if (searching and 0.0 < right_last < right_prev
                                and right_last <= _CUT * abs_total
                                and density <= _CUT * mass_total):
                            cut_right = t
                if searching:
                    side_cuts[i] = cut_left, cut_right
                # a side cut short reaches half a step past its cut
                tail += (
                    _tail(left_prev, left_last, spacing,
                          (min(cut_left + 0.5 * h, reach) - left_t) / h)
                    + _tail(right_prev, right_last, spacing,
                            (min(cut_right + 0.5 * h, reach) - right_t) / h)
                )
            # halving the step halves the weight of every earlier node
            previous = integral
            integral = 0.5 * integral + total
            if integral - integral != 0.0:
                # finite terms whose sum left double range: no level brings it back
                raise beyond_range("sum", integral)
            l1 = 0.5 * l1 + abs_total
            held = 0.5 * held + mass_total
            if level == 0:
                continue
            estimate = abs(integral - previous) + (evaluations - first) * _EPS * l1 + tail
            budget = max(spec.abs_tol, spec.rel_tol * abs(integral))
            if budget < tail < math.inf and tail > 0.5 * last_tail:
                # the tail shrinks only as the outermost nodes near _T_MAX,
                # by less than half a level from here on: it stays
                return (
                    f"integral did not converge: the integrand holds about {tail!r} "
                    f"beyond the last nodes, over the budget {budget!r} (an "
                    "endpoint singularity beyond double resolution)"
                ), evaluations
            last_tail = tail
            mass_met = mass is None or abs(held - mass) <= max(
                spec.abs_tol, spec.rel_tol * abs(mass), (evaluations - first) * _EPS * held
            )
            if estimate <= budget and mass_met:
                return QuadratureOutcome(integral + 0.0, estimate, evaluations)
    except _DivergesToNegInf:
        return QuadratureOutcome(-math.inf, 0.0, evaluations, negative_infinity=True)
    if not mass_met:
        return (
            f"integral did not converge: the nodes hold mass {held!r} of the "
            f"density's {mass!r} after {levels} levels (mass beyond double "
            "resolution of an end, or a spike between the nodes)"
        ), evaluations
    return (
        f"integral did not converge: error estimate {estimate!r} exceeds the "
        f"budget {budget!r} after {levels} levels"
    ), evaluations


def _nonfinite(value: float, x: float) -> None:
    if value == -math.inf:
        raise _DivergesToNegInf
    raise ComputationError(f"integrand returned {value!r} near x={x!r}")
