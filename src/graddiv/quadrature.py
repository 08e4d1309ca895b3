"""Adaptive integration for divergence integrands.

The engine is 15-point Gauss-Legendre under global greedy refinement: every
cell carries an error estimate (the defect between its panel value and the
sum over its halves), and the cell with the largest estimate is split until
the total meets the budget max(abs_tol, rel_tol * |first estimate|). GL
nodes are interior to each cell, so integrands that blow up only at panel
edges (endpoint singularities of beta or power densities, log terms from a
vanishing density ratio) are sampled where they are finite; global greedy
refinement is what lets their shrinking but never-smooth boundary cells
converge, where a per-cell width-proportional budget would not. The
divergence integrands return -inf only where the reference density
vanishes under positive mass, which makes the integral itself -inf, so a
sample of -inf short-circuits the walk instead of refining forever; a NaN
or +inf sample is a ComputationError.

Accuracy caveat: the defect sum reported as error_estimate is reliable for
smooth integrands and for logarithmic endpoint singularities, but for an
algebraic singularity x^(-s) with 0 < s < 1 dyadic bisection has a
self-similar error floor (roughly 1e-7 at s = 1/2 for 15-point panels)
that the defect sum understates. Budgets below that floor either fail at
max_depth or return a value whose actual error exceeds error_estimate;
most beta and power shapes below 1 reach it at the default budget.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ComputationError, InvalidInputError
from .ordered import as_float, as_floats, as_int

__all__ = ["QuadratureSpec", "QuadratureOutcome", "integrate_adaptive"]

# 15-point Gauss-Legendre rule on [-1, 1]: the repr of numpy's
# polynomial.legendre.leggauss(15), kept as Python floats so importing this
# module needs no numpy and the panel loop runs in float arithmetic
_GL_NODES = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
)
_GL_WEIGHTS = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 60

    def __post_init__(self):
        abs_tol = as_float(self.abs_tol, "abs_tol")
        rel_tol = as_float(self.rel_tol, "rel_tol")
        max_depth = as_int(self.max_depth, "max_depth")
        if not (math.isfinite(abs_tol) and abs_tol > 0):
            raise InvalidInputError(f"abs_tol must be positive, got {abs_tol!r}")
        if not (math.isfinite(rel_tol) and rel_tol > 0):
            raise InvalidInputError(f"rel_tol must be positive, got {rel_tol!r}")
        if max_depth < 1:
            raise InvalidInputError(f"max_depth must be an integer >= 1, got {max_depth!r}")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "max_depth", max_depth)


@dataclass(frozen=True)
class QuadratureOutcome:
    value: float
    error_estimate: float
    panels: int
    negative_infinity: bool = False


class _DivergesToNegInf(Exception):
    pass


def _panel(fn: Callable[[float], float], lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    total = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        x = mid + half * node
        # GL abscissas are strictly interior; if float rounding lands one
        # on a cell edge (dense spacing near 1.0), pull it back inside so
        # edge singularities are never sampled
        if x <= lo:
            x = math.nextafter(lo, hi)
        elif x >= hi:
            x = math.nextafter(hi, lo)
        fx = fn(x)
        if fx == -math.inf:
            raise _DivergesToNegInf
        if not math.isfinite(fx):
            raise ComputationError(f"integrand returned {fx!r} near x={x!r}")
        total += weight * fx
    return total * half


def _segment_bounds(a: float, b: float, breakpoints: Sequence[float]) -> list[float]:
    cuts = sorted({c for c in as_floats(breakpoints, "breakpoints") if a < c < b})
    return [a, *cuts, b]


class _Refiner:
    """Max-heap of cells ordered by the defect of their midpoint split."""

    def __init__(self, fn: Callable[[float], float]):
        self.fn = fn
        self.heap: list = []
        self.heap_err = 0.0
        self.frozen: list[float] = []
        self.frozen_err = 0.0
        self.panels = 0
        self._seq = 0

    def push(self, lo: float, hi: float, whole: float, depth: int) -> None:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # cell narrowed to adjacent floats; its own estimate must stand
            self.frozen.append(whole)
            self.frozen_err += abs(whole)
            return
        left = _panel(self.fn, lo, mid)
        right = _panel(self.fn, mid, hi)
        self.panels += 2
        defect = abs(left + right - whole)
        heapq.heappush(self.heap, (-defect, self._seq, lo, mid, hi, left, right, depth))
        self.heap_err += defect
        self._seq += 1

    def total_error(self) -> float:
        return self.heap_err + self.frozen_err

    def split_worst(self, max_depth: int, budget: float) -> None:
        neg_defect, _, lo, mid, hi, left, right, depth = heapq.heappop(self.heap)
        defect = -neg_defect
        self.heap_err -= defect
        if depth >= max_depth:
            if defect > budget:
                raise ComputationError(
                    f"integral did not converge near [{lo!r}, {hi!r}] at depth "
                    f"{depth} (singular endpoint behavior)"
                )
            self.frozen.append(left + right)
            self.frozen_err += defect
            return
        self.push(lo, mid, left, depth + 1)
        self.push(mid, hi, right, depth + 1)

    def value(self) -> float:
        return math.fsum(
            self.frozen + [cell[5] + cell[6] for cell in self.heap]
        )


def integrate_adaptive(
    fn: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec,
    breakpoints: Sequence[float] = (),
) -> QuadratureOutcome:
    """Integrate fn over [a, b], splitting first at the given breakpoints.

    Raises ComputationError if the worst cell still misses the global
    budget at max_depth or once bisection runs out of representable
    midpoints.
    """
    a, b = as_float(a, "a"), as_float(b, "b")
    if not a < b:
        raise InvalidInputError(f"integration interval needs a < b, got [{a!r}, {b!r}]")

    refiner = _Refiner(fn)
    try:
        bounds = _segment_bounds(a, b, breakpoints)
        first = []
        for lo, hi in zip(bounds, bounds[1:]):
            est = _panel(fn, lo, hi)
            refiner.panels += 1
            first.append((lo, hi, est))
        budget = max(
            spec.abs_tol, spec.rel_tol * abs(math.fsum(est for _, _, est in first))
        )
        for lo, hi, est in first:
            refiner.push(lo, hi, est, 0)
        while refiner.total_error() > budget:
            if refiner.frozen_err > budget or not refiner.heap:
                raise ComputationError(
                    "integral did not converge: unrefinable cells exceed the "
                    f"error budget {budget!r}"
                )
            refiner.split_worst(spec.max_depth, budget)
    except _DivergesToNegInf:
        return QuadratureOutcome(
            -math.inf, 0.0, refiner.panels + 1, negative_infinity=True
        )
    return QuadratureOutcome(
        refiner.value() + 0.0, refiner.total_error(), refiner.panels
    )
