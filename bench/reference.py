"""Reference answers that share no code path with the library under test.

Continuous cases use closed forms (scipy.special for Beta), discrete sums
use math.fsum with the recursive-summation error bound, and capacity
entropy uses a numpy shortest path over the subset lattice instead of the
library's n! chain scan.
"""

import math

import numpy as np
from scipy.special import betaln, digamma

UNIT_ROUNDOFF = 2.0**-53

# First-order envelope for riemann_divergence: |riemann(n) - exact| <= C / n.
# The grid evaluator converges at first order; C is stated here, not fitted
# per case.
RIEMANN_ENVELOPE_NATS = 10.0


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the bound on relative error of
    recursive summation of n terms."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def summation_bound(terms: list[float]) -> float:
    """Largest |naive sum - exact sum| that left-to-right float summation
    of these terms can produce."""
    return gamma(max(len(terms) - 1, 1)) * math.fsum(abs(t) for t in terms)


# ---------------------------------------------------------------- discrete


def divergence_terms(f: list[float], g: list[float]) -> list[float]:
    return [
        math.log((g[k] - g[k - 1]) / (f[k] - f[k - 1])) * (f[k] - f[k - 1])
        for k in range(1, len(f))
    ]


def shannon_terms(w: list[float]) -> list[float]:
    return [-x * math.log(x) for x in w if x > 0.0]


def relative_terms(f: list[float], g: list[float]) -> list[float]:
    return [fk * math.log(gk / fk) for fk, gk in zip(f, g) if fk > 0.0]


# ---------------------------------------------------------------- continuous
#
# Corrected entropy of F on [a, b] is -integral f ln((b - a) f), which is the
# differential entropy minus ln(b - a).


def beta_entropy(alpha: float, beta: float) -> float:
    """Differential entropy of Beta(alpha, beta) on [0, 1]."""
    return float(
        betaln(alpha, beta)
        - (alpha - 1.0) * digamma(alpha)
        - (beta - 1.0) * digamma(beta)
        + (alpha + beta - 2.0) * digamma(alpha + beta)
    )


def power_entropy(p: float) -> float:
    """Differential entropy of the cdf t^p on [0, 1]."""
    return -math.log(p) + (p - 1.0) / p


def triangular_entropy(a: float, c: float, b: float) -> float:
    return 0.5 + math.log((b - a) / 2.0)


def uniform_entropy(a: float, b: float) -> float:
    return math.log(b - a)


def truncated_normal_entropy(mu: float, sigma: float, a: float, b: float) -> float:
    lo, hi = (a - mu) / sigma, (b - mu) / sigma
    mass = 0.5 * (math.erf(hi / math.sqrt(2.0)) - math.erf(lo / math.sqrt(2.0)))
    pdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)  # noqa: E731
    return (
        math.log(math.sqrt(2.0 * math.pi * math.e) * sigma * mass)
        + (lo * pdf(lo) - hi * pdf(hi)) / (2.0 * mass)
    )


def piecewise_linear_entropy(knots: list[tuple[float, float]]) -> float:
    """-sum p_i ln(p_i / w_i) over segments of mass p_i and width w_i."""
    return -math.fsum(
        (y1 - y0) * math.log((y1 - y0) / (x1 - x0))
        for (x0, y0), (x1, y1) in zip(knots, knots[1:])
    )


def beta_kl(a1: float, b1: float, a2: float, b2: float) -> float:
    """KL(Beta(a1, b1) || Beta(a2, b2)) on a shared interval."""
    return float(
        betaln(a2, b2)
        - betaln(a1, b1)
        + (a1 - a2) * digamma(a1)
        + (b1 - b2) * digamma(b1)
        + (a2 - a1 + b2 - b1) * digamma(a1 + b1)
    )


# ---------------------------------------------------------------- capacity


def chain_terms(values: list[float], order: list[int]) -> list[float]:
    """-dmu ln dmu along one insertion order, zero increments giving 0."""
    terms = []
    mask = 0
    prev = 0.0
    for e in order:
        mask |= 1 << (e - 1)
        inc = values[mask] - prev
        terms.append(-inc * math.log(inc) if inc > 0.0 else 0.0)
        prev = values[mask]
    return terms


def lattice_minimum(values: list[float], n: int) -> tuple[float, float]:
    """Minimum chain entropy as a shortest path from the empty set to the
    ground set, one popcount layer at a time: O(n 2^n) work.

    Returns (minimum, largest |edge term|); the second feeds the rounding
    bound when comparing against a scan that sums in another order.
    """
    vals = np.asarray(values, dtype=float)
    size = 1 << n
    masks = np.arange(size)
    popcount = np.zeros(size, dtype=np.int64)
    for e in range(n):
        popcount += (masks >> e) & 1
    best = np.full(size, np.inf)
    best[0] = 0.0
    largest = 0.0
    for k in range(1, n + 1):
        layer = masks[popcount == k]
        cand = np.full(layer.size, np.inf)
        for e in range(n):
            bit = 1 << e
            has = (layer & bit) != 0
            into = layer[has]
            inc = vals[into] - vals[into ^ bit]
            safe = np.where(inc > 0.0, inc, 1.0)
            term = np.where(inc > 0.0, -safe * np.log(safe), 0.0)
            if term.size:
                largest = max(largest, float(np.abs(term).max()))
            cand[has] = np.minimum(cand[has], best[into ^ bit] + term)
        best[layer] = cand
    return float(best[size - 1]), largest


def random_monotone_capacity(rng: np.random.Generator, n: int) -> list[float]:
    """Each subset's value exceeds the largest value one element below it by
    a uniform(0, 1) draw; the draw order matches scripts/capacity_search_bench.py."""
    size = 1 << n
    vals = [0.0] * size
    deltas = rng.uniform(0.0, 1.0, size - 1)
    for mask in range(1, size):
        covered = max(vals[mask & ~(1 << e)] for e in range(n) if mask >> e & 1)
        vals[mask] = covered + float(deltas[mask - 1])
    return vals
