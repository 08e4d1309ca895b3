"""Capacity validation and lattice passes on numpy arrays.

The steps that handle the whole subset lattice, for ground sizes from
capacity._NUMPY_FROM on: validation (faults), the forward and backward
passes one popcount layer at a time (theta), the vector prefix step
within the backward pass, and the map from a run of increments to edge
terms (edge_terms). capacity imports this module on first use, calls
faults and theta in place of its own _faults and _theta, and takes its
chain evaluator's and witness walk's terms from edge_terms; the walk, the
evaluator and the bisection over bit patterns are capacity's own.
Smaller capacities never load numpy. numpy's log may differ from math.log
in the last bit, so one ground size never mixes the two.

theta's backward pass prunes as capacity._theta does: it carries only the
live subsets, those on some minimizing chain, down from layer to layer,
and each pushes bounds down its own cover edges alone, so without ties it
reads about n^2/2 cover edges instead of n 2^(n-1). Both passes work in
blocks, and no temporary grows with the lattice. The backward pass reads
each cover edge downward, as the forward pass does, and theta is -inf off
the live subsets.
"""

import math
from typing import Sequence

import numpy as np

from .capacity import _beyond_range, _bisect_prefix

# The passes work through their rows in blocks of about _BLOCK cover
# edges, so a block's temporaries stay in cache and none grows with the
# lattice. The exhaustive search in a fresh process (2-CPU Xeon, seed-0
# capacities), blocks against one block per layer (_BLOCK = 2**62): at
# n = 18, random, 56-72 against 90-107 ms; at n = 20, random, 331-392
# against 431-458 ms and 146 against 241 MB peak RSS, and all-tie,
# 957-1012 against 1409-1460 ms and 138 against 282 MB.
_BLOCK = 1 << 14


def faults(vals: Sequence[float], n: int) -> tuple[int | None, tuple[int, int] | None]:
    """capacity._faults on numpy arrays: the index of the first value that
    is not finite and >= 0, or else the first decreasing cover pair."""
    arr = np.asarray(vals)
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr >= 0)))
    if bad.size:
        return int(bad[0]), None
    for e in range(n):
        bit = 1 << e
        # rows of the view run over the masks above bit e, [:, 0] holds
        # the subsets without e and [:, 1] the same subsets with it
        pairs = arr.reshape(-1, 2, bit)
        bad = np.flatnonzero(pairs[:, 0] > pairs[:, 1])
        if bad.size:
            row, low = divmod(int(bad[0]), bit)
            m = row * 2 * bit + low
            return None, (m, m | bit)
    return None, None


def _edge_terms(inc: np.ndarray) -> np.ndarray:
    """-d ln d for each chain increment d, zero increments contributing 0.

    The one place edge terms are computed on this side, so the lattice
    passes, the witness walk and the chain evaluator see identical bits. A
    term beyond double range is -inf; both callers, theta and edge_terms,
    run under np.errstate(over="ignore"), entered once per call rather than
    once per layer, and capacity refuses such a value.
    """
    positive = inc > 0.0
    safe = np.where(positive, inc, 1.0)
    return np.where(positive, -safe * np.log(safe), 0.0)


@np.errstate(over="ignore")
def edge_terms(incs: Sequence[float]) -> list[float]:
    """_edge_terms of a run of chain increments, as Python floats."""
    return _edge_terms(np.asarray(incs, dtype=float)).tolist()


def _layers(n: int) -> list[np.ndarray]:
    """The subset masks of {1..n} grouped by size, ascending within each."""
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        popcount = np.concatenate((popcount, popcount + 1))
    order = np.argsort(popcount, kind="stable")
    return np.split(order, np.cumsum(np.bincount(popcount))[:-1])


def _covers(rows: np.ndarray, k: int) -> np.ndarray:
    """The grid of the subsets one element below rows, subsets of size k: a
    row per own element, lowest first, and a column per subset. The forward
    pass reduces over axis 0, which numpy does elementwise across a few
    long rows, many times faster than along many rows of k."""
    rest = rows
    out = np.empty((k, rows.size), dtype=np.int64)
    for j in range(k):
        low = rest & -rest
        out[j] = rows ^ low
        rest = rest ^ low
    return out


def _blocks(rows: np.ndarray, k: int):
    """rows, subsets of size k, in blocks of about _BLOCK cover edges, each
    with its _covers grid."""
    step = _BLOCK // k + 1
    for i in range(0, rows.size, step):
        part = rows[i:i + step]
        yield part, _covers(part, k)


def _keep_live(theta: np.ndarray, best: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Set theta to -inf on the rows that are not live, theta < best, and
    return the live ones."""
    top = theta[rows]
    live = top >= best[rows]
    theta[rows] = np.where(live, top, -np.inf)
    return rows[live]


def _largest_prefix(term: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The largest float p with fl(p + term) <= bound, elementwise.

    fl(p + term) is nondecreasing in p, so the answer is where the real sum
    crosses the rounding midpoint above bound, bound - term + ulp(bound)/2.
    That point is formed with an error-free subtraction, so the estimate
    is within an ulp of the answer even when |p| is far below |term|;
    every element is then checked exactly, and the rare misses (infinite
    terms or bounds, for instance) go to capacity._bisect_prefix, one by
    one. Both sides make the same IEEE additions, so they agree bit for bit.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        diff = bound - term
        back = diff - bound
        err = (bound - (diff - back)) - (term + back)  # diff + err == bound - term
        half_ulp = (np.nextafter(bound, np.inf) - bound) * 0.5
        p = diff + (err + half_ulp)
        # Step down once if p overshoots, then probe the neighbour that must
        # not fit (above p) or must fit (p itself, after a step down).
        fits = p + term <= bound
        p = np.where(fits, p, np.nextafter(p, -np.inf))
        probe = np.where(fits, np.nextafter(p, np.inf), p)
        miss = (probe + term <= bound) == fits
        if miss.any():
            p[miss] = list(map(_bisect_prefix, term[miss].tolist(), bound[miss].tolist()))
    return p


@np.errstate(over="ignore")
def theta(values: Sequence[float], n: int) -> np.ndarray:
    """capacity._theta on numpy arrays, a popcount layer at a time, block by
    block, with the backward pass pushing only from the live subsets.

    Only live subsets, those with theta >= best, keep their value; every
    other entry is -inf, the empty set's included. The walk never reads the
    empty set and refuses a subset that is not live either way, since its
    prefix there is at least best.
    """
    vals = np.asarray(values)
    layers = _layers(n)
    # Forward: best[S] is the smallest left-to-right fold over chains to S.
    best = np.empty(vals.size)
    best[0] = 0.0
    for k in range(1, n + 1):
        for into, came in _blocks(layers[k], k):
            cand = best[came] + _edge_terms(vals[into] - vals[came])
            best[into] = cand.min(axis=0)
    # the evaluator would refuse the minimizing chain's fold
    if not math.isfinite(best[-1]):
        raise _beyond_range(float(best[-1]))
    # Backward: theta[S] is the largest value that a live superset S + {e}
    # allows through _largest_prefix, from the full set down, each live
    # subset pushing down its own cover edges. Without ties the live
    # subsets are the n + 1 of one chain, and each layer pushes down at
    # most n edges. Where the live subsets have fewer edges than the layer
    # below has subsets, only the subsets reached are checked; otherwise
    # the whole layer is.
    theta = np.full(vals.size, -np.inf)
    theta[-1] = best[-1]
    live = layers[n]
    for k in range(n, 1, -1):
        for into, came in _blocks(live, k):
            terms = _edge_terms(vals[into] - vals[came]).ravel()
            np.maximum.at(theta, came.ravel(), _largest_prefix(terms, np.tile(theta[into], k)))
        rows = layers[k - 1]
        if live.size * k < rows.size:
            # np.unique would do, but its first call imports numpy.ma
            rows = np.sort(_covers(live, k), axis=None)
            rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
        live = _keep_live(theta, best, rows)
    return theta
