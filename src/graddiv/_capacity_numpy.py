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

theta takes one of two ways. Up to _KEEP elements, where numpy's cost per
call outweighs the arithmetic, the cover edges are kept from call to call,
every edge term is computed in one call, and each pass takes a layer in
one step. Beyond, the backward pass prunes as capacity._theta does: it
carries only the live subsets, those on some minimizing chain, down from
layer to layer, and each pushes bounds down its own cover edges alone, so
without ties it reads about n^2/2 cover edges instead of n 2^(n-1). Both
passes there work in blocks, and no temporary grows with the lattice.
Either way the backward pass reads each cover edge downward, as the
forward pass does, and theta is -inf off the live subsets.
"""

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .capacity import _beyond_range, _bisect_prefix

# Sizes up to _KEEP keep two indices per cover edge (0.85 MB at 13).
# _KEEP is the largest size at which the kept way beat pruning on both
# seeded random and all-tie capacities. theta in process, interleaved,
# best of 7 rounds of 10 calls (2-CPU Xeon), kept against pruned, on the
# benchmark's random capacities of seeds 0-5: 0.23-0.35 against
# 0.67-0.87 ms at n = 9, 0.27-0.57 against 0.79-1.84 at 10, 0.38-0.49
# against 1.01-1.28 at 11, 0.89-1.63 against 1.29-2.56 at 12 and
# 1.71-2.48 against 2.12-3.45 at 13, but 3.14-4.91 against 2.71-4.80 at
# 14, slower on every seed; all-tie 0.31 against 0.69 ms at 9, 0.52
# against 1.06 at 10, 0.85 against 1.45 at 11, 1.97-2.20 against
# 2.36-2.76 at 12, 3.91-5.34 against 5.25-6.68 at 13 and 8.6-9.3 against
# 9.3 at 14. Repeat runs moved by up to 30 %.
_KEEP = 13
# Larger sizes work through their rows in blocks of about _BLOCK cover
# edges, so a block's temporaries stay in cache and none grows with the
# lattice.
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
    passes reduce over axis 0, which numpy does elementwise across a few
    long rows, many times faster than along many rows of k."""
    rest = rows
    out = np.empty((k, rows.size), dtype=np.int64)
    for j in range(k):
        low = rest & -rest
        out[j] = rows ^ low
        rest = rest ^ low
    return out


@functools.lru_cache(maxsize=None)
def _kept_edges(n: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, list[int]]:
    """Every cover edge of a ground size up to _KEEP, read-only.

    into and came hold the edges' upper and lower masks, layer by layer in
    the order of _covers(layer, k) raveled, so edges ends[k - 1]:ends[k]
    enter layer k as k rows. The forward pass reduces over them and the
    backward pass pushes down the same edges.
    """
    layers = _layers(n)
    sizes = [math.comb(n, k) * k for k in range(1, n + 1)]
    into = np.concatenate([np.tile(layers[k], k) for k in range(1, n + 1)])
    came = np.concatenate([_covers(layers[k], k).ravel() for k in range(1, n + 1)])
    for arr in (*layers, into, came):
        arr.flags.writeable = False
    return layers, into, came, [0, *itertools.accumulate(sizes)]


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
    """capacity._theta on numpy arrays, a popcount layer at a time.

    Only live subsets, those with theta >= best, keep their value; every
    other entry is -inf, the empty set's included. The walk never reads the
    empty set and refuses a subset that is not live either way, since its
    prefix there is at least best.
    """
    vals = np.asarray(values)
    best = np.empty(vals.size)
    best[0] = 0.0
    theta = np.full(vals.size, -np.inf)
    (_kept_passes if n <= _KEEP else _pruned_passes)(vals, n, best, theta)
    return theta


def _check_finite(best: np.ndarray) -> None:
    """Raise when the minimizing chain's fold, best[full], is not finite:
    the evaluator would refuse it."""
    if not math.isfinite(best[-1]):
        raise _beyond_range(float(best[-1]))


def _kept_passes(vals: np.ndarray, n: int, best: np.ndarray, theta: np.ndarray) -> None:
    """theta for a ground size up to _KEEP: every edge term at once, and
    whole layers in both passes."""
    layers, into, came, ends = _kept_edges(n)
    terms = _edge_terms(vals[into] - vals[came])
    # Forward: best[S] is the smallest left-to-right fold over chains to S.
    for k in range(1, n + 1):
        a, b = ends[k - 1], ends[k]
        best[layers[k]] = (best[came[a:b]] + terms[a:b]).reshape(k, -1).min(axis=0)
    _check_finite(best)
    # Backward: theta[S] is the largest value that a live superset S + {e}
    # allows through _largest_prefix, pushed down the same edges.
    theta[-1] = best[-1]
    for k in range(n, 1, -1):
        a, b = ends[k - 1], ends[k]
        bound = theta[into[a:b]]
        # a -inf bound would send _largest_prefix to bisection, element by element
        on = bound != -np.inf
        np.maximum.at(theta, came[a:b][on], _largest_prefix(terms[a:b][on], bound[on]))
        _keep_live(theta, best, layers[k - 1])


def _pruned_passes(vals: np.ndarray, n: int, best: np.ndarray, theta: np.ndarray) -> None:
    """theta for a larger ground size, block by block, with the backward
    pass pushing only from the live subsets."""
    layers = _layers(n)
    # Forward: best[S] is the smallest left-to-right fold over chains to S.
    for k in range(1, n + 1):
        for into, came in _blocks(layers[k], k):
            cand = best[came] + _edge_terms(vals[into] - vals[came])
            best[into] = cand.min(axis=0)
    _check_finite(best)
    # Backward, from the full set down, as in _kept_passes, but only the live
    # subsets push. Without ties they are the n + 1 of one chain, and each
    # layer pushes down at most n edges. Where the live subsets have fewer
    # edges than the layer below has subsets, only the subsets reached are
    # checked; otherwise the whole layer is.
    theta[-1] = best[-1]
    live = layers[n]
    for k in range(n, 1, -1):
        for into, came in _blocks(live, k):
            terms = _edge_terms(vals[into] - vals[came]).ravel()
            np.maximum.at(theta, came.ravel(), _largest_prefix(terms, np.tile(theta[into], k)))
        rows = layers[k - 1]
        if live.size * k < rows.size:
            rows = np.unique(_covers(live, k))
        live = _keep_live(theta, best, rows)
