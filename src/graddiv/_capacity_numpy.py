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
layer to layer and pulls bounds into the subsets one element below them
alone, so without ties it reads about n^3/6 cover edges instead of
n 2^(n-1). Both passes there work in blocks, and no temporary grows with
the lattice. Either way theta is -inf off the live subsets.
"""

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .capacity import _beyond_range, _bisect_prefix

# Sizes up to _KEEP keep three indices per cover edge (0.27 MB at 11).
# _KEEP is the largest size at which the kept way beat pruning on both
# seeded random and all-tie capacities. theta in process, interleaved,
# best of 7 (2-CPU Xeon), kept against pruned: random 0.41-0.48 against
# 0.75-0.86 ms at n = 9, 0.54-0.60 against 0.79-0.90 at 10 and 1.05-1.63
# against 1.11-1.78 at 11 (one seed in six slower, by 2 %), but 2.33-2.41
# against 1.40-1.43 at 12; all-tie 0.45 against 0.88 ms at 9, 0.48
# against 0.90 at 10, 0.87 against 1.47 at 11 and 1.95 against 2.44 at 12.
_KEEP = 11
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


def _covers(rows: np.ndarray, n: int, k: int, up: bool) -> np.ndarray:
    """The grid of the cover neighbours of rows, subsets of size k: a row
    per missing element (up) or per own element, lowest first, and a
    column per subset. The passes reduce over axis 0, which numpy does
    elementwise across a few long rows, many times faster than along many
    rows of k."""
    width = n - k if up else k
    rest = rows ^ ((1 << n) - 1) if up else rows
    out = np.empty((width, rows.size), dtype=np.int64)
    for j in range(width):
        low = rest & -rest
        out[j] = rows ^ low
        rest = rest ^ low
    return out


@functools.lru_cache(maxsize=None)
def _kept_edges(
    n: int,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Every cover edge of a ground size up to _KEEP, read-only.

    into and came hold the edges' masks, layer by layer in the order of
    _covers(layer, n, k, up=False), so edges ends[k - 1]:ends[k] enter
    layer k as k rows. up lists the positions of the same edges by their
    lower subset's layer, that subset and then the upper one, and within
    each layer transposed: edges up[ends[k]:ends[k + 1]] leave layer k as
    n - k rows with a column per subset.
    """
    layers = _layers(n)
    sizes = [math.comb(n, k) * k for k in range(1, n + 1)]
    into = np.concatenate([np.tile(layers[k], k) for k in range(1, n + 1)])
    came = np.concatenate([_covers(layers[k], n, k, up=False).ravel() for k in range(1, n + 1)])
    order = np.argsort(np.repeat(np.arange(n), sizes) << 2 * n | came << n | into)
    ends = [0, *itertools.accumulate(sizes)]
    up = np.concatenate([order[a:b].reshape(-1, n - k).T.ravel()
                         for k, (a, b) in enumerate(itertools.pairwise(ends))])
    for arr in (*layers, into, came, up):
        arr.flags.writeable = False
    return layers, into, came, up, ends


def _blocks(rows: np.ndarray, n: int, k: int, up: bool):
    """rows, subsets of size k, in blocks of about _BLOCK cover edges, each
    with its _covers grid."""
    step = _BLOCK // (n - k if up else k) + 1
    for i in range(0, rows.size, step):
        part = rows[i:i + step]
        yield part, _covers(part, n, k, up)


def _pull(theta: np.ndarray, best: np.ndarray, came: np.ndarray, into: np.ndarray,
          terms: np.ndarray) -> None:
    """theta of the subsets came from the grid into of their supersets and
    the terms of the edges between: only live supersets count, and a subset
    keeps its value only if it is live itself."""
    bound = theta[into]
    on = bound != -np.inf
    # a -inf bound would send _largest_prefix to bisection, element by element
    fit = _largest_prefix(terms, np.where(on, bound, 0.0))
    top = np.where(on, fit, -np.inf).max(axis=0)
    theta[came] = np.where(top >= best[came], top, -np.inf)


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
    layers, into, came, up, ends = _kept_edges(n)
    terms = _edge_terms(vals[into] - vals[came])
    # Forward: best[S] is the smallest left-to-right fold over chains to S.
    for k in range(1, n + 1):
        a, b = ends[k - 1], ends[k]
        best[layers[k]] = (best[came[a:b]] + terms[a:b]).reshape(k, -1).min(axis=0)
    _check_finite(best)
    # Backward: theta[S] is the largest value that a live superset S + {e}
    # allows through _largest_prefix.
    theta[-1] = best[-1]
    for k in range(n - 1, 0, -1):
        edges = up[ends[k]:ends[k + 1]].reshape(n - k, -1)
        _pull(theta, best, layers[k], into[edges], terms[edges])


def _pruned_passes(vals: np.ndarray, n: int, best: np.ndarray, theta: np.ndarray) -> None:
    """theta for a larger ground size, block by block, with the backward
    pass pulling only into subsets one element below a live one."""
    layers = _layers(n)
    # Forward: best[S] is the smallest left-to-right fold over chains to S.
    for k in range(1, n + 1):
        for into, came in _blocks(layers[k], n, k, up=False):
            cand = best[came] + _edge_terms(vals[into] - vals[came])
            best[into] = cand.min(axis=0)
    _check_finite(best)
    # Backward, from the full set down, as in _kept_passes. Only a subset one
    # element below a live one can be live; without ties the live subsets
    # are the n + 1 of one chain, and each layer pulls into at most n of its
    # subsets. A layer with as many such edges as subsets is pulled whole.
    theta[-1] = best[-1]
    live = layers[n]
    for k in range(n - 1, 0, -1):
        rows = layers[k]
        if live.size * (k + 1) < rows.size:
            rows = np.unique(_covers(live, n, k + 1, up=False))
        for came, into in _blocks(rows, n, k, up=True):
            _pull(theta, best, came, into, _edge_terms(vals[into] - vals[came]))
        live = rows[theta[rows] != -np.inf]
