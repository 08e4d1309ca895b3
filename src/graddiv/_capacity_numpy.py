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
"""

import math
from typing import Sequence

import numpy as np

from .capacity import _beyond_range, _bisect_prefix


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


def _cover_bits(layer: np.ndarray, flip: int, k: int) -> np.ndarray:
    """The (len(layer), k) grid of the bits set in layer ^ flip, lowest
    first: each mask's own elements (flip = 0) or its missing ones (flip =
    the full mask), k per row."""
    rest = layer ^ flip
    out = np.empty((layer.size, k), dtype=np.int64)
    for j in range(k):
        low = rest & -rest
        out[:, j] = low
        rest = rest ^ low
    return out


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
    """capacity._theta on numpy arrays, a popcount layer at a time."""
    vals = np.asarray(values)
    full = (1 << n) - 1
    layers = _layers(n)

    # Forward: best[S] is the smallest left-to-right fold over chains to S.
    best = np.empty(vals.size)
    best[0] = 0.0
    for k in range(1, n + 1):
        into = layers[k][:, None]
        came = into ^ _cover_bits(layers[k], 0, k)
        cand = best[came] + _edge_terms(vals[into] - vals[came])
        best[layers[k]] = cand.min(axis=1)
    # the evaluator would refuse the minimizing chain's fold
    if not math.isfinite(best[full]):
        raise _beyond_range(float(best[full]))

    # Backward, overwriting best: theta[S] is the largest prefix value at S
    # from which some completion still folds to <= the minimum.
    theta = best
    for k in range(n - 1, -1, -1):
        came = layers[k][:, None]
        into = came | _cover_bits(layers[k], full, n - k)
        fit = _largest_prefix(_edge_terms(vals[into] - vals[came]), theta[into])
        theta[layers[k]] = fit.max(axis=1)
    return theta
