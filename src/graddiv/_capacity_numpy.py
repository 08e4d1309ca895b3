"""Capacity monotonicity check and forward pass on numpy arrays.

The steps that handle the whole subset lattice, for ground sizes from
capacity._NUMPY_FROM on: the monotonicity check (faults), the forward
pass one popcount layer at a time (forward), and the map from a run of
increments to edge terms (edge_terms). capacity._side gives this module,
imported on first use, in place of the Python-float side; the backtrack
to the witness and the evaluator are capacity's own. numpy's log may
differ from math.log in the last bit: one call's forward pass, backtrack
and evaluator take their terms from one side, and greedy chooses with
math.log at every size but folds the value it reports with the side's
log. The forward pass works in blocks, so no temporary grows with the
lattice.
"""

import math
from collections.abc import Sequence

import numpy as np

from .errors import beyond_range

# The forward pass works through its rows in blocks of about _BLOCK cover
# edges, so a block's temporaries stay in cache and none grows with the
# lattice. The exhaustive search, best of 3 in a fresh process (2-CPU
# Xeon), blocks against one block per layer (_BLOCK = 2**62): on the seed-0
# random capacity, 45-46 against 89-126 ms at n = 18, and 211-225 against
# 404-412 ms at n = 20, with a peak RSS of 114 MB (the construction's)
# against 224 MB; all-tie at n = 20, 221-229 against 377 ms and 95
# against 211 MB.
_BLOCK = 1 << 14


def faults(vals: Sequence[float], n: int) -> tuple[int, int] | None:
    """capacity._faults on numpy arrays: the first decreasing cover pair,
    or None."""
    arr = np.asarray(vals)
    for e in range(n):
        bit = 1 << e
        # rows of the view run over the masks above bit e, [:, 0] holds
        # the subsets without e and [:, 1] the same subsets with it
        pairs = arr.reshape(-1, 2, bit)
        bad = np.flatnonzero(pairs[:, 0] > pairs[:, 1])
        if bad.size:
            row, low = divmod(int(bad[0]), bit)
            m = row * 2 * bit + low
            return m, m | bit
    return None


def _edge_terms(inc: np.ndarray) -> np.ndarray:
    """-d ln d for each chain increment d, zero increments contributing 0.

    The one place edge terms are computed on this side, so the forward
    pass, the backtrack and the chain evaluator see identical bits. A
    term beyond double range is -inf; both callers, forward and edge_terms,
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


@np.errstate(over="ignore")
def forward(values: Sequence[float], n: int) -> np.ndarray:
    """capacity._forward on numpy arrays, a popcount layer at a time, block
    by block: best[S], the smallest left-to-right fold over chains to S."""
    vals = np.asarray(values)
    layers = _layers(n)
    best = np.empty(vals.size)
    best[0] = 0.0
    for k in range(1, n + 1):
        for into, came in _blocks(layers[k], k):
            cand = best[came] + _edge_terms(vals[into] - vals[came])
            best[into] = cand.min(axis=0)
    # the evaluator would refuse the minimizing chain's fold
    if not math.isfinite(best[-1]):
        raise beyond_range("chain entropy", float(best[-1]))
    return best
