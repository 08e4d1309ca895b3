"""Entropy of general set measures via maximal chains.

A capacity is a monotone nonnegative set function on the subsets of a
finite ground set, with no additivity or normalization assumed. Grading a
maximal chain of subsets by the capacity and diverging from the position
function gives each chain an entropy -sum dmu ln dmu; the capacity's
entropy is the infimum of that quantity over all maximal chains.

Every maximal chain is a path from the empty set to the ground set in the
Boolean lattice, and each of its terms depends only on one cover edge
(A, A + {e}). The exhaustive method therefore finds the minimum over all
n! chains as a shortest path over the 2^n subsets (the subset dynamic
program of Bellman and of Held and Karp), one popcount layer at a time:
O(n 2^n) work, about n times the size of the capacity itself. The greedy
method builds one chain by always taking the cheapest next edge, an
O(n^2) upper bound.

Exactness. All chain values, including the reported entropy of either
method, come from one shared evaluator that folds the edge terms left to
right from 0.0. Rounded addition is monotone in each argument, so the
forward program, which accumulates in the same order, returns exactly the
minimum of that evaluator over all chains, and greedy >= exhaustive holds
bit for bit. Ties go to the lexicographically first minimizing chain.
Because a prefix one ulp worse can still finish equal, the witness is not
read off by backtracking: a backward pass computes, for every subset S,
the largest prefix value theta(S) from which some completion still folds
to at most the minimum, and a forward walk from the empty set takes at
each step the smallest element whose rounded prefix stays within theta.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .discrete import DivergenceResult
from .errors import ComputationError, InvalidInputError
from .ordered import as_floats, as_int

__all__ = [
    "Capacity",
    "MaximalChain",
    "CapacityEntropyReport",
    "enumerate_chains",
    "chain_divergence",
    "capacity_entropy",
]


@dataclass(frozen=True)
class Capacity:
    """A monotone nonnegative set function on all subsets of {1..n}.

    values[mask] is the measure of the subset encoded by mask, where bit
    k-1 set means element k is present. Monotonicity is validated at
    construction over all cover pairs (A, A + {e}); every downstream
    guarantee (chain increments >= 0) rests on it.
    """

    ground_size: int
    values: tuple[float, ...]

    def __post_init__(self):
        n = as_int(self.ground_size, "ground_size")
        if n < 1:
            raise InvalidInputError(f"ground_size must be >= 1, got {n}")
        vals = as_floats(self.values, "values")
        if len(vals) != 2**n:
            raise InvalidInputError(
                f"need {2**n} subset values for ground_size {n}, got {len(vals)}"
            )
        arr = np.asarray(vals)
        bad = np.flatnonzero(~(np.isfinite(arr) & (arr >= 0)))
        if bad.size:
            raise InvalidInputError(
                f"subset values must be finite and >= 0, got {vals[bad[0]]!r}"
            )
        if vals[0] != 0.0:
            raise InvalidInputError(f"the empty set must have value 0, got {vals[0]!r}")
        for e in range(n):
            bit = 1 << e
            # rows of the view run over the masks above bit e, [:, 0] holds
            # the subsets without e and [:, 1] the same subsets with it
            pairs = arr.reshape(-1, 2, bit)
            bad = np.flatnonzero(pairs[:, 0] > pairs[:, 1])
            if bad.size:
                row, low = divmod(int(bad[0]), bit)
                m = row * 2 * bit + low
                raise InvalidInputError(
                    f"capacity is not monotone: value({_mask_name(m)})="
                    f"{vals[m]!r} > value({_mask_name(m | bit)})={vals[m | bit]!r}"
                )
        object.__setattr__(self, "ground_size", n)
        object.__setattr__(self, "values", vals)

    @classmethod
    def additive(cls, masses) -> "Capacity":
        """The additive capacity whose subset values are sums of masses."""
        ms = as_floats(masses, "masses")
        n = len(ms)
        if n < 1:
            raise InvalidInputError("need at least one mass")
        vals = [0.0] * (2**n)
        for mask in range(1, 2**n):
            low = mask & (mask - 1)  # mask without its lowest set bit
            k = (mask & -mask).bit_length() - 1
            vals[mask] = vals[low] + ms[k]
        return cls(n, tuple(vals))

    @property
    def singleton_masses(self) -> tuple[float, ...]:
        return tuple(self.values[1 << k] for k in range(self.ground_size))


def _mask_name(mask: int) -> str:
    els = [str(k + 1) for k in range(mask.bit_length()) if mask >> k & 1]
    return "{" + ",".join(els) + "}"


@dataclass(frozen=True)
class MaximalChain:
    """A maximal chain of the Boolean lattice, as an element insertion order.

    order is a permutation of {1..n}; the implied subsets are the prefixes
    empty set, {order[0]}, {order[0], order[1]}, ...
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(as_int(e, f"order[{i}]") for i, e in enumerate(self.order))
        n = len(order)
        if n < 1:
            raise InvalidInputError("a maximal chain needs at least one element")
        if sorted(order) != list(range(1, n + 1)):
            raise InvalidInputError(
                f"order must be a permutation of 1..{n}, got {order!r}"
            )
        object.__setattr__(self, "order", order)

    def subsets(self) -> tuple[frozenset[int], ...]:
        """The nested subsets from the empty set to the full ground set."""
        out = [frozenset()]
        for e in self.order:
            out.append(out[-1] | {e})
        return tuple(out)


def enumerate_chains(n: int, limit: int = 10) -> Iterator[MaximalChain]:
    """All n! maximal chains in lexicographic insertion-order.

    A brute-force oracle for small n; limit guards against asking for an
    astronomically long enumeration by accident.
    """
    n = as_int(n, "n")
    if not 1 <= n <= limit:
        raise InvalidInputError(f"n must be in 1..{limit}, got {n}")
    for perm in itertools.permutations(range(1, n + 1)):
        yield MaximalChain(perm)


def _edge_terms(inc: np.ndarray) -> np.ndarray:
    """-d ln d for each chain increment d, zero increments contributing 0.

    The one place edge terms are computed, so the lattice search, its
    witness walk and the chain evaluator see identical bits. A term beyond
    double range is -inf; both callers run under np.errstate(over="ignore")
    (entered once per search, not once per call) and refuse such a value.
    """
    positive = inc > 0.0
    safe = np.where(positive, inc, 1.0)
    return np.where(positive, -safe * np.log(safe), 0.0)


def _beyond_range(value: float) -> ComputationError:
    return ComputationError(
        f"the chain entropy is {value!r}: a term or the running total "
        "overflowed double precision"
    )


@np.errstate(over="ignore")
def _chain_value(values: Sequence[float], order: Sequence[int]) -> tuple[float, int]:
    """The chain's entropy, folded left to right from 0.0, and its number
    of positive increments: the evaluator shared by every reported value.

    Raises ComputationError when the fold is not finite.
    """
    mu = []
    mask = 0
    for e in order:
        mask |= 1 << (e - 1)
        mu.append(values[mask])
    inc = np.diff(np.asarray(mu), prepend=0.0)
    value = 0.0
    for term in _edge_terms(inc).tolist():
        value += term
    if not math.isfinite(value):
        raise _beyond_range(value)
    return value, int(np.count_nonzero(inc > 0.0))


def chain_divergence(mu: Capacity, chain: MaximalChain) -> DivergenceResult:
    """Divergence of the capacity's grading along one chain from the
    position function: -sum_k dmu_k ln dmu_k."""
    if len(chain.order) != mu.ground_size:
        raise InvalidInputError(
            f"chain of length {len(chain.order)} does not fit ground size "
            f"{mu.ground_size}"
        )
    value, terms = _chain_value(mu.values, chain.order)
    return DivergenceResult(value=value, terms_used=terms)


@dataclass(frozen=True)
class CapacityEntropyReport:
    """Capacity entropy plus the chain witnessing the reported value."""

    entropy: float
    argmin_chain: MaximalChain
    chains_examined: int
    method: str

    def __post_init__(self):
        if self.method not in ("exhaustive", "greedy"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        total = math.factorial(len(self.argmin_chain.order))
        if not 0 <= self.chains_examined <= total:
            raise InvalidInputError(
                f"chains_examined must be in 0..{total}, got {self.chains_examined}"
            )
        if self.method == "exhaustive" and self.chains_examined != total:
            raise InvalidInputError(
                f"exhaustive search must examine all {total} chains"
            )
        if self.method == "greedy" and self.chains_examined != 1:
            raise InvalidInputError("greedy search builds exactly one chain")


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


_SIGN = np.uint64(1 << 63)


def _float_keys(x: np.ndarray) -> np.ndarray:
    """Unsigned integers ordered as the floats are (NaN aside)."""
    raw = x.view(np.uint64)
    return np.where(raw & _SIGN, ~raw, raw | _SIGN)


def _key_floats(key: np.ndarray) -> np.ndarray:
    return np.where(key & _SIGN, key ^ _SIGN, ~key).view(np.float64)


def _largest_prefix(term: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The largest float p with fl(p + term) <= bound, elementwise.

    fl(p + term) is nondecreasing in p, so the answer is where the real sum
    crosses the rounding midpoint above bound, bound - term + ulp(bound)/2.
    That point is formed with an error-free subtraction, so the estimate
    is within an ulp of the answer even when |p| is far below |term|;
    every element is then checked exactly, and the rare misses (infinite
    terms or bounds, for instance) fall back to bisection over the floats'
    bit patterns.
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
            p[miss] = _bisect_prefix(term[miss], bound[miss])
    return p


def _bisect_prefix(term: np.ndarray, bound: np.ndarray) -> np.ndarray:
    # fl(-inf + term) = -inf always fits; fl(+inf + term) never does, since
    # terms are below +inf and bounds never reach it.
    lo = np.full(term.shape, _float_keys(np.array(-np.inf))[()])
    hi = np.full(term.shape, _float_keys(np.array(np.inf))[()])
    while (hi - lo > 1).any():
        mid = lo + (hi - lo) // np.uint64(2)
        fits = _key_floats(mid) + term <= bound
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
    return _key_floats(lo)


@np.errstate(over="ignore")
def _exhaustive(mu: Capacity) -> CapacityEntropyReport:
    n = mu.ground_size
    vals = np.asarray(mu.values)
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

    # Forward walk: the smallest element that keeps the prefix feasible.
    order = []
    mask = 0
    acc = 0.0
    for _ in range(n):
        free = [e for e in range(n) if not mask >> e & 1]
        nxt = mask | np.left_shift(1, free)
        prefix = acc + _edge_terms(vals[nxt] - vals[mask])
        i = int(np.argmax(prefix <= theta[nxt]))
        acc = float(prefix[i])
        mask = int(nxt[i])
        order.append(free[i] + 1)

    return CapacityEntropyReport(
        entropy=_chain_value(vals, order)[0],
        argmin_chain=MaximalChain(tuple(order)),
        chains_examined=math.factorial(n),
        method="exhaustive",
    )


def _greedy(mu: Capacity) -> CapacityEntropyReport:
    n = mu.ground_size
    order: list[int] = []
    remaining = list(range(1, n + 1))
    mask = 0
    while remaining:
        best_e = None
        best_term = math.inf
        for e in remaining:  # ascending: ties go to the smallest element
            inc = mu.values[mask | 1 << (e - 1)] - mu.values[mask]
            term = -inc * math.log(inc) if inc > 0.0 else 0.0
            if term < best_term:
                best_term = term
                best_e = e
        order.append(best_e)
        remaining.remove(best_e)
        mask |= 1 << (best_e - 1)
    return CapacityEntropyReport(
        entropy=_chain_value(mu.values, order)[0],
        argmin_chain=MaximalChain(tuple(order)),
        chains_examined=1,
        method="greedy",
    )


def capacity_entropy(mu: Capacity, method: str = "exhaustive") -> CapacityEntropyReport:
    """Entropy of a capacity: the minimum chain divergence over maximal chains.

    The exhaustive method finds the exact minimum over all n! chains as a
    shortest path on the subset lattice in O(n 2^n); the greedy method
    builds one chain by repeatedly appending the element with the smallest
    incremental term, an O(n^2) upper bound on the true entropy.
    """
    if method == "exhaustive":
        return _exhaustive(mu)
    if method == "greedy":
        return _greedy(mu)
    raise InvalidInputError(f"unknown method {method!r}")
