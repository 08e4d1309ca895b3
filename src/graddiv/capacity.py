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
program of Bellman and of Held and Karp): O(n 2^n) work, about n times
the size of the capacity itself. The greedy method builds one chain by
always taking the cheapest next edge, an O(n^2) upper bound.

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

Two implementations. Below _NUMPY_FROM elements a capacity is computed
on Python floats with math.log, subset by subset over a table of each
subset's cover edges built once per ground size, and never loads numpy.
From there on numpy (module _capacity_numpy, imported on first use) does
validation, the two passes, a popcount layer at a time, their vector
prefix step and the map from increments to edge terms; the evaluator, the
walk and the bisection over bit patterns are written once, here. In both
backward passes only the subsets that some minimizing chain passes
through push bounds down their own cover edges: this side subset by
subset, the numpy side layer by layer, in blocks. The ground size alone
selects the side. numpy's log may differ from math.log in the last bit,
and the argument above needs the search and the evaluator to see the
same terms, so _term_map gives every step of one ground size its terms
from the same log.
"""

import itertools
import math
import struct
from functools import cache, partial
from operator import le, or_, sub
from typing import Callable, Iterable, Iterator, Sequence

from .discrete import DivergenceResult
from .errors import ComputationError, InvalidInputError
from .ordered import _Record, _store, as_floats, as_int

__all__ = [
    "Capacity",
    "MaximalChain",
    "CapacityEntropyReport",
    "enumerate_chains",
    "chain_divergence",
    "capacity_entropy",
]

# The smallest ground size computed with numpy. Below it the Python loops
# keep up with numpy, and a process spares numpy's import: a `graddiv
# entropy capacity` process at n = 9 took 113 ms on Python floats against
# 301 ms with numpy (medians of 7, interleaved). A benchmark operation
# (read, validate, both searches, report) in process (2-CPU Xeon, Python
# 3.11, numpy 2.4; two runs, medians of 9 interleaved rounds of 20
# calls), Python against numpy, on the random capacities of seeds 0-5:
# 0.59-1.10 against 1.18-2.17 ms at n = 8, 1.06-1.76 against 1.51-2.62 at
# 9, 2.21-3.23 against 2.13-3.48 at 10 (numpy faster on 6 of 12) and
# 5.27-7.94 against 3.80-5.49 at 11; all-tie Capacity.additive([1/3] * n):
# 1.12-1.40 against 1.25-1.49 at 8, 2.52-3.41 against 1.57-2.42 at 9,
# 6.1-8.9 against 3.1-3.7 at 10 and 17.6-18.3 against 5.5-6.2 at 11.
# All-tie inputs favour numpy at 9, random ones only from 10 on, where
# the two sides are about even; the switch follows the random ones.
_NUMPY_FROM = 10


def _numpy_path():
    from . import _capacity_numpy

    return _capacity_numpy


class Capacity(_Record):
    """A monotone nonnegative set function on all subsets of {1..n}.

    values[mask] is the measure of the subset encoded by mask, where bit
    k-1 set means element k is present. Monotonicity is validated at
    construction over all cover pairs (A, A + {e}); every downstream
    guarantee (chain increments >= 0) rests on it.
    """

    ground_size: int
    values: tuple[float, ...]

    _fields = ("ground_size", "values")
    __slots__ = _fields

    def __init__(self, ground_size, values):
        _store(self, "ground_size", ground_size)
        _store(self, "values", values)
        self.__post_init__()

    def __post_init__(self):
        n = as_int(self.ground_size, "ground_size")
        if n < 1:
            raise InvalidInputError(f"ground_size must be >= 1, got {n}")
        vals = as_floats(self.values, "values")
        if len(vals) != 2**n:
            raise InvalidInputError(
                f"need {2**n} subset values for ground_size {n}, got {len(vals)}"
            )
        faults = _faults if n < _NUMPY_FROM else _numpy_path().faults
        bad, pair = faults(vals, n)
        if bad is not None:
            raise InvalidInputError(
                f"subset values must be finite and >= 0, got {vals[bad]!r}"
            )
        if vals[0] != 0.0:
            raise InvalidInputError(f"the empty set must have value 0, got {vals[0]!r}")
        if pair is not None:
            low, high = pair
            raise InvalidInputError(
                f"capacity is not monotone: value({_mask_name(low)})="
                f"{vals[low]!r} > value({_mask_name(high)})={vals[high]!r}"
            )
        _store(self, "ground_size", n)
        _store(self, "values", vals)

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


def _mask_key(mask: int) -> str:
    """The elements of a subset mask, ascending and comma-separated: 0b101
    is "1,3", the empty set ""."""
    return ",".join(str(k + 1) for k in range(mask.bit_length()) if mask >> k & 1)


def _mask_name(mask: int) -> str:
    return "{" + _mask_key(mask) + "}"


def _faults(vals: Sequence[float], n: int) -> tuple[int | None, tuple[int, int] | None]:
    """The index of the first value that is not finite and >= 0, or, when
    every value is, the first cover pair (A, A + {e}) with value(A) >
    value(A + {e}) as two masks, elements in order, then subsets A in
    index order. None stands for no such fault."""
    if not (all(map(math.isfinite, vals)) and min(vals) >= 0):
        bad = next(i for i, v in enumerate(vals) if not (math.isfinite(v) and v >= 0))
        return bad, None
    size = len(vals)
    for e in range(n):
        bit = 1 << e
        step = 2 * bit
        # The subsets without e against the same subsets with it, compared
        # in C-level passes: over strided slices while bit is small, over
        # contiguous blocks once it is large, at most sqrt(size / 2) of
        # either. Only a failing element is walked again to name the pair.
        if 2 * bit * bit <= size:
            pieces = ((vals[j::step], vals[j + bit::step]) for j in range(bit))
        else:
            pieces = ((vals[b:b + bit], vals[b + bit:b + step]) for b in range(0, size, step))
        if not all(all(map(le, without, with_e)) for without, with_e in pieces):
            m = next(m for m in range(size) if not m & bit and vals[m] > vals[m | bit])
            return None, (m, m | bit)
    return None, None


class MaximalChain(_Record):
    """A maximal chain of the Boolean lattice, as an element insertion order.

    order is a permutation of {1..n}; the implied subsets are the prefixes
    empty set, {order[0]}, {order[0], order[1]}, ...
    """

    order: tuple[int, ...]

    _fields = ("order",)
    __slots__ = _fields

    def __init__(self, order):
        _store(self, "order", order)
        self.__post_init__()

    def __post_init__(self):
        try:
            raw = tuple(self.order)
        except TypeError:
            raise InvalidInputError("order must be an array of integers") from None
        order = tuple(as_int(e, f"order[{i}]") for i, e in enumerate(raw))
        n = len(order)
        if n < 1:
            raise InvalidInputError("a maximal chain needs at least one element")
        if sorted(order) != list(range(1, n + 1)):
            raise InvalidInputError(
                f"order must be a permutation of 1..{n}, got {order!r}"
            )
        _store(self, "order", order)

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


def _edge_term(d: float) -> float:
    """-d ln d for a chain increment d, a zero increment contributing 0.

    The Python side's edge term: its lattice search, witness walk, greedy
    and chain evaluator all see these bits. The forward pass of _theta
    writes the same expression out inline, and TestPythonLattice in
    tests/test_capacity.py holds the two to the same bits against an
    oracle that calls this function. A term beyond double range is -inf,
    which the callers refuse.
    """
    return -d * math.log(d) if d > 0.0 else 0.0


def _beyond_range(value: float) -> ComputationError:
    return ComputationError(
        f"the chain entropy is {value!r}: a term or the running total "
        "overflowed double precision"
    )


def _term_map(n: int) -> Callable[[Sequence[float]], Iterable[float]]:
    """The map from a run of chain increments to their edge terms for a
    ground size n: _edge_term below _NUMPY_FROM, numpy's _edge_terms from
    there on. The one place that decides which log a ground size uses; the
    lattice passes of each side compute their terms with the same log."""
    if n < _NUMPY_FROM:
        return partial(map, _edge_term)
    return _numpy_path().edge_terms


def _chain_value(values: Sequence[float], order: Sequence[int]) -> tuple[float, int]:
    """The chain's entropy, folded left to right from 0.0, and its number
    of positive increments: the evaluator shared by every reported value.

    Raises ComputationError when the fold is not finite.
    """
    grades = [values[m] for m in itertools.accumulate((1 << (e - 1) for e in order), or_)]
    incs = list(map(sub, grades, [0.0, *grades]))
    value = 0.0
    for term in _term_map(len(order))(incs):  # a zero increment adds 0.0
        value += term
    if not math.isfinite(value):
        raise _beyond_range(value)
    return value, sum(d > 0.0 for d in incs)


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


class CapacityEntropyReport(_Record):
    """Capacity entropy plus the chain witnessing the reported value."""

    entropy: float
    argmin_chain: MaximalChain
    chains_examined: int
    method: str

    _fields = ("entropy", "argmin_chain", "chains_examined", "method")
    __slots__ = _fields

    def __init__(self, entropy, argmin_chain, chains_examined, method):
        _store(self, "entropy", entropy)
        _store(self, "argmin_chain", argmin_chain)
        _store(self, "chains_examined", chains_examined)
        _store(self, "method", method)
        self.__post_init__()

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


_DOUBLE = struct.Struct("<d")
_WORD = struct.Struct("<Q")
_SIGN = 1 << 63
_ALL_BITS = (1 << 64) - 1


def _float_key(x: float) -> int:
    """An unsigned integer ordered as the floats are (NaN aside)."""
    (raw,) = _WORD.unpack(_DOUBLE.pack(x))
    return raw ^ _ALL_BITS if raw & _SIGN else raw | _SIGN


def _key_float(key: int) -> float:
    raw = key ^ _SIGN if key & _SIGN else key ^ _ALL_BITS
    return _DOUBLE.unpack(_WORD.pack(raw))[0]


def _largest_prefix(term: float, bound: float) -> float:
    """The largest float p with fl(p + term) <= bound.

    fl(p + term) is nondecreasing in p, so the answer is where the real sum
    crosses the rounding midpoint above bound, bound - term + ulp(bound)/2.
    That point is formed with an error-free subtraction, so the estimate
    is within an ulp of the answer even when |p| is far below |term|; it
    is then checked exactly, and the rare misses (infinite terms or
    bounds, for instance) fall back to bisection over the floats' bit
    patterns.
    """
    diff = bound - term
    back = diff - bound
    err = (bound - (diff - back)) - (term + back)  # diff + err == bound - term
    half_ulp = (math.nextafter(bound, math.inf) - bound) * 0.5
    p = diff + (err + half_ulp)
    # Step down once if p overshoots, then probe the neighbour that must
    # not fit (above p) or must fit (p itself, after a step down).
    fits = p + term <= bound
    if not fits:
        p = math.nextafter(p, -math.inf)
    probe = math.nextafter(p, math.inf) if fits else p
    if (probe + term <= bound) == fits:
        return _bisect_prefix(term, bound)
    return p


def _bisect_prefix(term: float, bound: float) -> float:
    """_largest_prefix by bisection over the floats' bit patterns, for the
    misses of either side's estimate."""
    # fl(-inf + term) = -inf always fits; fl(+inf + term) never does, since
    # terms are below +inf and bounds never reach it.
    lo = _float_key(-math.inf)
    hi = _float_key(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _key_float(mid) + term <= bound:
            lo = mid
        else:
            hi = mid
    return _key_float(lo)


@cache
def _cover_predecessors(n: int) -> tuple[tuple[int, ...], ...]:
    """For every subset S of an n-element ground set, the subsets S - {e}
    it covers, e ascending: the cover edges both passes of _theta read,
    built once per ground size."""
    return tuple(
        tuple(s ^ 1 << e for e in range(n) if s >> e & 1) for s in range(1 << n)
    )


def _theta(values: Sequence[float], n: int) -> list[float]:
    """theta[S] for every subset S: the largest prefix value at S from which
    some completion still folds to at most the minimum over all chains.
    Raises ComputationError when that minimum is not finite."""
    full = (1 << n) - 1
    below = _cover_predecessors(n)
    log = math.log

    # Forward: best[S] is the smallest left-to-right fold over chains to S.
    # Each S - {e} has a smaller mask than S, so ascending masks see it first.
    # The edge term is _edge_term's expression, written out: a call per
    # cover edge would cost more than the term.
    best = [0.0] * (full + 1)
    for s in range(1, full + 1):
        v = values[s]
        low = math.inf
        for came in below[s]:
            d = v - values[came]
            cand = best[came] + (-d * log(d) if d > 0.0 else 0.0)
            if cand < low:
                low = cand
        best[s] = low
    # the evaluator would refuse the minimizing chain's fold
    if not math.isfinite(best[full]):
        raise _beyond_range(best[full])

    # Backward: theta[S] is the largest value that any superset S + {e}
    # allows through _largest_prefix. Some chain through S reaches the
    # minimum exactly when best[S] <= theta[S]. A subset T where none does
    # is skipped: what it would allow a parent S stays below best[S], since
    # fl(best[S] + term) >= best[T] > theta[T], so it never sets the value
    # of a parent on a minimizing chain, and the walk, whose prefix at T is
    # at least best[T], refuses T all the same. Without ties, only the
    # subsets on the minimizing chain push to their parents.
    theta = [-math.inf] * full + [best[full]]
    for into in range(full, 0, -1):
        bound = theta[into]
        if bound < best[into]:
            continue
        v = values[into]
        for came in below[into]:
            fit = _largest_prefix(_edge_term(v - values[came]), bound)
            if fit > theta[came]:
                theta[came] = fit
    return theta


def _walk(values: Sequence[float], theta: Sequence[float], n: int) -> list[int]:
    """The first chain, in insertion order, whose fold is the minimum: from
    the empty set, the smallest element whose rounded prefix stays within
    theta, step by step."""
    terms = _term_map(n)
    order = []
    free = list(range(n))
    mask = 0
    acc = 0.0
    for _ in range(n):
        v = values[mask]
        steps = [mask | 1 << e for e in free]
        for i, term in enumerate(terms([values[s] - v for s in steps])):
            prefix = acc + term
            if prefix <= theta[steps[i]]:
                break
        acc = prefix
        mask = steps[i]
        order.append(free.pop(i) + 1)
    return order


def _exhaustive(mu: Capacity) -> CapacityEntropyReport:
    n = mu.ground_size
    bounds = _theta if n < _NUMPY_FROM else _numpy_path().theta
    order = _walk(mu.values, bounds(mu.values, n), n)
    return CapacityEntropyReport(
        entropy=_chain_value(mu.values, order)[0],
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
            term = _edge_term(mu.values[mask | 1 << (e - 1)] - mu.values[mask])
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
