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
forward program, which accumulates in the same order, returns as best[S]
exactly the minimum of that evaluator over the chains to each subset S,
and greedy >= exhaustive holds bit for bit. The witness is read off by
backtracking from the ground set: at each subset S the step goes back to
S - {e} for the highest element e whose rounded fold best[S - {e}] + term
reaches best[S]; the edge that set best[S] always does. Every prefix of
the chain so traced folds to best of its subset, so the chain folds to
the minimum bit for bit, in O(n^2) work after the forward program. Among
tied minimizing chains the witness is the one whose every prefix is a
best prefix and whose insertion order, read from the end, is largest; a
minimizing chain with a prefix one ulp worse is never the witness.

Two implementations. Below _NUMPY_FROM elements a capacity is computed
on Python floats with math.log, subset by subset over a table of each
subset's cover edges built once per ground size, and never loads numpy.
From there on numpy (module _capacity_numpy, imported on first use) does
the monotonicity check, the forward pass, a popcount layer at a time,
and the map from increments to edge terms; the finite-and-nonnegative
rule (ordered.nonnegative), the evaluator and the backtrack are written
once. _side alone chooses the side, by ground size, once per public
call: numpy's log may differ from math.log in the last bit, and the
argument above needs the forward pass, the backtrack and the evaluator
to see the same terms. Greedy chooses with math.log on either side and
folds its value with the side's terms.
"""

import itertools
import math
import sys
from collections.abc import Iterator, Sequence
from functools import cache, partial
from operator import le, or_, sub

from .discrete import DivergenceResult
from .errors import InvalidInputError, beyond_range
from .ordered import _Record, _store, array, as_floats, as_int, count, nonnegative, result

# The smallest ground size computed with numpy. Below it the Python loops
# keep up with numpy, and a process spares numpy's import: a `graddiv
# entropy capacity` process at n = 9 took 155 ms on Python floats against
# 242 ms with numpy (seed-0 random capacity, medians of 7, interleaved).
# A benchmark operation (read of a mask-ordered document, validate, both
# searches, report) in process (2-CPU Xeon, Python 3.11, numpy 2.4; two
# runs, medians of 9 interleaved rounds of 20 calls), Python against
# numpy, on the random capacities of seeds 0-5: 0.50-0.52 against
# 0.64-0.67 ms at n = 8, 0.94-0.99 against 0.91-1.00 at 9 (numpy faster
# on 5 of 6), 1.78-1.96 against 1.37-1.50 at 10 and 3.71-4.05 against
# 2.30-2.52 at 11; all-tie Capacity.additive([1/3] * n) costs what a
# random capacity does on either side: 0.47-0.49 against 0.63 at 8,
# 0.87-0.90 against 0.90 at 9, 1.78-1.81 against 1.43-1.49 at 10 and
# 3.66-3.72 against 2.27-2.34 at 11. In process the sides are about even
# at 9, so the switch follows the process, which spares numpy's import
# below 10.
_NUMPY_FROM = 10

# The largest ground size: no container holds the 2^63 subset values of 63
# elements, since a length is at most sys.maxsize.
_MOST_ELEMENTS = sys.maxsize.bit_length() - 1


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

    def __post_init__(self):
        n = count(self.ground_size, "ground_size", 1, _MOST_ELEMENTS)
        vals = as_floats(self.values, "values", 1 << n, 1 << n)
        nonnegative(vals, "subset values")
        if vals[0] != 0.0:
            raise InvalidInputError(f"the empty set must have value 0, got {vals[0]!r}")
        pair = _side(n).faults(vals, n)
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
        ms = as_floats(masses, "masses", 1, _MOST_ELEMENTS)
        n = len(ms)
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


def _faults(vals: Sequence[float], n: int) -> tuple[int, int] | None:
    """The first cover pair (A, A + {e}) with value(A) > value(A + {e}) as
    two masks, elements in order, then subsets A in index order, or None
    when the values, each finite and >= 0, are monotone."""
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
            return m, m | bit
    return None


class MaximalChain(_Record):
    """A maximal chain of the Boolean lattice, as an element insertion order.

    order is a permutation of {1..n}; the implied subsets are the prefixes
    empty set, {order[0]}, {order[0], order[1]}, ...
    """

    order: tuple[int, ...]

    _fields = ("order",)
    __slots__ = _fields

    def __post_init__(self):
        raw = array(self.order, "order", 1)
        order = tuple(as_int(e, f"order[{i}]") for i, e in enumerate(raw))
        n = len(order)
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
    n = count(n, "n", 1, count(limit, "limit"))
    for perm in itertools.permutations(range(1, n + 1)):
        yield MaximalChain(perm)


def _edge_term(d: float) -> float:
    """-d ln d for a chain increment d, a zero increment contributing 0.

    The Python side's edge term: its backtrack, greedy and chain evaluator
    all see these bits. _forward writes the same expression out inline,
    and TestPythonLattice in tests/test_capacity.py holds the two to the
    same bits against an oracle that calls this function. A term beyond
    double range is -inf, which the callers refuse.
    """
    return -d * math.log(d) if d > 0.0 else 0.0


def _chain_value(
    values: Sequence[float], order: Sequence[int], edge_terms
) -> tuple[float, int]:
    """The chain's entropy, its edge_terms folded left to right from 0.0,
    and its number of positive increments: the evaluator shared by every
    reported value.

    Raises ComputationError when the fold is not finite.
    """
    grades = [values[m] for m in itertools.accumulate((1 << (e - 1) for e in order), or_)]
    incs = list(map(sub, grades, [0.0, *grades]))
    value = 0.0
    for term in edge_terms(incs):  # a zero increment adds 0.0
        value += term
    if not math.isfinite(value):
        raise beyond_range("chain entropy", value)
    return value, sum(d > 0.0 for d in incs)


def chain_divergence(mu: Capacity, chain: MaximalChain) -> DivergenceResult:
    """Divergence of the capacity's grading along one chain from the
    position function: -sum_k dmu_k ln dmu_k."""
    if len(chain.order) != mu.ground_size:
        raise InvalidInputError(
            f"chain of length {len(chain.order)} does not fit ground size "
            f"{mu.ground_size}"
        )
    value, terms = _chain_value(mu.values, chain.order, _side(mu.ground_size).edge_terms)
    return DivergenceResult(value=value, terms_used=terms)


class CapacityEntropyReport(_Record):
    """Capacity entropy plus the chain witnessing the reported value.

    entropy (finite) and chains_examined (a count) follow ``ordered.result``,
    argmin_chain is a MaximalChain, and the method fixes the count: n! for
    exhaustive, 1 for greedy.
    """

    entropy: float
    argmin_chain: MaximalChain
    chains_examined: int
    method: str

    _fields = ("entropy", "argmin_chain", "chains_examined", "method")
    __slots__ = _fields

    def __post_init__(self):
        result(self, "entropy", False, ("chains_examined",))
        if not isinstance(self.argmin_chain, MaximalChain):
            raise InvalidInputError(
                f"argmin_chain must be a MaximalChain, got {self.argmin_chain!r}"
            )
        if self.method not in ("exhaustive", "greedy"):
            raise InvalidInputError(f"unknown method {self.method!r}")
        total = math.factorial(len(self.argmin_chain.order))
        if self.method == "exhaustive" and self.chains_examined != total:
            raise InvalidInputError(
                f"exhaustive search must examine all {total} chains"
            )
        if self.method == "greedy" and self.chains_examined != 1:
            raise InvalidInputError("greedy search builds exactly one chain")


@cache
def _cover_predecessors(n: int) -> tuple[tuple[int, ...], ...]:
    """For every subset S of an n-element ground set, the subsets S - {e}
    it covers, e ascending: the cover edges _forward reads, built once
    per ground size."""
    return tuple(
        tuple(s ^ 1 << e for e in range(n) if s >> e & 1) for s in range(1 << n)
    )


def _forward(values: Sequence[float], n: int) -> list[float]:
    """best[S] for every subset S: the smallest left-to-right fold of edge
    terms over the chains from the empty set to S. Raises ComputationError
    when best at the ground set, the minimum over all chains, is not
    finite."""
    full = (1 << n) - 1
    below = _cover_predecessors(n)
    log = math.log
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
        raise beyond_range("chain entropy", best[full])
    return best


def _backtrack(values: Sequence[float], best: Sequence[float], n: int, edge_terms) -> list[int]:
    """The witness chain, in insertion order: from the ground set back to
    the empty set, each step to S - {e} for the highest element e whose
    rounded fold best[S - {e}] + term reaches best[S]. By induction every
    prefix of the chain folds to best of its subset."""
    order = []
    s = (1 << n) - 1
    while s:
        came = [s ^ 1 << e for e in range(n - 1, -1, -1) if s >> e & 1]
        terms = edge_terms([values[s] - values[c] for c in came])
        c = next(c for c, term in zip(came, terms) if best[c] + term == best[s])
        order.append((s ^ c).bit_length())
        s = c
    order.reverse()
    return order


class _Python:
    """The Python-float side, in _capacity_numpy's names."""

    faults = staticmethod(_faults)
    forward = staticmethod(_forward)
    edge_terms = staticmethod(partial(map, _edge_term))


def _side(n: int):
    """The side that computes a capacity of n elements, as faults, forward
    and edge_terms: _Python below _NUMPY_FROM, _capacity_numpy from there on.
    Read once per public call, so every step of a call sees one log's terms."""
    if n < _NUMPY_FROM:
        return _Python
    from . import _capacity_numpy

    return _capacity_numpy


def _greedy(values: Sequence[float], n: int) -> list[int]:
    """The chain that takes, step by step, the cheapest next edge."""
    order: list[int] = []
    remaining = list(range(1, n + 1))
    mask = 0
    while remaining:
        best_e = None
        best_term = math.inf
        for e in remaining:  # ascending: ties go to the smallest element
            term = _edge_term(values[mask | 1 << (e - 1)] - values[mask])
            if term < best_term:
                best_term = term
                best_e = e
        order.append(best_e)
        remaining.remove(best_e)
        mask |= 1 << (best_e - 1)
    return order


def capacity_entropy(mu: Capacity, method: str = "exhaustive") -> CapacityEntropyReport:
    """Entropy of a capacity: the minimum chain divergence over maximal chains.

    The exhaustive method finds the exact minimum over all n! chains as a
    shortest path on the subset lattice in O(n 2^n); the greedy method
    builds one chain by repeatedly appending the element with the smallest
    incremental term, an O(n^2) upper bound on the true entropy.
    """
    if method not in ("exhaustive", "greedy"):
        raise InvalidInputError(f"unknown method {method!r}")
    n = mu.ground_size
    side = _side(n)
    if method == "exhaustive":
        order = _backtrack(mu.values, side.forward(mu.values, n), n, side.edge_terms)
    else:
        order = _greedy(mu.values, n)
    return CapacityEntropyReport(
        entropy=_chain_value(mu.values, order, side.edge_terms)[0],
        argmin_chain=MaximalChain(tuple(order)),
        chains_examined=math.factorial(n) if method == "exhaustive" else 1,
        method=method,
    )
