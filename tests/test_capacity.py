import contextlib
import itertools
import math
import operator
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graddiv import (
    Capacity,
    CapacityEntropyReport,
    ComputationError,
    InvalidInputError,
    MaximalChain,
    capacity_entropy,
    chain_divergence,
    enumerate_chains,
    partition_entropy,
)

import graddiv._capacity_numpy as capacity_numpy
import graddiv.capacity as capacity
from graddiv.errors import beyond_range

from conftest import (
    TIE_MASSES,
    additive_capacities,
    all_tie_capacities,
    capacities,
    monotone_capacity,
)

WORKED = Capacity(2, (0.0, 0.6, 0.7, 1.0))

# A capacity is computed on Python floats below capacity._NUMPY_FROM
# elements and with numpy from there on. The contract tests run each input
# through both sides by moving the threshold.
SIDES = {"python": 64, "numpy": 1}


@contextlib.contextmanager
def computed_on(side):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_NUMPY_FROM", SIDES[side])
        yield


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestCapacity:
    def test_additive_round_trip(self):
        mu = Capacity.additive((0.25, 0.75))
        assert mu.ground_size == 2
        assert mu.values == (0.0, 0.25, 0.75, 1.0)
        assert mu.singleton_masses == (0.25, 0.75)

    def test_additive_three_elements(self):
        mu = Capacity.additive((0.1, 0.2, 0.3))
        # values indexed by bitmask: {1}=0.1, {2}=0.2, {1,2}=0.3, {3}=0.3, ...
        assert mu.values[0b011] == pytest.approx(0.3, abs=1e-15)
        assert mu.values[0b101] == pytest.approx(0.4, abs=1e-15)
        assert mu.values[0b111] == pytest.approx(0.6, abs=1e-15)

    def test_value_count_must_match_ground_size(self):
        with pytest.raises(InvalidInputError):
            Capacity(2, (0.0, 0.5, 1.0))

    def test_empty_set_must_have_zero_value(self):
        for side in SIDES:
            with computed_on(side), pytest.raises(InvalidInputError) as exc:
                Capacity(1, (0.5, 1.0))
            assert str(exc.value) == "the empty set must have value 0, got 0.5", side

    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidInputError) as exc:
            Capacity(2, (0.0, 0.6, 0.7, 0.65))
        assert "monotone" in str(exc.value)

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidInputError):
            Capacity(1, (0.0, -0.5))

    def test_first_bad_value_in_index_order_is_named(self):
        values = [float(bin(m).count("1")) for m in range(1 << 6)]
        for first, second, shown in ((math.nan, -0.5, "nan"), (-0.5, math.nan, "-0.5"),
                                     (math.inf, -math.inf, "inf"), (-0.5, -1.0, "-0.5")):
            values[50], values[60] = first, second
            for side in SIDES:
                with computed_on(side), pytest.raises(InvalidInputError) as exc:
                    Capacity(6, tuple(values))
                assert str(exc.value) == (
                    f"subset values must be finite and >= 0, got {shown}"
                ), side

    def test_faults_are_named_in_order(self):
        # length, then a value not finite and >= 0, then the empty set, then
        # monotonicity: one input with the last three, mended one at a time
        faulty = [0.5, 0.7, -0.25, 0.6]
        steps = [
            (faulty + [1.0], "values length must be 4, got 5"),
            (faulty, "subset values must be finite and >= 0, got -0.25"),
            ([0.5, 0.7, 0.8, 0.6], "the empty set must have value 0, got 0.5"),
            ([0.0, 0.7, 0.8, 0.6], "capacity is not monotone: value({2})=0.8 > value({1,2})=0.6"),
        ]
        for side in SIDES:
            for values, message in steps:
                with computed_on(side), pytest.raises(InvalidInputError) as exc:
                    Capacity(2, values)
                assert str(exc.value) == message, side
            with computed_on(side):
                assert Capacity(2, [0.0, 0.7, 0.8, 0.9]).values == (0.0, 0.7, 0.8, 0.9)

    def test_values_are_stored_as_python_floats(self):
        mu = Capacity(2, (0, np.float64(0.5), 1, np.float32(1.5)))
        assert mu.values == (0.0, 0.5, 1.0, 1.5)
        assert all(type(v) is float for v in mu.values)

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1 << n, max_size=1 << n)))
    def test_first_monotonicity_violation_is_named(self, raw):
        n = len(raw).bit_length() - 1
        values = (0.0, *raw[1:])

        def name(mask):
            return "{" + ",".join(str(k + 1) for k in range(n) if mask >> k & 1) + "}"

        # the loop the vectorized check must agree with: elements in order,
        # then subsets without the element in index order
        pairs = ((m, m | 1 << e) for e in range(n) for m in range(1 << n) if not m >> e & 1)
        low, high = next(((m, w) for m, w in pairs if values[m] > values[w]), (None, None))
        for side in SIDES:
            with computed_on(side):
                if low is None:
                    assert Capacity(n, values).values == values
                    continue
                with pytest.raises(InvalidInputError) as exc:
                    Capacity(n, values)
            assert str(exc.value) == (
                f"capacity is not monotone: value({name(low)})={values[low]!r} > "
                f"value({name(high)})={values[high]!r}"
            ), side

    def test_ground_size_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            Capacity(0, (0.0,))

    @given(capacities(max_n=4))
    def test_generated_capacities_are_valid(self, mu):
        assert mu.values[0] == 0.0
        assert len(mu.values) == 1 << mu.ground_size


class TestMaximalChain:
    def test_subsets_nest_upward(self):
        ch = MaximalChain((2, 1, 3))
        assert [sorted(s) for s in ch.subsets()] == [[], [2], [1, 2], [1, 2, 3]]

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInputError):
            MaximalChain((1, 1))
        with pytest.raises(InvalidInputError):
            MaximalChain((0, 1))
        with pytest.raises(InvalidInputError):
            MaximalChain(())
        with pytest.raises(InvalidInputError, match="^order must be an array, got int$"):
            MaximalChain(5)

    def test_rejects_gap(self):
        with pytest.raises(InvalidInputError):
            MaximalChain((1, 3))


class TestEnumerateChains:
    def test_single_element(self):
        assert [c.order for c in enumerate_chains(1)] == [(1,)]

    def test_three_elements_lexicographic(self):
        orders = [c.order for c in enumerate_chains(3)]
        assert len(orders) == 6
        assert orders[0] == (1, 2, 3)
        assert orders[-1] == (3, 2, 1)
        assert orders == sorted(orders)

    def test_four_elements_distinct(self):
        orders = [c.order for c in enumerate_chains(4)]
        assert len(set(orders)) == 24

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            list(enumerate_chains(0))
        with pytest.raises(InvalidInputError):
            list(enumerate_chains(11))

    def test_limit_can_be_raised(self):
        it = enumerate_chains(11, limit=11)
        assert next(it).order == tuple(range(1, 12))


class TestChainDivergence:
    def test_worked_example_both_chains(self):
        assert chain_divergence(WORKED, MaximalChain((1, 2))).value == pytest.approx(
            0.6730116670092565, abs=1e-15
        )
        assert chain_divergence(WORKED, MaximalChain((2, 1))).value == pytest.approx(
            0.6108643020548935, abs=1e-15
        )

    def test_additive_half_half_gives_log_two(self):
        mu = Capacity.additive((0.5, 0.5))
        for ch in enumerate_chains(2):
            assert chain_divergence(mu, ch).value == pytest.approx(
                math.log(2.0), abs=1e-15
            )

    def test_chain_size_must_match(self):
        with pytest.raises(InvalidInputError):
            chain_divergence(WORKED, MaximalChain((1, 2, 3)))

    def test_folds_left_to_right(self):
        # From n = 8 numpy sums pairwise; the lattice search accumulates
        # left to right, so the evaluator must too. Halving pairwise sums
        # match the fold on the first two orders, not on the third.
        mu = monotone_capacity(10, [0.3, 1.7, 0.02, 0.9, 0.0, 2.4, 0.55])
        for order in (
            (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
            (10, 3, 7, 1, 9, 2, 8, 4, 6, 5),
            (10, 9, 8, 7, 6, 5, 4, 3, 2, 1),
        ):
            masks = np.cumsum([1 << (e - 1) for e in order])
            inc = np.diff([mu.values[m] for m in masks], prepend=0.0)
            expected = 0.0
            for d in inc:
                expected += -d * np.log(d) if d > 0.0 else 0.0
            assert chain_divergence(mu, MaximalChain(order)).value == expected

    def test_zero_increment_skipped(self):
        mu = Capacity(2, (0.0, 0.0, 0.5, 1.0))
        r = chain_divergence(mu, MaximalChain((1, 2)))
        assert r.terms_used == 1
        assert r.value == pytest.approx(-math.log(1.0) * 0.0 - 1.0 * math.log(1.0))


class TestCapacityEntropy:
    def test_worked_example(self):
        rep = capacity_entropy(WORKED, method="exhaustive")
        assert rep.entropy == pytest.approx(0.6108643020548935, abs=1e-15)
        assert rep.argmin_chain.order == (2, 1)
        assert rep.chains_examined == 2
        assert rep.method == "exhaustive"

    def test_single_element(self):
        rep = capacity_entropy(Capacity(1, (0.0, 0.25)))
        assert rep.entropy == pytest.approx(-0.25 * math.log(0.25), abs=1e-15)
        assert rep.argmin_chain.order == (1,)
        assert rep.chains_examined == 1

    def test_entropy_beyond_double_range_raises(self):
        # every chain has a term -d ln d below -1.8e308
        mu = Capacity(2, (0.0, 1e308, 1.0, 1.7e308))
        for side in SIDES:
            with computed_on(side), warnings.catch_warnings():
                warnings.simplefilter("error")  # and numpy warns of no overflow
                for method in ("exhaustive", "greedy"):
                    with pytest.raises(ComputationError, match="chain entropy is -inf"):
                        capacity_entropy(mu, method=method)
                for order in ((1, 2), (2, 1)):
                    with pytest.raises(ComputationError, match="chain entropy is -inf"):
                        chain_divergence(mu, MaximalChain(order))

    def test_single_element_zero_mass(self):
        assert capacity_entropy(Capacity(1, (0.0, 0.0))).entropy == 0.0

    def test_tie_breaks_to_largest_elements_last(self):
        # Where every chain folds to the same bits, the backtrack takes the
        # highest element last at every step: the identity order.
        for side in SIDES:
            with computed_on(side):
                rep2 = capacity_entropy(Capacity.additive((0.5, 0.5)), method="exhaustive")
                rep3 = capacity_entropy(
                    Capacity.additive((1 / 3, 1 / 3, 1 / 3)), method="exhaustive"
                )
            assert rep2.argmin_chain.order == (1, 2), side
            assert rep3.argmin_chain.order == (1, 2, 3), side

    def test_deterministic_across_runs(self):
        a = capacity_entropy(WORKED, method="exhaustive")
        b = capacity_entropy(WORKED, method="exhaustive")
        assert a == b

    def test_greedy_on_worked_example(self):
        rep = capacity_entropy(WORKED, method="greedy")
        assert rep.method == "greedy"
        assert rep.chains_examined == 1
        assert rep.entropy == pytest.approx(0.6108643020548935, abs=1e-15)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            capacity_entropy(WORKED, method="anneal")

    @given(additive_capacities(max_n=4))
    def test_additive_chain_invariance(self, mu):
        # For additive capacities every maximal chain sees the same multiset
        # of increments, so all chain divergences coincide with the
        # partition entropy of the singleton masses.
        values = [
            chain_divergence(mu, ch).value
            for ch in enumerate_chains(mu.ground_size)
        ]
        target = partition_entropy(mu.singleton_masses).value
        for v in values:
            assert rel_close(v, target)
        rep = capacity_entropy(mu, method="exhaustive")
        assert rel_close(rep.entropy, target)

    @given(capacities(max_n=5))
    def test_greedy_never_beats_exhaustive(self, mu):
        for side in SIDES:
            with computed_on(side):
                exhaustive = capacity_entropy(mu, method="exhaustive")
                greedy = capacity_entropy(mu, method="greedy")
            assert greedy.entropy >= exhaustive.entropy, side

    @given(capacities(max_n=4))
    def test_entropy_matches_argmin_chain(self, mu):
        for side in SIDES:
            with computed_on(side):
                for method in ("exhaustive", "greedy"):
                    rep = capacity_entropy(mu, method=method)
                    witness = chain_divergence(mu, rep.argmin_chain).value
                    assert rep.entropy == witness, (side, method)

    @settings(max_examples=25)
    @given(st.one_of(capacities(max_n=7), all_tie_capacities(max_n=7)))
    def test_exhaustive_is_true_minimum(self, mu):
        # The lattice search against the n! scan, bit for bit: the value is
        # the smallest chain divergence. The witness, read off the scan
        # alone: among the chains whose every prefix folds to the smallest
        # fold of any chain to its subset, the one whose order, read from
        # the end, is largest.
        n = mu.ground_size
        for side in SIDES:
            with computed_on(side):
                rep = capacity_entropy(mu, method="exhaustive")
                edge_terms = capacity._side(n).edge_terms
                scan = {}
                for ch in enumerate_chains(n):
                    scan[ch.order] = prefix_folds(mu, ch.order, edge_terms)
                    assert scan[ch.order][1][-1] == chain_divergence(mu, ch).value, side
            lowest = {}
            for masks, folds in scan.values():
                for m, fold in zip(masks, folds):
                    lowest[m] = min(lowest.get(m, math.inf), fold)
            assert rep.entropy == lowest[(1 << n) - 1], side
            best_prefixes = [
                order for order, (masks, folds) in scan.items()
                if all(lowest[m] == fold for m, fold in zip(masks, folds))
            ]
            assert rep.argmin_chain.order == max(best_prefixes, key=lambda o: o[::-1]), side

    def test_prefix_one_ulp_worse_can_still_win(self):
        # Entering {1, 2} by (1, 2) costs one ulp more than by (2, 1), yet
        # both finish at the minimum. The witness is the chain each of whose
        # prefixes is a best prefix, (2, 1, 3); the lexicographically first
        # minimizer, (1, 2, 3), folds to the same value.
        mu = Capacity.additive((0.1, 0.7, 0.2))
        sub = Capacity(2, mu.values[:4])
        for side in SIDES:
            with computed_on(side):
                assert (
                    chain_divergence(sub, MaximalChain((1, 2))).value
                    > chain_divergence(sub, MaximalChain((2, 1))).value
                ), side
                rep = capacity_entropy(mu, method="exhaustive")
                assert rep.argmin_chain.order == (2, 1, 3), side
                assert rep.entropy == chain_divergence(mu, MaximalChain((1, 2, 3))).value, side

    def test_additive_sixteen_elements_match_partition_entropy(self):
        masses = [0.5 + 0.37 * k % 1.9 for k in range(16)]
        rep = capacity_entropy(Capacity.additive(masses), method="exhaustive")
        assert rep.chains_examined == math.factorial(16)
        assert rel_close(rep.entropy, partition_entropy(masses).value)

    def test_eight_element_exhaustive_under_a_second(self):
        mu = monotone_capacity(8, [0.05, 0.11, 0.07, 0.02, 0.13])
        t0 = time.perf_counter()
        rep = capacity_entropy(mu, method="exhaustive")
        elapsed = time.perf_counter() - t0
        assert rep.chains_examined == math.factorial(8)
        assert elapsed < 1.0


def seeded_capacity(n: int, seed: int, zero_share: float = 0.0) -> Capacity:
    """A random monotone capacity; about zero_share of its steps are 0."""
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(0.0, 1.0, (1 << n) - 1)
    deltas[rng.random(deltas.size) < zero_share] = 0.0
    return monotone_capacity(n, deltas.tolist())


# Reports at the sizes around the switch, n = 9 on Python floats and 10
# and 11 on numpy, captured before the side was chosen in one place:
# (entropy.hex(), argmin chain, chains_examined). Moving the switch may
# move last bits at the sizes it moves, and must re-pin them knowingly.
PINNED_SIDES = {9: "python", 10: "numpy", 11: "numpy"}
PINNED_CASES = {
    "seed 0": lambda n: seeded_capacity(n, 0),
    "seed 1": lambda n: seeded_capacity(n, 1),
    "zero steps": lambda n: seeded_capacity(n, 2, 0.5),
    "all tie": lambda n: Capacity.additive([1 / 3] * n),
}
PINNED_REPORTS = {
    (9, "seed 0", "exhaustive"): ("-0x1.b87838b9768a2p+1", (3, 9, 6, 5, 4, 1, 7, 2, 8), 362880),
    (9, "seed 0", "greedy"): ("-0x1.2f170fa8230f3p+0", (3, 7, 6, 4, 1, 2, 5, 9, 8), 1),
    (9, "seed 1", "exhaustive"): ("-0x1.9848c87d67130p+1", (6, 3, 9, 1, 2, 8, 7, 4, 5), 362880),
    (9, "seed 1", "greedy"): ("-0x1.d3973e94827c0p-7", (2, 4, 6, 8, 7, 1, 3, 9, 5), 1),
    (9, "zero steps", "exhaustive"): ("-0x1.301ffa1a24556p+2", (1, 4, 7, 6, 9, 8, 3, 2, 5), 362880),
    (9, "zero steps", "greedy"): ("-0x1.51cac7483f6acp+0", (1, 5, 2, 3, 4, 8, 7, 6, 9), 1),
    (9, "all tie", "exhaustive"): ("0x1.a5ddfb8038491p+1", (1, 2, 3, 4, 5, 6, 7, 8, 9), 362880),
    (9, "all tie", "greedy"): ("0x1.a5ddfb8038491p+1", (1, 2, 3, 4, 5, 6, 7, 8, 9), 1),
    (10, "seed 0", "exhaustive"): ("-0x1.dd8ee33b697bfp+1", (3, 10, 4, 2, 9, 6, 8, 5, 1, 7), 3628800),
    (10, "seed 0", "greedy"): ("-0x1.ca53d75fcf54ap-1", (3, 7, 6, 4, 1, 2, 5, 9, 8, 10), 1),
    (10, "seed 1", "exhaustive"): ("-0x1.dbaa20eaff81ep+1", (5, 8, 7, 6, 3, 4, 10, 1, 2, 9), 3628800),
    (10, "seed 1", "greedy"): ("0x1.c571e45e625c8p-3", (2, 4, 6, 8, 7, 1, 3, 9, 10, 5), 1),
    (10, "zero steps", "exhaustive"): ("-0x1.67e9f50793148p+2", (9, 1, 8, 5, 3, 4, 2, 6, 7, 10), 3628800),
    (10, "zero steps", "greedy"): ("-0x1.a120133f24ad8p+0", (2, 1, 4, 8, 3, 6, 7, 10, 9, 5), 1),
    (10, "all tie", "exhaustive"): ("0x1.d4bdc21cb0513p+1", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 3628800),
    (10, "all tie", "greedy"): ("0x1.d4bdc21cb0513p+1", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 1),
    (11, "seed 0", "exhaustive"): ("-0x1.c2a0d2dc17c7cp+1", (3, 11, 8, 5, 10, 6, 2, 4, 1, 9, 7), 39916800),
    (11, "seed 0", "greedy"): ("-0x1.a877d7889e917p-1", (3, 7, 11, 2, 1, 6, 4, 10, 5, 9, 8), 1),
    (11, "seed 1", "exhaustive"): ("-0x1.e8e70a836e462p+1", (6, 5, 10, 3, 9, 7, 11, 2, 8, 4, 1), 39916800),
    (11, "seed 1", "greedy"): ("-0x1.f84339cd50ecdp-2", (2, 4, 6, 8, 11, 9, 1, 10, 3, 5, 7), 1),
    (11, "zero steps", "exhaustive"): ("-0x1.979561072387bp+2", (2, 3, 6, 11, 1, 5, 10, 8, 7, 4, 9), 39916800),
    (11, "zero steps", "greedy"): ("-0x1.cd93ed02a6e59p+1", (5, 8, 11, 1, 2, 7, 4, 6, 3, 9, 10), 1),
    (11, "all tie", "exhaustive"): ("0x1.01cec45c942cap+2", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 39916800),
    (11, "all tie", "greedy"): ("0x1.01cec45c942cap+2", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 1),
}


@pytest.mark.parametrize("key", PINNED_REPORTS, ids=lambda key: "{} {} {}".format(*key))
def test_reports_around_the_switch_are_pinned(key):
    n, case, method = key
    sides = {"python": capacity._Python, "numpy": capacity_numpy}
    assert capacity._side(n) is sides[PINNED_SIDES[n]]
    rep = capacity_entropy(PINNED_CASES[case](n), method=method)
    assert (rep.entropy.hex(), rep.argmin_chain.order, rep.chains_examined) == PINNED_REPORTS[key]


# The numpy forward pass works block by block; each case is checked in the
# default blocks and in 64-edge ones, which split every middle layer.
WAYS = {
    "default blocks": {},
    "64-edge blocks": {"_BLOCK": 64},
}

LATTICE_CASES = {
    **{f"random n={n} seed={s}": (n, s, 0.0) for n in range(8, 12) for s in (0, 1)},
    **{f"zero steps n={n}": (n, 2, 0.5) for n in range(8, 12)},
    **{f"all tie n={n} m={m:.3g}": (n, m) for n in range(8, 12) for m in TIE_MASSES},
    **{f"overflow n={n}": (n, 1e307) for n in range(8, 12)},
}


def lattice_case(spec) -> Capacity:
    if len(spec) == 3:
        return seeded_capacity(*spec)
    n, m = spec
    return Capacity.additive([m] * n)


def forward_oracle(mu, edge_terms) -> list[float]:
    """best[S] for every subset S, one subset at a time, each edge term
    from edge_terms: the smallest rounded fold best[S - {e}] + term over
    the elements e of S."""
    n = mu.ground_size
    vals = mu.values
    best = [0.0] * (1 << n)
    for s in range(1, 1 << n):
        came = [s ^ 1 << e for e in range(n) if s >> e & 1]
        terms = edge_terms([vals[s] - vals[c] for c in came])
        best[s] = min(map(operator.add, [best[c] for c in came], terms))
    return best


def prefix_folds(mu, order, edge_terms) -> tuple[list[int], list[float]]:
    """The subsets a chain passes through as masks, the empty set first,
    and the left-to-right fold of its edge_terms at each of them."""
    masks = [0, *itertools.accumulate((1 << e - 1 for e in order), operator.or_)]
    grades = [mu.values[m] for m in masks]
    terms = edge_terms(list(map(operator.sub, grades[1:], grades)))
    return masks, list(itertools.accumulate(terms, initial=0.0))


def check_lattice(mu):
    """The side's forward pass against forward_oracle bit for bit, and the
    reported witness against it: every prefix of the chain folds to best
    of its subset, and the whole chain to the reported entropy. Where the
    minimum is not finite, the forward pass and capacity_entropy refuse
    it with the same error."""
    n = mu.ground_size
    side = capacity._side(n)
    expected = forward_oracle(mu, side.edge_terms)
    if not math.isfinite(expected[-1]):
        message = str(beyond_range("chain entropy", expected[-1]))
        for compute in (partial(side.forward, mu.values, n), partial(capacity_entropy, mu)):
            with pytest.raises(ComputationError) as exc:
                compute()
            assert str(exc.value) == message
        return
    best = side.forward(mu.values, n)
    assert list(map(float.hex, best)) == list(map(float.hex, expected))
    rep = capacity_entropy(mu)
    masks, folds = prefix_folds(mu, rep.argmin_chain.order, side.edge_terms)
    assert list(map(float.hex, folds)) == [best[m].hex() for m in masks]
    assert folds[-1] == rep.entropy == chain_divergence(mu, rep.argmin_chain).value


# Sizes whose middle layers span several default blocks: about 24k edges,
# two blocks, at n = 14 and 103k edges, seven blocks, at n = 16.
BLOCK_CASES = {
    **{f"random n={n}": (n, 0, 0.0) for n in (14, 16)},
    **{f"all tie n={n}": (n, 1 / 3) for n in (14, 16)},
}


# The Python side's sizes, in the kinds of LATTICE_CASES.
PYTHON_SIZES = range(2, capacity._NUMPY_FROM)
PYTHON_LATTICE_CASES = {
    **{f"random n={n} seed={s}": (n, s, 0.0) for n in PYTHON_SIZES for s in (0, 1)},
    **{f"zero steps n={n}": (n, 2, 0.5) for n in PYTHON_SIZES},
    **{f"all tie n={n} m={m:.3g}": (n, m) for n in PYTHON_SIZES for m in TIE_MASSES},
    **{f"overflow n={n}": (n, 1e307) for n in PYTHON_SIZES},
}


class TestPythonLattice:
    @pytest.mark.parametrize("case", PYTHON_LATTICE_CASES)
    def test_matches_the_forward_oracle(self, case):
        # The forward pass writes _edge_term's expression out; the oracle
        # calls it, through the side's edge_terms.
        with computed_on("python"):
            check_lattice(lattice_case(PYTHON_LATTICE_CASES[case]))

    @pytest.mark.parametrize("n", PYTHON_SIZES)
    def test_witness_computes_at_most_the_quadratic_terms_without_ties(self, n):
        # The Python side's terms are lazy: the backtrack computes the terms
        # below each witness subset, highest element first, only until one
        # fits, from 1 to k at size k, and the evaluator the chain's n.
        for seed in (0, 1):
            computed = terms_computed(seeded_capacity(n, seed))
            assert n <= computed - n <= n * (n + 1) // 2, seed

    @pytest.mark.parametrize("n", PYTHON_SIZES)
    def test_witness_computes_one_term_per_step_when_all_tie(self, n):
        # Every subset of size k holds the same best, so the highest element
        # fits at once at every step: n terms, and n for the evaluator.
        assert terms_computed(Capacity.additive([1 / 3] * n)) == 2 * n


def terms_computed(mu) -> int:
    """The number of edge terms one exhaustive search computes on the
    Python side after the forward pass, which writes its terms out."""
    calls = 0

    def counted(d):
        nonlocal calls
        calls += 1
        return capacity._edge_term(d)

    with computed_on("python"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity._Python, "edge_terms", staticmethod(partial(map, counted)))
        capacity_entropy(mu, method="exhaustive")
    return calls


TIE_RULE_CASES = {
    "random": lambda: seeded_capacity(8, 0),
    "zero steps": lambda: seeded_capacity(8, 2, 0.5),
    **{f"all tie m={m:.3g}": partial(Capacity.additive, [m] * 8) for m in TIE_MASSES},
}


@pytest.mark.parametrize("case", TIE_RULE_CASES)
@pytest.mark.parametrize("side", SIDES)
def test_each_step_back_drops_the_highest_fitting_element(side, case):
    # The tie rule read against forward_oracle: going back along the
    # witness from the ground set, the element dropped at S is the highest
    # e whose fold best[S - {e}] + term reaches best[S].
    mu = TIE_RULE_CASES[case]()
    n = mu.ground_size
    with computed_on(side):
        edge_terms = capacity._side(n).edge_terms
        best = forward_oracle(mu, edge_terms)
        order = capacity_entropy(mu).argmin_chain.order
    masks = prefix_folds(mu, order, edge_terms)[0]
    for s, e in zip(masks[:0:-1], order[::-1]):
        fitting = [
            f for f in range(1, n + 1)
            if s >> f - 1 & 1
            and best[s ^ 1 << f - 1]
            + next(iter(edge_terms([mu.values[s] - mu.values[s ^ 1 << f - 1]])))
            == best[s]
        ]
        assert e == max(fitting), (side, s)


class TestNumpyLattice:
    @pytest.mark.parametrize("way", WAYS)
    @pytest.mark.parametrize("case", LATTICE_CASES)
    def test_matches_the_forward_oracle(self, case, way):
        with computed_on("numpy"), pytest.MonkeyPatch.context() as mp:
            for name, value in WAYS[way].items():
                mp.setattr(capacity_numpy, name, value)
            check_lattice(lattice_case(LATTICE_CASES[case]))

    @pytest.mark.parametrize("case", ["random n=10 seed=0", "all tie n=10 m=0.333"])
    def test_reads_each_cover_edge_once_and_the_witness_quadratically(self, case):
        # The forward pass reads each of the n 2^(n-1) cover edges once. The
        # backtrack reads the k edges below the witness's subset of each
        # size k, n(n+1)/2 in all, and the evaluator the chain's n edges,
        # tied or not.
        mu = lattice_case(LATTICE_CASES[case])
        n = mu.ground_size
        read = []
        original = capacity_numpy._edge_terms

        def counted(inc):
            read.append(inc.size)
            return original(inc)

        with computed_on("numpy"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(capacity_numpy, "_edge_terms", counted)
            capacity_entropy(mu)
        assert sum(read) == n * (1 << n - 1) + n * (n + 1) // 2 + n

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_matches_the_forward_oracle_in_default_blocks(self, case):
        spec = BLOCK_CASES[case]
        n = spec[0]
        assert math.comb(n, n // 2) * (n // 2) > capacity_numpy._BLOCK
        check_lattice(lattice_case(spec))


class TestCapacityEntropyReport:
    @pytest.mark.parametrize(
        "entropy, chain, examined, method, message",
        [
            (math.nan, MaximalChain((2, 1)), 2, "exhaustive", "entropy must be finite, got nan"),
            (-math.inf, MaximalChain((2, 1)), 2, "exhaustive", "entropy must be finite, got -inf"),
            (0.5, (2, 1), 2, "exhaustive", "argmin_chain must be a MaximalChain, got (2, 1)"),
            (0.5, MaximalChain((2, 1)), 2.0, "exhaustive",
             "chains_examined must be an integer, got 2.0"),
            (0.0, MaximalChain((1,)), 1, "bogus", "unknown method 'bogus'"),
        ],
    )
    def test_a_bad_field_is_named(self, entropy, chain, examined, method, message):
        with pytest.raises(InvalidInputError) as exc:
            CapacityEntropyReport(entropy, chain, examined, method)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "examined, message",
        [(1, "exhaustive search must examine all 2 chains"),
         (3, "exhaustive search must examine all 2 chains"),
         (-1, "chains_examined must be >= 0, got -1")],
    )
    def test_exhaustive_report_requires_full_count(self, examined, message):
        with pytest.raises(InvalidInputError) as exc:
            CapacityEntropyReport(
                entropy=0.5,
                argmin_chain=MaximalChain((1, 2)),
                chains_examined=examined,
                method="exhaustive",
            )
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "examined, message",
        [(0, "greedy search builds exactly one chain"),
         (2, "greedy search builds exactly one chain"),
         (-1, "chains_examined must be >= 0, got -1")],
    )
    def test_greedy_report_examines_one(self, examined, message):
        with pytest.raises(InvalidInputError) as exc:
            CapacityEntropyReport(
                entropy=0.5,
                argmin_chain=MaximalChain((1, 2)),
                chains_examined=examined,
                method="greedy",
            )
        assert str(exc.value) == message

    def test_valid_report(self):
        rep = CapacityEntropyReport(
            entropy=0.5,
            argmin_chain=MaximalChain((1, 2)),
            chains_examined=2,
            method="exhaustive",
        )
        assert rep.entropy == 0.5
