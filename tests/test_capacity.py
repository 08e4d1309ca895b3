import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graddiv import (
    Capacity,
    CapacityEntropyReport,
    InvalidInputError,
    MaximalChain,
    capacity_entropy,
    chain_divergence,
    enumerate_chains,
    partition_entropy,
)

from graddiv.capacity import _largest_prefix

from conftest import (
    additive_capacities,
    all_tie_capacities,
    capacities,
    monotone_capacity,
)

WORKED = Capacity(2, (0.0, 0.6, 0.7, 1.0))


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
        with pytest.raises(InvalidInputError):
            Capacity(1, (0.5, 1.0))

    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidInputError) as exc:
            Capacity(2, (0.0, 0.6, 0.7, 0.65))
        assert "monotone" in str(exc.value)

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidInputError):
            Capacity(1, (0.0, -0.5))

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
        # left to right, so the evaluator must too.
        mu = monotone_capacity(10, [0.3, 1.7, 0.02, 0.9, 0.0, 2.4, 0.55])
        for order in ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (10, 3, 7, 1, 9, 2, 8, 4, 6, 5)):
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

    def test_single_element_zero_mass(self):
        assert capacity_entropy(Capacity(1, (0.0, 0.0))).entropy == 0.0

    def test_tie_breaks_to_first_chain_in_order(self):
        rep2 = capacity_entropy(Capacity.additive((0.5, 0.5)), method="exhaustive")
        assert rep2.argmin_chain.order == (1, 2)
        rep3 = capacity_entropy(
            Capacity.additive((1 / 3, 1 / 3, 1 / 3)), method="exhaustive"
        )
        assert rep3.argmin_chain.order == (1, 2, 3)

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
        exhaustive = capacity_entropy(mu, method="exhaustive")
        greedy = capacity_entropy(mu, method="greedy")
        assert greedy.entropy >= exhaustive.entropy

    @given(capacities(max_n=4))
    def test_entropy_matches_argmin_chain(self, mu):
        for method in ("exhaustive", "greedy"):
            rep = capacity_entropy(mu, method=method)
            assert rep.entropy == chain_divergence(mu, rep.argmin_chain).value

    @settings(max_examples=25)
    @given(st.one_of(capacities(max_n=7), all_tie_capacities(max_n=7)))
    def test_exhaustive_is_true_minimum(self, mu):
        # The lattice search against the n! scan, bit for bit: the value is
        # the smallest chain divergence and the witness the first chain, in
        # enumerate_chains order, that reaches it.
        rep = capacity_entropy(mu, method="exhaustive")
        scan = [
            (chain_divergence(mu, ch).value, ch)
            for ch in enumerate_chains(mu.ground_size)
        ]
        lowest = min(v for v, _ in scan)
        assert rep.entropy == lowest
        assert rep.argmin_chain == next(ch for v, ch in scan if v == lowest)

    def test_prefix_one_ulp_worse_can_still_win(self):
        # Entering {1, 2} by (1, 2) costs one ulp more than by (2, 1), yet
        # both finish at the minimum, so the first minimizer is (1, 2, 3):
        # a witness read back from the best prefix at each subset would
        # start with 2.
        mu = Capacity.additive((0.1, 0.7, 0.2))
        sub = Capacity(2, mu.values[:4])
        assert (
            chain_divergence(sub, MaximalChain((1, 2))).value
            > chain_divergence(sub, MaximalChain((2, 1))).value
        )
        rep = capacity_entropy(mu, method="exhaustive")
        assert rep.argmin_chain.order == (1, 2, 3)
        assert rep.entropy == chain_divergence(mu, MaximalChain((2, 1, 3))).value

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


# Edge terms are finite or -inf (an overflowing -d ln d), and so are the
# bounds the lattice search asks about.
search_floats = st.floats(allow_nan=False).filter(lambda x: x != math.inf)


class TestLargestPrefix:
    @given(
        st.lists(st.tuples(search_floats, search_floats), min_size=1, max_size=8),
        st.lists(st.floats(-1e-12, 1e-12), min_size=8, max_size=8),
    )
    def test_is_the_largest_float_that_fits(self, pairs, nudges):
        # Half the bounds sit within a hair of the term, where the answer is
        # far below the term in magnitude.
        term = np.array([t for t, _ in pairs])
        bound = np.array(
            [b if k % 2 or not math.isfinite(t) else t + nudges[k]
             for k, (t, b) in enumerate(pairs)]
        )
        p = _largest_prefix(term, bound)
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.all(p + term <= bound)
            assert not np.any(np.nextafter(p, np.inf) + term <= bound)

    def test_special_values(self):
        term = np.array([-np.inf, -np.inf, 0.0, 1.0, 5e-324, 0.25])
        bound = np.array([-np.inf, 1.0, -np.inf, 1.0, 0.0, 0.25])
        p = _largest_prefix(term, bound)
        assert p[0] == p[1] == np.finfo(float).max  # -inf absorbs any finite p
        assert p[2] == -np.inf
        assert p[3] + 1.0 == 1.0 and np.nextafter(p[3], np.inf) + 1.0 > 1.0
        assert p[4] == -5e-324
        assert p[5] == 2.0**-55  # half an ulp of 0.25: the tie rounds to 0.25


class TestCapacityEntropyReport:
    def test_exhaustive_report_requires_full_count(self):
        with pytest.raises(InvalidInputError):
            CapacityEntropyReport(
                entropy=0.5,
                argmin_chain=MaximalChain((1, 2)),
                chains_examined=1,
                method="exhaustive",
            )

    def test_greedy_report_examines_one(self):
        with pytest.raises(InvalidInputError):
            CapacityEntropyReport(
                entropy=0.5,
                argmin_chain=MaximalChain((1, 2)),
                chains_examined=2,
                method="greedy",
            )

    def test_valid_report(self):
        rep = CapacityEntropyReport(
            entropy=0.5,
            argmin_chain=MaximalChain((1, 2)),
            chains_examined=2,
            method="exhaustive",
        )
        assert rep.entropy == 0.5
