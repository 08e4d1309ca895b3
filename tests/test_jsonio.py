import json
import math
import random
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graddiv import (
    Beta,
    Capacity,
    DivergenceResult,
    GradingSample,
    InvalidInputError,
    PiecewiseLinearCdf,
    Power,
    ProbabilityVector,
    QuadratureSpec,
    Triangular,
    TruncatedNormal,
    Uniform,
    capacity_entropy,
)
from graddiv import jsonio
from graddiv.jsonio import (
    canonical_dumps,
    capacity_from_doc,
    capacity_report_to_doc,
    capacity_to_doc,
    continuous_grading_from_doc,
    continuous_grading_to_doc,
    detect_schema,
    divergence_result_to_doc,
    grading_sample_from_doc,
    grading_sample_to_doc,
    load_json,
    masses_from_doc,
    masses_to_doc,
    parse_document,
    quadrature_spec_from_doc,
    quadrature_spec_to_doc,
    weights_from_doc,
    weights_to_doc,
)


class TestCanonicalDumps:
    def test_keys_sorted_and_compact(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_floats_survive_round_trip(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 1e300, 6.02e23, -5.5):
            assert load_json(canonical_dumps(x)) == x

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_float_round_trips(self, x):
        assert load_json(canonical_dumps(x)) == x

    def test_negative_zero_normalized(self):
        assert canonical_dumps(-0.0) == "0"
        assert canonical_dumps([-0.0, 0.0]) == "[0,0]"

    def test_integral_floats_shed_their_point(self):
        assert canonical_dumps(1.0) == "1"
        assert canonical_dumps(2.5) == "2.5"

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                canonical_dumps(bad)

    def test_non_string_keys_rejected(self):
        with pytest.raises(InvalidInputError):
            canonical_dumps({1: "a"})
        # named before the keys are sorted, which mixed types would break
        with pytest.raises(InvalidInputError, match=r"^object keys must be strings, got 1$"):
            canonical_dumps({1: 2, "a": 3})

    def test_unsupported_type_rejected(self):
        with pytest.raises(InvalidInputError):
            canonical_dumps({"a": {1, 2}})

    def test_bool_and_null(self):
        assert canonical_dumps({"t": True, "f": False, "n": None}) == (
            '{"f":false,"n":null,"t":true}'
        )

    def test_deterministic_bytes(self):
        doc = {"z": [1.5, 2], "a": {"y": 0.25, "x": "s"}}
        assert canonical_dumps(doc) == canonical_dumps(doc)

    # Any code point, lone surrogates and control characters included, with
    # the characters JSON escapes drawn often.
    @given(
        st.text(
            st.characters(exclude_categories=())
            | st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028\ud800\udfff\U0001f600')
        )
    )
    def test_strings_render_as_json_dumps_does(self, s):
        quoted = json.dumps(s, ensure_ascii=True)
        assert canonical_dumps(s) == quoted
        assert canonical_dumps([s]) == f"[{quoted}]"
        assert canonical_dumps({s: 1}) == f"{{{quoted}:1}}"


def _reference_dumps(obj) -> str:
    """Canonical form written one element at a time, for the cases below."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvalidInputError(
                f"non-finite number {obj!r} cannot be serialized as a JSON float"
            )
        return format(obj if obj else 0.0, ".17g")
    if isinstance(obj, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{_reference_dumps(obj[k])}" for k in sorted(obj)
        ) + "}"
    return "[" + ",".join(map(_reference_dumps, obj)) + "]"


class _Float(float):
    pass


# Every finite double is equally likely to be drawn by its bit pattern, so
# subnormals and huge exponents appear; the edges are added by name.
_bit_floats = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
).filter(math.isfinite)
_edge_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.min,
     1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, -2.0]
)
_finite_floats = st.one_of(_bit_floats, _edge_floats)
_float_lists = st.lists(_finite_floats, max_size=40)


class TestCanonicalArrays:
    """Arrays of exact floats take a one-call path; everything else is
    written element by element. Both must give the reference bytes."""

    @given(_float_lists)
    def test_float_lists_match_the_reference(self, values):
        assert canonical_dumps(values) == _reference_dumps(values)
        assert canonical_dumps(tuple(values)) == _reference_dumps(values)
        assert canonical_dumps({"grades": values}) == _reference_dumps({"grades": values})

    @given(st.lists(st.one_of(
        _finite_floats,
        st.integers(-10**30, 10**30),
        st.booleans(),
        _finite_floats.map(_Float),
        _float_lists,
    ), max_size=20))
    def test_mixed_lists_match_the_reference(self, values):
        assert canonical_dumps(values) == _reference_dumps(values)

    @given(_float_lists, _float_lists, st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_first_non_finite_element_is_named(self, head, tail, bad):
        values = head + [bad] + tail + [math.nan]
        with pytest.raises(InvalidInputError) as err:
            canonical_dumps(values)
        assert str(err.value) == (
            f"non-finite number {bad!r} cannot be serialized as a JSON float"
        )

    def test_non_finite_messages(self):
        for values, message in [
            ([1.0, math.inf, math.nan], "non-finite number inf cannot be serialized as a JSON float"),
            ((math.nan,), "non-finite number nan cannot be serialized as a JSON float"),
            ([0.5, -math.inf], "non-finite number -inf cannot be serialized as a JSON float"),
        ]:
            with pytest.raises(InvalidInputError) as err:
                canonical_dumps(values)
            assert str(err.value) == message

    def test_extremes_and_signed_zero(self):
        assert canonical_dumps([-0.0, 5e-324, 1.7976931348623157e308, -1.0]) == (
            "[0,4.9406564584124654e-324,1.7976931348623157e+308,-1]"
        )
        assert canonical_dumps([]) == "[]"
        assert canonical_dumps(()) == "[]"

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * jsonio._FLOAT_CHUNK + 3])
    def test_arrays_across_chunk_boundaries_match_the_reference(self, extra):
        chunk = jsonio._FLOAT_CHUNK
        rng = random.Random(extra)
        values = []
        while len(values) < chunk + extra:
            x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            if math.isfinite(x):
                values.append(x)
        for i in (0, chunk - 1, chunk, len(values) - 1):
            if i < len(values):
                values[i] = -0.0
        assert canonical_dumps(values) == _reference_dumps(values)
        assert canonical_dumps({"grades": tuple(values)}) == _reference_dumps({"grades": values})

    def test_non_finite_element_in_a_later_chunk_is_named(self):
        chunk = jsonio._FLOAT_CHUNK
        values = [0.5] * (3 * chunk)
        values[chunk + 7] = -math.inf
        values[2 * chunk] = math.nan
        with pytest.raises(InvalidInputError) as err:
            canonical_dumps(values)
        assert str(err.value) == "non-finite number -inf cannot be serialized as a JSON float"

    def test_large_array_holds_about_two_copies_of_its_text(self):
        # The chunks and the joined document; the one-call rendering held a
        # third, growing copy in the formatter and an argument tuple besides.
        rng = random.Random(1)
        doc = {"grades": [rng.uniform(0.0, 1e5) for _ in range(100_000)]}
        text = canonical_dumps(doc)
        tracemalloc.start()
        try:
            canonical_dumps(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * len(text)


class TestLoadJson:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(InvalidInputError):
            load_json('{"a":1,"a":2}')

    @pytest.mark.parametrize(
        "text, key",
        [
            # the 257th key of an n = 8 capacity repeats an earlier one
            (
                canonical_dumps(capacity_to_doc(Capacity.additive([0.125] * 8)))[:-2]
                + ',"3,5":0.25}}',
                "3,5",
            ),
            ('{"a":{"b":1,"c":{"d":2,"d":3}},"e":4}', "d"),
            # the first repeat in document order, not the first key repeated
            ('{"x":1,"y":2,"y":3,"x":4}', "y"),
            ('{"x":1,"y":2,"x":3,"y":4}', "x"),
        ],
        ids=["257th key", "nested", "y repeats first", "x repeats first"],
    )
    def test_first_duplicate_key_is_named(self, text, key):
        with pytest.raises(InvalidInputError) as exc:
            load_json(text)
        assert str(exc.value) == f"duplicate object key {key!r}"

    def test_non_finite_literals_rejected(self):
        for text in ('{"a":NaN}', '{"a":Infinity}', '{"a":-Infinity}'):
            with pytest.raises(InvalidInputError):
                load_json(text)

    def test_integer_literal_past_digit_limit_rejected(self):
        with pytest.raises(InvalidInputError) as exc:
            load_json("[1" + "0" * (sys.get_int_max_str_digits() + 1) + "]")
        assert "digits" in str(exc.value)

    def test_deep_nesting_rejected(self):
        with pytest.raises(InvalidInputError) as exc:
            load_json("[" * 100_000 + "]" * 100_000)
        assert "nest too deeply" in str(exc.value)

    def test_malformed_text_rejected(self):
        with pytest.raises(InvalidInputError):
            load_json("{not json")


class TestGradingSampleDocs:
    def test_round_trip(self):
        s = GradingSample((0.0, 0.5, 1.0), labels=("x", "y", "z"))
        doc = load_json(canonical_dumps(grading_sample_to_doc(s)))
        assert grading_sample_from_doc(doc) == s

    def test_labels_optional(self):
        assert grading_sample_from_doc({"grades": [0, 1]}) == GradingSample((0.0, 1.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            grading_sample_from_doc({"grades": [0, 1], "bogus": 1})

    def test_non_list_grades_rejected(self):
        with pytest.raises(InvalidInputError):
            grading_sample_from_doc({"grades": "0,1"})

    @pytest.mark.parametrize(
        "grades, message",
        [
            ([0, 1.5, "x", None], "grades[2] must be a number, got 'x'"),
            ([0.0, True, 2.0], "grades[1] must be a number, got True"),
            ([0.0, 1.0, None], "grades[2] must be a number, got None"),
        ],
    )
    def test_first_non_number_is_named(self, grades, message):
        with pytest.raises(InvalidInputError) as exc:
            grading_sample_from_doc({"grades": grades})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "grades, message",
        [
            # a grade that is no number is named before the labels
            ([0, "x", 2], "grades[1] must be a number, got 'x'"),
            ([0, 1, 10**400], "grades[2] is out of float range"),
            # the labels before the order of the grades
            ([0, 2, 1], "labels must be an array of strings"),
        ],
    )
    def test_grades_and_labels_faults_in_order(self, grades, message):
        with pytest.raises(InvalidInputError) as exc:
            grading_sample_from_doc({"grades": grades, "labels": [1, 2, 3]})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "labels, message",
        [
            (None, "labels must be an array of strings"),
            ("ab", "labels must be an array, got str"),
            ({"a": 0, "b": 1}, "labels must be an array, got dict"),
            (["a", 2], "labels must be an array of strings"),
        ],
        ids=["None", "ab", "labels2", "labels3"],
    )
    def test_labels_not_an_array_of_strings(self, labels, message):
        with pytest.raises(InvalidInputError) as exc:
            grading_sample_from_doc({"grades": [0, 1], "labels": labels})
        assert str(exc.value) == message

    def test_integer_beyond_float_range_is_named(self):
        huge = 10**400
        with pytest.raises(InvalidInputError) as exc:
            grading_sample_from_doc({"grades": [0, huge, 1]})
        assert str(exc.value) == "grades[1] is out of float range"
        with pytest.raises(InvalidInputError) as exc:
            weights_from_doc({"weights": [0.5, -huge]})
        assert str(exc.value) == "weights[1] is out of float range"
        with pytest.raises(InvalidInputError) as exc:
            masses_from_doc({"masses": [huge]})
        assert str(exc.value) == "masses[0] is out of float range"
        with pytest.raises(InvalidInputError) as exc:
            continuous_grading_from_doc(
                {"family": "beta", "params": {"alpha": huge, "beta": 2}, "support": [0, 1]}
            )
        assert str(exc.value) == "alpha is out of float range"
        with pytest.raises(InvalidInputError) as exc:
            quadrature_spec_from_doc({"abs_tol": huge})
        assert str(exc.value) == "abs_tol is out of float range"

    def test_int_and_float_subclasses_are_numbers(self):
        sample = grading_sample_from_doc({"grades": [0, np.float64(0.5), 1.0]})
        assert sample.grades == (0.0, 0.5, 1.0)
        assert all(type(g) is float for g in sample.grades)


class TestWeightAndMassDocs:
    def test_weights_round_trip(self):
        v = ProbabilityVector((0.25, 0.75))
        assert weights_from_doc(weights_to_doc(v)) == v

    def test_masses_round_trip(self):
        assert masses_from_doc(masses_to_doc((2.0, 0.5))) == (2.0, 0.5)

    def test_weights_validated(self):
        with pytest.raises(InvalidInputError):
            weights_from_doc({"weights": [0.25, 0.25]})


DROP = object()


class CountingLookups(dict):
    """A values object that counts the lookups made into it by key."""

    def __init__(self, items):
        super().__init__(items)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class TestCapacityDocs:
    def test_round_trip(self):
        mu = Capacity(2, (0.0, 0.6, 0.7, 1.0))
        doc = load_json(canonical_dumps(capacity_to_doc(mu)))
        assert capacity_from_doc(doc) == mu

    def test_subset_keys_are_sorted_element_lists(self):
        doc = capacity_to_doc(Capacity(2, (0.0, 0.6, 0.7, 1.0)))
        assert set(doc["values"]) == {"", "1", "2", "1,2"}

    def test_empty_set_key_is_empty_string(self):
        mu = capacity_from_doc(
            {"ground_size": 1, "values": {"": 0.0, "1": 1.0}}
        )
        assert mu.values == (0.0, 1.0)

    def test_missing_subset_named_in_error(self):
        with pytest.raises(InvalidInputError) as exc:
            capacity_from_doc({"ground_size": 2, "values": {"": 0.0, "1": 0.5}})
        assert "2" in str(exc.value)

    def test_unsorted_subset_key_rejected(self):
        with pytest.raises(InvalidInputError):
            capacity_from_doc(
                {
                    "ground_size": 2,
                    "values": {"": 0.0, "1": 0.5, "2": 0.6, "2,1": 1.0},
                }
            )

    def test_padded_element_rejected(self):
        with pytest.raises(InvalidInputError):
            capacity_from_doc({"ground_size": 1, "values": {"": 0.0, "01": 1.0}})

    def test_element_beyond_ground_rejected(self):
        with pytest.raises(InvalidInputError):
            capacity_from_doc(
                {"ground_size": 1, "values": {"": 0.0, "1": 0.5, "2": 1.0}}
            )

    def test_ground_size_must_be_integer(self):
        with pytest.raises(InvalidInputError):
            capacity_from_doc({"ground_size": True, "values": {"": 0.0, "1": 1.0}})

    def test_subset_keys_match_mask_keys(self):
        from graddiv.capacity import _mask_key
        from graddiv.jsonio import _subset_keys

        assert _subset_keys(10) == tuple(_mask_key(m) for m in range(1 << 10))

    def test_values_are_read_in_mask_order(self):
        from graddiv.jsonio import _subset_keys

        n = 5
        values = tuple(bin(m).count("1") / n for m in range(1 << n))
        doc = load_json(canonical_dumps(capacity_to_doc(Capacity(n, values))))
        # canonical documents list the keys sorted, not in mask order
        assert list(doc["values"]) == sorted(doc["values"]) != list(_subset_keys(n))
        assert capacity_from_doc(doc).values == values

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("order", ["mask", "reversed", "shuffled", "sorted"])
    def test_key_orders_read_alike(self, n, order):
        # A mask-ordered document is read in document order, with no key
        # lookups; any other order looks up each subset's key.
        mu = Capacity.additive(random.Random(n).choices([0.0, 0.25, 1 / 3, 2.0], k=n))
        items = list(capacity_to_doc(mu)["values"].items())
        if order == "reversed":
            items.reverse()
        elif order == "shuffled":
            random.Random(0).shuffle(items)
        elif order == "sorted":
            items.sort()
        values = CountingLookups(items)
        assert capacity_from_doc({"ground_size": n, "values": values}) == mu
        assert values.lookups == (0 if order == "mask" else 1 << n)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"1,2": "0.5"}, "values['1,2'] must be a number, got '0.5'"),
            ({"1,2": None}, "values['1,2'] must be a number, got None"),
            ({"3": True}, "values['3'] must be a number, got True"),
            ({"3": 10**400}, "values['3'] is out of float range"),
            ({"1,3": ("3,1", 0.5)}, "subset key '3,1' must list elements in strictly increasing order"),
            ({"1,3": ("4", 0.5)}, "subset key '4' names element 4 beyond ground size 3"),
            ({"1,2,3": DROP}, "values must cover every subset; 1 missing (1,2,3)"),
            ({"1": -0.5}, "subset values must be finite and >= 0, got -0.5"),
            ({"2": 0.9}, "capacity is not monotone: value({2})=0.9 > value({1,2})=0.5"),
        ],
        ids=["string", "null", "bool", "beyond float range", "unsorted key",
             "element beyond ground", "missing key", "negative", "not monotone"],
    )
    def test_faults_of_a_mask_ordered_document_are_named(self, change, message):
        # Each edit keeps the other keys in mask order: a new value, a
        # (key, value) pair in place of the entry, or DROP to leave it out.
        values = {}
        for key, value in capacity_to_doc(Capacity.additive([0.25] * 3))["values"].items():
            edit = change.get(key, value)
            if edit is DROP:
                continue
            if isinstance(edit, tuple):
                key, edit = edit
            values[key] = edit
        with pytest.raises(InvalidInputError) as exc:
            capacity_from_doc({"ground_size": 3, "values": values})
        assert str(exc.value) == message

    def test_duplicate_key_of_a_mask_ordered_document_is_named(self):
        # the count is right, but "2,3" stands where "1,2,3" belongs
        doc = capacity_to_doc(Capacity.additive([0.25] * 3))
        text = json.dumps(doc).replace('"1,2,3"', '"2,3"')
        with pytest.raises(InvalidInputError) as exc:
            capacity_from_doc(load_json(text))
        assert str(exc.value) == "duplicate object key '2,3'"

    def test_key_tables_are_kept_only_below_the_numpy_side(self):
        from graddiv.capacity import _NUMPY_FROM
        from graddiv.jsonio import _cached_key_table, _subset_keys

        assert _subset_keys(_NUMPY_FROM - 1) is _subset_keys(_NUMPY_FROM - 1)
        kept = _cached_key_table.cache_info().currsize
        mu = Capacity.additive([0.5] * _NUMPY_FROM)
        assert capacity_from_doc(capacity_to_doc(mu)) == mu
        assert _cached_key_table.cache_info().currsize == kept
        assert _subset_keys(_NUMPY_FROM) is not _subset_keys(_NUMPY_FROM)

    def test_value_beyond_float_range_is_named(self):
        with pytest.raises(InvalidInputError) as exc:
            capacity_from_doc({"ground_size": 1, "values": {"": 0, "1": 10**400}})
        assert str(exc.value) == "values['1'] is out of float range"

    @pytest.mark.parametrize(
        "n, message",
        [
            (40, "values must cover every subset; 1099511627775 missing (1, 2, 1,2, 3, ...)"),
            (62, "values must cover every subset; 4611686018427387903 missing (1, 2, 1,2, 3, ...)"),
            (63, "ground_size must be in 1..62, got 63"),
            (10**30, f"ground_size must be in 1..62, got {10**30}"),
        ],
        ids=["40", "62", "63", "1e30"],
    )
    def test_huge_ground_size_rejected_without_allocating(self, n, message):
        with pytest.raises(InvalidInputError) as exc:
            capacity_from_doc({"ground_size": n, "values": {"": 0}})
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "n, values, message",
        [
            (2, {"": 0.0, "1": 0.5, "2": 0.6, "2,1": 1.0},
             "subset key '2,1' must list elements in strictly increasing order"),
            (1, {"": 0.0, "01": 1.0},
             "subset key '01' is not a comma-separated list of elements"),
            (2, {"": 0.0, "1": 0.5, " 2": 0.6, "1,2": 1.0},
             "subset key ' 2' is not a comma-separated list of elements"),
            (2, {"": 0.0, "0": 0.5, "2": 0.6, "1,2": 1.0},
             "subset key '0' is not a comma-separated list of elements"),
            (1, {"": 0.0, "a": 1.0},
             "subset key 'a' is not a comma-separated list of elements"),
            (2, {"": 0.0, "1": 0.5, "1,x": 0.6, "2": 1.0},
             "subset key '1,x' is not a comma-separated list of elements"),
            (1, {"": 0.0, "1": 0.5, "2": 1.0},
             "subset key '2' names element 2 beyond ground size 1"),
            (2, {"": 0.0, "1": 0.5, "2": 0.6, "1,2": 1.0, "3": 1.0},
             "subset key '3' names element 3 beyond ground size 2"),
            (2, {"": 0.0, "1": 0.5}, "values must cover every subset; 2 missing (2, 1,2)"),
            (4, {"": 0.0, "1": 0.5},
             "values must cover every subset; 14 missing (2, 1,2, 3, 1,3, ...)"),
            (3, {"": 0.0, "1": 0.1, "2": 0.2, "3": 0.3, "1,2": 0.4, "1,3": 0.5, "2,3": 0.6},
             "values must cover every subset; 1 missing (1,2,3)"),
            (2, {"": 0.0, "1": "0.5", "2": 0.6, "1,2": 1.0},
             "values['1'] must be a number, got '0.5'"),
            # the first bad entry in document order is named, key or value
            (2, {"": 0.0, "1": None, "x": 0.6, "1,2": 1.0},
             "values['1'] must be a number, got None"),
            (2, {"": 0.0, "1,1": 0.5, "2": True, "1,2": 1.0},
             "subset key '1,1' must list elements in strictly increasing order"),
            # an array of values is left out: it may come to mean mask order
            (1, 0.5, "values must be an object keyed by subset"),
            (1, "01", "values must be an object keyed by subset"),
            (1, None, "values must be an object keyed by subset"),
        ],
    )
    def test_first_bad_entry_is_named(self, n, values, message):
        with pytest.raises(InvalidInputError) as exc:
            capacity_from_doc({"ground_size": n, "values": values})
        assert str(exc.value) == message


class TestContinuousGradingDocs:
    FAMILIES = [
        Uniform(0.0, 1.0),
        Triangular(0.0, 0.25, 1.0),
        Beta(2.0, 2.0),
        Beta(2.0, 5.0, a=-1.0, b=3.0),
        TruncatedNormal(0.0, 1.0, -1.0, 2.0),
        Power(2.0),
        PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5), (3.0, 1.0))),
    ]

    def test_round_trip_every_family(self):
        for F in self.FAMILIES:
            doc = load_json(canonical_dumps(continuous_grading_to_doc(F)))
            assert continuous_grading_from_doc(doc) == F

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError):
            continuous_grading_from_doc(
                {"family": "cauchy", "support": [0, 1], "params": {}}
            )

    def test_missing_param_rejected(self):
        with pytest.raises(InvalidInputError):
            continuous_grading_from_doc(
                {"family": "beta", "support": [0, 1], "params": {"alpha": 2.0}}
            )

    def test_extra_param_rejected(self):
        with pytest.raises(InvalidInputError):
            continuous_grading_from_doc(
                {"family": "uniform", "support": [0, 1], "params": {"p": 1.0}}
            )

    def test_support_must_match_piecewise_knots(self):
        with pytest.raises(InvalidInputError):
            continuous_grading_from_doc(
                {
                    "family": "piecewise_linear_cdf",
                    "support": [0, 5],
                    "params": {"knots": [[0, 0], [3, 1]]},
                }
            )

    def test_support_needs_two_numbers(self):
        with pytest.raises(InvalidInputError):
            continuous_grading_from_doc(
                {"family": "uniform", "support": [0], "params": {}}
            )


_KNOWN = "(known: beta, piecewise_linear_cdf, power, triangular, truncated_normal, uniform)"
_BETA = {"alpha": 2.0, "beta": 5.0}
_KNOTS = "piecewise_linear_cdf"


def _grading(family, params, support=(0, 1)):
    return {"family": family, "params": params, "support": list(support)}


# Every way a continuous_grading document can be refused, with its message;
# the messages are part of the CLI output.
_REFUSALS = [
    ([1, 2], "continuous_grading document must be a JSON object"),
    ("beta", "continuous_grading document must be a JSON object"),
    ({"family": "beta", "params": _BETA},
     "continuous_grading document is missing keys ['support']"),
    ({"params": {}, "support": [0, 1], "x": 1},
     "continuous_grading document is missing keys ['family']"),
    ({**_grading("beta", _BETA), "x": 1}, "continuous_grading document has unknown keys ['x']"),
    # as many keys as required, one misspelt
    ({"family": "beta", "params": _BETA, "suport": [0, 1]},
     "continuous_grading document is missing keys ['support']"),
    (_grading("gamma", {}), f"unknown family 'gamma' {_KNOWN}"),
    (_grading(3, {}), f"unknown family 3 {_KNOWN}"),
    (_grading(None, {}), f"unknown family None {_KNOWN}"),
    (_grading("beta", _BETA, (0, 1, 2)), "support length must be 2, got 3"),
    ({**_grading("beta", _BETA), "support": "x"}, "support must be an array, got str"),
    (_grading("beta", _BETA, (0, True)), "support[1] must be a number, got True"),
    (_grading("beta", _BETA, (0, "1")), "support[1] must be a number, got '1'"),
    (_grading("beta", _BETA, (0, 10**400)), "support[1] is out of float range"),
    (_grading("uniform", {}, (0, math.inf)), "support endpoints must be finite, got [0.0, inf]"),
    (_grading("beta", [2, 5]), "beta params document must be a JSON object"),
    (_grading("uniform", []), "uniform params document must be a JSON object"),
    (_grading("beta", {"alpha": 2.0}), "beta params document is missing keys ['beta']"),
    (_grading("beta", {**_BETA, "gamma": 1}), "beta params document has unknown keys ['gamma']"),
    (_grading("beta", {"alpha": "2", "beta": 5.0}), "alpha must be a number, got '2'"),
    (_grading("beta", {"alpha": 2, "beta": False}), "beta must be a number, got False"),
    (_grading("beta", {"alpha": "x", "beta": "y"}), "alpha must be a number, got 'x'"),
    (_grading("beta", {"alpha": 10**400, "beta": 1}), "alpha is out of float range"),
    (_grading("beta", {"alpha": -1, "beta": 1}),
     "alpha must be finite and > 0, got -1.0"),
    (_grading("beta", {"alpha": 1, "beta": 1}, (1, 0)), "support must satisfy a < b, got [1.0, 0.0]"),
    (_grading("beta", {"alpha": -1, "beta": 1}, (1, 0)),
     "support must satisfy a < b, got [1.0, 0.0]"),
    (_grading("uniform", {"a": 1}), "uniform params document has unknown keys ['a']"),
    (_grading("uniform", {}, (0, 0)), "support must satisfy a < b, got [0.0, 0.0]"),
    (_grading("triangular", {"c": 2}), "mode must satisfy a <= c <= b, got c=2.0"),
    (_grading("triangular", {"c": 5}, (1, 0)), "support must satisfy a < b, got [1.0, 0.0]"),
    (_grading("triangular", {"c": None}), "c must be a number, got None"),
    (_grading("triangular", {}), "triangular params document is missing keys ['c']"),
    (_grading("truncated_normal", {"mu": 0, "sigma": 0}),
     "sigma must be finite and > 0, got 0.0"),
    (_grading("truncated_normal", {"mu": "a", "sigma": "b"}), "mu must be a number, got 'a'"),
    (_grading("truncated_normal", {"mu": 0, "sigma": "s"}), "sigma must be a number, got 's'"),
    (_grading("truncated_normal", {"mu": 0, "sigma": 1}, (60, 61)),
     "the interval carries no normal mass at this mu/sigma (truncation window too deep in a tail)"),
    (_grading("truncated_normal", {"sigma": 1}),
     "truncated_normal params document is missing keys ['mu']"),
    (_grading("power", {"p": 0}), "p must be finite and > 0, got 0.0"),
    (_grading("power", {"p": -1}, (0, 0)), "support must satisfy a < b, got [0.0, 0.0]"),
    (_grading("power", {"p": [1]}), "p must be a number, got [1]"),
    (_grading("power", {"q": 1}), "power params document is missing keys ['p']"),
    (_grading(_KNOTS, {"knots": [[0, 0], [1, 1]]}, (0, 2)),
     "support [0.0, 2.0] disagrees with knot endpoints (0.0, 1.0)"),
    (_grading(_KNOTS, {"knots": "x"}), "knots must be an array, got str"),
    (_grading(_KNOTS, {"knots": [[0, 0], [1]]}), "knots[1] length must be 2, got 1"),
    (_grading(_KNOTS, {"knots": [[0, 0], 1]}), "knots[1] must be an array, got int"),
    (_grading(_KNOTS, {"knots": [[0, 0]]}, (0, 0)), "knots length must be >= 2, got 1"),
    (_grading(_KNOTS, {"knots": []}), "knots length must be >= 2, got 0"),
    (_grading(_KNOTS, {"knots": [[0, 0], [0, 1]]}, (0, 0)),
     "knot x must be strictly increasing: knot x[1]=0.0 <= knot x[0]=0.0"),
    (_grading(_KNOTS, {"knots": [[0, 0], [1, math.inf]]}), "knot y must be finite, got inf"),
    (_grading(_KNOTS, {}), "piecewise_linear_cdf params document is missing keys ['knots']"),
    (_grading(_KNOTS, {"knots": [[0, "a"], [1, 1]]}),
     "knots[0][1] must be a number, got 'a'"),
    # the family-by-family reader raised TypeError on these
    (_grading(["beta"], {}), f"unknown family ['beta'] {_KNOWN}"),
    (_grading({"a": 1}, {}), f"unknown family {{'a': 1}} {_KNOWN}"),
    # a width beyond double range
    (_grading("triangular", {"c": 0.5}, (-1e308, 1e308)),
     "support [-1e+308, 1e+308] overflows: its width is not a finite double"),
    (_grading(_KNOTS, {"knots": [[-1e308, 0], [1e308, 1]]}, (-1e308, 1e308)),
     "support [-1e+308, 1e+308] overflows: its width is not a finite double"),
    (_grading(_KNOTS, {"knots": [[0, -1e308], [1, 1e308]]}),
     "grade span [-1e+308, 1e+308] overflows: its width is not a finite double"),
]


class TestContinuousGradingRefusals:
    @pytest.mark.parametrize("doc, message", _REFUSALS)
    def test_message(self, doc, message):
        with pytest.raises(InvalidInputError) as info:
            continuous_grading_from_doc(doc)
        assert str(info.value) == message


class TestQuadratureSpecDocs:
    def test_defaults_fill_in(self):
        assert quadrature_spec_from_doc({}) == QuadratureSpec()

    def test_round_trip(self):
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7, max_depth=40)
        doc = load_json(canonical_dumps(quadrature_spec_to_doc(spec)))
        assert quadrature_spec_from_doc(doc) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            quadrature_spec_from_doc({"abs_tol": 1e-9, "nodes": 7})
        with pytest.raises(InvalidInputError, match=r"unknown keys \['endpoint_margin'\]"):
            quadrature_spec_from_doc({"endpoint_margin": 0.1})

    def test_first_bad_key_named_in_field_order(self):
        with pytest.raises(InvalidInputError, match="^abs_tol must be a number"):
            quadrature_spec_from_doc({"max_depth": 2.5, "rel_tol": "r", "abs_tol": "a"})
        with pytest.raises(InvalidInputError, match="^rel_tol must be a number"):
            quadrature_spec_from_doc({"max_depth": 2.5, "rel_tol": "r"})


class TestResultDocs:
    def test_finite_result_has_exactly_four_fields(self):
        doc = divergence_result_to_doc(
            DivergenceResult(value=-0.5, terms_used=3, dropped_mass=0.0)
        )
        assert set(doc) == {"value", "terms_used", "dropped_mass", "flags"}
        assert doc["value"] == -0.5
        assert doc["flags"] == []

    def test_negative_infinity_serialized_as_string(self):
        from graddiv import NEGATIVE_INFINITY

        doc = divergence_result_to_doc(
            DivergenceResult(
                value=-math.inf,
                terms_used=1,
                dropped_mass=0.5,
                flags=frozenset({NEGATIVE_INFINITY}),
            )
        )
        assert doc["value"] == "-inf"
        assert doc["flags"] == ["negative_infinity"]
        assert '"-inf"' in canonical_dumps(doc)

    def test_capacity_report_doc(self):
        rep = capacity_entropy(Capacity(2, (0.0, 0.6, 0.7, 1.0)))
        doc = capacity_report_to_doc(rep)
        assert set(doc) == {"entropy", "argmin_chain", "chains_examined", "method"}
        assert doc["argmin_chain"] == [2, 1]
        assert doc["method"] == "exhaustive"


class TestSchemaDetection:
    CASES = [
        ({"grades": [0, 1]}, "grading_sample"),
        ({"weights": [0.5, 0.5]}, "weights"),
        ({"masses": [2.0, 0.5]}, "masses"),
        ({"ground_size": 1, "values": {"": 0.0, "1": 1.0}}, "capacity"),
        ({"family": "uniform", "support": [0, 1], "params": {}}, "continuous_grading"),
        ({"abs_tol": 1e-9}, "quadrature_spec"),
        ({"max_depth": 5}, "quadrature_spec"),
    ]

    def test_detection_and_parse(self):
        for doc, expected in self.CASES:
            assert detect_schema(doc) == expected
            schema, obj = parse_document(doc)
            assert schema == expected
            assert obj is not None

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"abs_tol": 1e-9, "x": 1}, "quadrature_spec document has unknown keys ['x']"),
            ({"labels": ["a"]}, "grading_sample document is missing keys ['grades']"),
            ({"labels": ["a"], "weights": [1.0]},
             "grading_sample document is missing keys ['grades']"),
            ({"params": {}}, "continuous_grading document is missing keys ['family', 'support']"),
            ({"support": [0, 1]},
             "continuous_grading document is missing keys ['family', 'params']"),
            ({"values": {}, "abs_tol": 1e-9}, "capacity document is missing keys ['ground_size']"),
            # str keys in their order, then any other key
            ({"weights": [1.0], 1: 2, "x": 3}, "weights document has unknown keys ['x', 1]"),
        ],
    )
    def test_a_shared_key_names_the_schema(self, doc, message):
        with pytest.raises(InvalidInputError) as exc:
            parse_document(doc)
        assert str(exc.value) == message

    def test_non_object_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_schema([1, 2, 3])

    def test_unrecognized_keys_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_schema({"spam": 1})

    def test_empty_object_rejected(self):
        with pytest.raises(InvalidInputError, match="^document matches no known schema"):
            detect_schema({})
