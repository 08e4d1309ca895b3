"""The contract of the fifteen public value classes: immutable records whose
repr, equality, hash, constructor signature, pickling and copying are the
same whatever machinery defines them."""

import ast
import copy
import importlib
import inspect
import pickle
from pathlib import Path

import pytest

import graddiv
from graddiv import (
    Beta,
    Capacity,
    CapacityEntropyReport,
    DivergenceResult,
    GradingSample,
    IncrementPair,
    MaximalChain,
    PiecewiseLinearCdf,
    Power,
    ProbabilityVector,
    QuadratureOutcome,
    QuadratureSpec,
    Triangular,
    TruncatedNormal,
    Uniform,
)
from graddiv.ordered import _Record

_CHAIN = MaximalChain((2, 1))

# cls: (field names, defaults of the trailing fields, a record given with
# floats, the same fields given as ints or in another equal form, its repr)
RECORDS = {
    GradingSample: (
        ("grades", "labels"), (None,),
        ((0.0, 1.0, 3.0), ("x", "y", "z")), ([0, 1, 3], ["x", "y", "z"]),
        "GradingSample(grades=(0.0, 1.0, 3.0), labels=('x', 'y', 'z'))",
    ),
    IncrementPair: (
        ("delta_g", "delta_f"), (),
        (1.0, 2.0), (1, 2),
        "IncrementPair(delta_g=1.0, delta_f=2.0)",
    ),
    ProbabilityVector: (
        ("weights",), (),
        ((0.25, 0.75),), ([0.25, 0.75],),
        "ProbabilityVector(weights=(0.25, 0.75))",
    ),
    DivergenceResult: (
        ("value", "terms_used", "dropped_mass", "error_estimate", "flags"),
        (0.0, 0.0, frozenset()),
        (1.5, 3, 0.25, 1e-9, frozenset({"empty"})), (1.5, 3, 0.25, 1e-9, {"empty"}),
        "DivergenceResult(value=1.5, terms_used=3, dropped_mass=0.25, "
        "error_estimate=1e-09, flags=frozenset({'empty'}))",
    ),
    Capacity: (
        ("ground_size", "values"), (),
        (2, (0.0, 0.6, 0.7, 1.0)), (2, [0, 0.6, 0.7, 1]),
        "Capacity(ground_size=2, values=(0.0, 0.6, 0.7, 1.0))",
    ),
    MaximalChain: (
        ("order",), (),
        ((2, 1),), ([2, 1],),
        "MaximalChain(order=(2, 1))",
    ),
    CapacityEntropyReport: (
        ("entropy", "argmin_chain", "chains_examined", "method"), (),
        (1.0, _CHAIN, 2, "exhaustive"), (1, MaximalChain([2, 1]), 2, "exhaustive"),
        "CapacityEntropyReport(entropy=1.0, argmin_chain=MaximalChain(order=(2, 1)), "
        "chains_examined=2, method='exhaustive')",
    ),
    Uniform: (
        ("a", "b"), (),
        (0.0, 1.0), (0, 1),
        "Uniform(a=0.0, b=1.0)",
    ),
    Triangular: (
        ("a", "c", "b"), (),
        (0.0, 0.25, 1.0), (0, 0.25, 1),
        "Triangular(a=0.0, c=0.25, b=1.0)",
    ),
    Beta: (
        ("alpha", "beta", "a", "b"), (0.0, 1.0),
        (2.0, 5.0, -1.0, 3.0), (2, 5, -1, 3),
        "Beta(alpha=2.0, beta=5.0, a=-1.0, b=3.0)",
    ),
    TruncatedNormal: (
        ("mu", "sigma", "a", "b"), (),
        (0.0, 1.0, -1.0, 2.0), (0, 1, -1, 2),
        "TruncatedNormal(mu=0.0, sigma=1.0, a=-1.0, b=2.0)",
    ),
    Power: (
        ("p", "a", "b"), (0.0, 1.0),
        (2.0, 1.0, 4.0), (2, 1, 4),
        "Power(p=2.0, a=1.0, b=4.0)",
    ),
    PiecewiseLinearCdf: (
        ("knots",), (),
        (((0.0, 0.0), (1.0, 0.5), (3.0, 1.0)),), ([[0, 0], [1, 0.5], [3, 1]],),
        "PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.5), (3.0, 1.0)))",
    ),
    QuadratureSpec: (
        ("abs_tol", "rel_tol", "max_depth"), (1e-10, 1e-8, 60),
        (1.0, 2.0, 5), (1, 2, 5),
        "QuadratureSpec(abs_tol=1.0, rel_tol=2.0, max_depth=5)",
    ),
    QuadratureOutcome: (
        ("value", "error_estimate", "panels", "negative_infinity"), (False,),
        # a finite value unflagged: the trailing default, False, keeps it valid
        (1.0, 0.0, 3, False), (1, 0, 3, False),
        "QuadratureOutcome(value=1.0, error_estimate=0.0, panels=3, negative_infinity=False)",
    ),
}

_CLASSES = list(RECORDS)


def _case(cls):
    names, defaults, floats, ints, text = RECORDS[cls]
    return names, defaults, cls(*floats), cls(*ints), text


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_repr(self, cls):
        _, _, record, _, text = _case(cls)
        assert repr(record) == text

    def test_equal_fields_give_equal_records_and_hashes(self, cls):
        _, _, record, same, _ = _case(cls)
        assert record == same and not record != same
        assert hash(record) == hash(same)

    def test_records_of_other_classes_differ(self, cls):
        _, _, record, _, _ = _case(cls)
        other = _CLASSES[(_CLASSES.index(cls) + 1) % len(_CLASSES)]
        assert record != _case(other)[2]
        names = RECORDS[cls][0]
        assert record != tuple(getattr(record, name) for name in names)

    def test_fields_can_be_neither_assigned_nor_deleted(self, cls):
        names, _, record, _, text = _case(cls)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == text

    @pytest.mark.parametrize(
        "round_trip",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, cls, round_trip):
        _, _, record, _, text = _case(cls)
        back = round_trip(record)
        assert type(back) is cls
        assert back == record and hash(back) == hash(record)
        assert repr(back) == text
        if hasattr(record, "image"):
            assert back.image == record.image

    def test_signature(self, cls):
        names, defaults, record, _, _ = _case(cls)
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(names)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        required = len(names) - len(defaults)
        assert [p.default is p.empty for p in params] == [True] * required + [False] * len(defaults)
        assert cls.__match_args__ == names

    def test_keywords_and_defaults(self, cls):
        names, defaults, record, _, _ = _case(cls)
        values = [getattr(record, name) for name in names]
        assert cls(**dict(zip(names, values))) == record
        required = values[: len(names) - len(defaults)]
        assert cls(*required) == cls(*required, *defaults)
        assert [getattr(cls(*required), n) for n in names[len(required):]] == list(defaults)

    def test_the_generated_constructor_calls_post_init_once(self, cls, monkeypatch):
        # the benchmark's tracing wraps __post_init__ to see each construction
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        _, _, floats, _, text = RECORDS[cls]
        original = cls.__post_init__
        calls = []

        def traced(self):
            calls.append(type(self))
            original(self)

        monkeypatch.setattr(cls, "__post_init__", traced)
        record = cls(*floats)
        assert calls == [cls]
        assert repr(record) == text


def test_no_record_class_defines_its_own_init():
    offenders = []
    for path in sorted(Path(graddiv.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"graddiv.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name, None)
            if isinstance(cls, type) and issubclass(cls, _Record) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
                for item in node.body
            ):
                offenders.append(f"{path.name}: {node.name}")
    assert offenders == []


def test_divergence_result_flags_default_to_the_empty_frozenset():
    r = DivergenceResult(0.5, 2)
    assert r.flags == frozenset() and type(r.flags) is frozenset


def test_a_familys_params_are_its_fields_but_the_support():
    from graddiv.families import FAMILIES

    assert {name: cls.params for name, cls in FAMILIES.items()} == {
        "uniform": (),
        "triangular": ("c",),
        "beta": ("alpha", "beta"),
        "truncated_normal": ("mu", "sigma"),
        "power": ("p",),
        "piecewise_linear_cdf": ("knots",),
    }


def test_a_family_is_not_the_tuple_of_its_fields():
    assert Uniform(0, 1) != (0.0, 1.0)
    assert Triangular(0.0, 0.25, 1.0).c == 0.25
