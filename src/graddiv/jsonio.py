"""Canonical JSON input/output for every object the CLI exchanges.

Canonical form: object keys sorted, no whitespace, floats rendered with
repr-faithful precision via format(x, ".17g"), negative infinity encoded
as the string "-inf" (it only ever appears in result values). Two runs on
the same inputs must produce byte-identical result documents, so nothing
locale- or hash-order-dependent is allowed here.

An array whose elements are all finite exact floats, such as a 1e5-element
grade list, is rendered by one %-format call per _FLOAT_CHUNK elements;
any other array is written element by element. Only the joined document
has the array's full length: one call over a 1e5-element array grew its
output buffer by reallocation through a string as long as the document,
and the freed near-full-size blocks left holes in the C heap that the
next document text of that size did not fit. Depending on the heap's
layout, a process that alternated such echoes with reading 1e5-element
documents grew its resident set by about 2 MB per echo.

One table, ``_SCHEMAS``, declares every input schema: its required and
optional keys, its reader and its writer, in detection order. A document
is in the first schema it shares a key with, and that schema's reader
refuses a key it lacks or does not know; a document that shares no key
with any schema, ``{}`` included, matches none.

Reading judges arrays and numbers by the rule the constructors apply
(``ordered.array``, ``as_float``, ``as_floats``, ``count`` and, for
masses, ``nonnegative``) and converts each element once: each reader
hands a decoded array or a family's parameters, unchecked, to the
constructor or the rule that converts and checks it, so an error names
the value as the constructor does (``alpha must be a number, got '2'``).

A capacity document whose keys are the canonical subset keys in mask
order, as ``capacity_to_doc`` builds it, is read in document order: one
compare of its key list against the table of canonical keys, then its
values as they stand. Any other key order is read by one lookup per
subset. The key tables are cached only below ``capacity._NUMPY_FROM``
elements, at most 512 keys; a larger one lives for one read.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cache
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add

from .discrete import DivergenceResult, ProbabilityVector
from .errors import InvalidInputError
from .ordered import GradingSample, as_float, as_floats, count, nonnegative

# capacity, families and quadrature are imported by the readers that build
# their objects, so parsing a discrete document loads none of them; only a
# capacity document of capacity._NUMPY_FROM or more elements loads numpy,
# and none loads scipy. typing is read by type checkers only: importing it
# is a few milliseconds of every process.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from .capacity import Capacity, CapacityEntropyReport
    from .families import ContinuousGrading
    from .quadrature import QuadratureSpec

__all__ = [
    "canonical_dumps",
    "load_json",
    "detect_schema",
    "parse_document",
    "grading_sample_from_doc",
    "grading_sample_to_doc",
    "weights_from_doc",
    "weights_to_doc",
    "masses_from_doc",
    "masses_to_doc",
    "capacity_from_doc",
    "capacity_to_doc",
    "continuous_grading_from_doc",
    "continuous_grading_to_doc",
    "quadrature_spec_from_doc",
    "quadrature_spec_to_doc",
    "divergence_result_to_doc",
    "capacity_report_to_doc",
]


# ---------------------------------------------------------------- writing


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError(
            f"non-finite number {x!r} cannot be serialized as a JSON float"
        )
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


_FLOAT_TYPE = frozenset({float})
# Elements per %-format call for an array of exact floats; a piece renders
# to at most 24 KiB.
_FLOAT_CHUNK = 1024
_NEXT_FORMAT = ",%.17g" * _FLOAT_CHUNK


def _float_pieces(values) -> list[str]:
    """The text of a float array between its brackets, one piece per
    _FLOAT_CHUNK elements; each piece after the first starts with its comma.

    "%.17g" is format(x, ".17g"), and + 0.0 turns -0.0 into 0.0 as
    _format_float does.
    """
    n = len(values)
    head = values[:_FLOAT_CHUNK]
    pieces = [("%.17g," * len(head))[:-1] % tuple(map(add, head, repeat(0.0)))]
    for start in range(_FLOAT_CHUNK, n, _FLOAT_CHUNK):
        chunk = tuple(map(add, values[start:start + _FLOAT_CHUNK], repeat(0.0)))
        form = _NEXT_FORMAT if len(chunk) == _FLOAT_CHUNK else ",%.17g" * len(chunk)
        pieces.append(form % chunk)
    return pieces


def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical byte form described in the module docstring."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        # what json.dumps(obj, ensure_ascii=True) returns for a str, without
        # the encoder's dispatch on its type
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InvalidInputError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(key))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if _FLOAT_TYPE.issuperset(map(type, obj)):
            # "%.17g" spells inf and nan with an "n", which no finite
            # rendering holds; those fall through to the element loop,
            # which names the first of them.
            pieces = _float_pieces(obj)
            if not any("n" in piece for piece in pieces):
                out += ("[", *pieces, "]")
                return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise InvalidInputError(f"cannot serialize {type(obj).__name__} to JSON")


# ---------------------------------------------------------------- reading


def _reject_constant(token: str) -> float:
    raise InvalidInputError(f"non-finite JSON literal {token!r} is not accepted")


def _pairs_without_duplicates(pairs: list[tuple[str, Any]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        # a key repeats: name the first repeat in document order
        seen: set = set()
        for key, _ in pairs:
            if key in seen:
                raise InvalidInputError(f"duplicate object key {key!r}")
            seen.add(key)
    return doc


def load_json(text: str) -> Any:
    try:
        return json.loads(
            text,
            parse_constant=_reject_constant,
            object_pairs_hook=_pairs_without_duplicates,
        )
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON: {exc}") from exc
    except RecursionError:
        raise InvalidInputError("JSON arrays or objects nest too deeply") from None
    except InvalidInputError:
        raise
    except ValueError:
        # the decoder's one other ValueError: an integer literal longer
        # than int() converts
        raise InvalidInputError(
            f"JSON integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _require_keys(doc: dict, schema: str, keys: tuple | None = None) -> None:
    """Refuse ``doc`` unless it is an object that has every required key
    and no key but the optional ones; ``keys``, a (required, optional)
    pair, defaults to the schema's row of _SCHEMAS."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{schema} document must be a JSON object")
    required, optional = keys or _SCHEMAS[schema][:2]
    missing = sorted(set(required).difference(doc))
    extra = sorted(set(doc).difference(required, optional))
    if missing:
        raise InvalidInputError(f"{schema} document is missing keys {missing}")
    if extra:
        raise InvalidInputError(f"{schema} document has unknown keys {extra}")


# ---------------------------------------------------------------- schemas


def grading_sample_from_doc(doc: dict) -> GradingSample:
    _require_keys(doc, "grading_sample")
    if "labels" not in doc:
        return GradingSample(doc["grades"])
    # The constructor judges the labels. To it None means no labels, so a
    # JSON null is handed over as the non-string it is.
    labels = doc["labels"]
    return GradingSample(doc["grades"], labels=(None,) if labels is None else labels)


def grading_sample_to_doc(sample: GradingSample) -> dict:
    doc: dict = {"grades": list(sample.grades)}
    if sample.labels is not None:
        doc["labels"] = list(sample.labels)
    return doc


def weights_from_doc(doc: dict) -> ProbabilityVector:
    _require_keys(doc, "weights")
    return ProbabilityVector(doc["weights"])


def weights_to_doc(vector: ProbabilityVector) -> dict:
    return {"weights": list(vector.weights)}


def masses_from_doc(doc: dict) -> tuple[float, ...]:
    _require_keys(doc, "masses")
    return nonnegative(as_floats(doc["masses"], "masses"), "masses")


def masses_to_doc(masses: tuple[float, ...]) -> dict:
    return {"masses": list(masses)}


def _subset_mask(key: str, ground_size: int) -> int:
    if key == "":
        return 0
    mask = 0
    previous = 0
    for part in key.split(","):
        try:
            element = int(part)
        except ValueError:
            element = -1
        if element < 1 or str(element) != part:
            raise InvalidInputError(
                f"subset key {key!r} is not a comma-separated list of elements"
            )
        if element <= previous:
            raise InvalidInputError(
                f"subset key {key!r} must list elements in strictly increasing order"
            )
        if element > ground_size:
            raise InvalidInputError(
                f"subset key {key!r} names element {element} beyond ground size {ground_size}"
            )
        mask |= 1 << (element - 1)
        previous = element
    return mask


def _key_table(n: int) -> tuple[str, ...]:
    """The canonical key of every subset of {1..n}, indexed by mask.

    The key of a mask is the key of the mask without its top element,
    followed by that element.
    """
    keys = [""]
    for element in range(1, n + 1):
        top = str(element)
        keys += [f"{key},{top}" if key else top for key in keys]
    return tuple(keys)


_cached_key_table = cache(_key_table)


def _subset_keys(n: int) -> tuple[str, ...]:
    """_key_table(n), kept per ground size below capacity._NUMPY_FROM, where
    the Python lattice tables are kept too: at most 512 keys. A larger
    table is built for the call that asks for it, so reading an n = 20
    document leaves no table of a million keys alive."""
    from .capacity import _NUMPY_FROM

    return (_cached_key_table if n < _NUMPY_FROM else _key_table)(n)


def capacity_from_doc(doc: dict) -> Capacity:
    from .capacity import _MOST_ELEMENTS, Capacity, _mask_key

    _require_keys(doc, "capacity")
    n = count(doc["ground_size"], "ground_size", 1, _MOST_ELEMENTS)
    raw = doc["values"]
    if not isinstance(raw, dict):
        raise InvalidInputError("values must be an object keyed by subset")
    size = 1 << n
    # A document with the canonical keys in mask order gives its values in
    # that order. Otherwise, with the count right, finding every canonical
    # key means the document has no other key. Failing both, the slow path
    # below names the fault: a JSON object has no repeated keys and every
    # accepted key is canonical, so no two keys name the same subset.
    keys = _subset_keys(n) if len(raw) == size else ()
    try:
        in_order = keys and tuple(raw) == keys
        values = as_floats(raw.values() if in_order else map(raw.__getitem__, keys), "values")
    except (KeyError, InvalidInputError):
        values = ()
    if len(values) != size:
        # name the first bad key or value in document order
        known = frozenset(keys)
        for key, value in raw.items():
            if key not in known:
                _subset_mask(key, n)
            as_float(value, f"values[{key!r}]")
        missing = size - len(raw)
        if missing:
            absent = (key or '""' for key in map(_mask_key, range(size)) if key not in raw)
            shown = ", ".join(islice(absent, 4)) + (", ..." if missing > 4 else "")
            raise InvalidInputError(
                f"values must cover every subset; {missing} missing ({shown})"
            )
    return Capacity(ground_size=n, values=values)


def capacity_to_doc(mu: Capacity) -> dict:
    return {
        "ground_size": mu.ground_size,
        "values": dict(zip(_subset_keys(mu.ground_size), mu.values)),
    }


def continuous_grading_from_doc(doc: dict) -> ContinuousGrading:
    from .families import FAMILIES, PiecewiseLinearCdf

    _require_keys(doc, "continuous_grading")
    family = doc["family"]
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        known = ", ".join(sorted(FAMILIES))
        raise InvalidInputError(f"unknown family {family!r} (known: {known})")
    a, b = as_floats(doc["support"], "support", 2, 2)
    params = doc["params"]
    _require_keys(params, f"{family} params", (cls.params, ()))
    if cls is not PiecewiseLinearCdf:
        return cls(a=a, b=b, **params)
    grading = PiecewiseLinearCdf(**params)
    if grading.support != (a, b):
        raise InvalidInputError(
            f"support [{a!r}, {b!r}] disagrees with knot endpoints {grading.support!r}"
        )
    return grading


def continuous_grading_to_doc(F: ContinuousGrading) -> dict:
    a, b = F.support
    return {"family": F.family, "params": F.shape_params(), "support": [a, b]}


def quadrature_spec_from_doc(doc: dict) -> QuadratureSpec:
    from .quadrature import QuadratureSpec

    _require_keys(doc, "quadrature_spec")
    return QuadratureSpec(**doc)


def quadrature_spec_to_doc(spec: QuadratureSpec) -> dict:
    return {"abs_tol": spec.abs_tol, "rel_tol": spec.rel_tol, "max_depth": spec.max_depth}


# ---------------------------------------------------------------- results


def divergence_result_to_doc(result: DivergenceResult) -> dict:
    # error_estimate stays a library-level diagnostic; the wire form is the
    # four-field document
    return {
        "value": "-inf" if result.value == -math.inf else result.value,
        "terms_used": result.terms_used,
        "dropped_mass": result.dropped_mass,
        "flags": sorted(result.flags),
    }


def capacity_report_to_doc(report: CapacityEntropyReport) -> dict:
    return {
        "entropy": report.entropy,
        "argmin_chain": list(report.argmin_chain.order),
        "chains_examined": report.chains_examined,
        "method": report.method,
    }


# ---------------------------------------------------------------- dispatch

# input schema -> (required keys, optional keys, reader, writer), in
# detection order
_SCHEMAS = {
    "grading_sample": (("grades",), ("labels",), grading_sample_from_doc, grading_sample_to_doc),
    "weights": (("weights",), (), weights_from_doc, weights_to_doc),
    "masses": (("masses",), (), masses_from_doc, masses_to_doc),
    "capacity": (("ground_size", "values"), (), capacity_from_doc, capacity_to_doc),
    "continuous_grading": (
        ("family", "params", "support"), (), continuous_grading_from_doc, continuous_grading_to_doc,
    ),
    "quadrature_spec": (
        (), ("abs_tol", "rel_tol", "max_depth"), quadrature_spec_from_doc, quadrature_spec_to_doc,
    ),
}


def detect_schema(doc: Any) -> str:
    """Name the input schema a JSON document is written in."""
    if not isinstance(doc, dict):
        raise InvalidInputError("document must be a JSON object")
    for schema, (required, optional, _, _) in _SCHEMAS.items():
        if not doc.keys().isdisjoint(required + optional):
            return schema
    known = ", ".join(sorted(_SCHEMAS))
    raise InvalidInputError(f"document matches no known schema (known: {known})")


def parse_document(doc: Any) -> tuple[str, Any]:
    """Detect the schema, parse, and return (schema name, parsed object)."""
    schema = detect_schema(doc)
    _, _, reader, _ = _SCHEMAS[schema]
    return schema, reader(doc)


def document_for(schema: str, obj: Any) -> dict:
    _, _, _, writer = _SCHEMAS[schema]
    return writer(obj)
