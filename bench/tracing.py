"""Spans and counters recorded around calls into graddiv's layers.

Instrumentation replaces public functions and methods of the graddiv
modules with wrappers for the duration of a ``with instrument(tracer):``
block and restores them afterwards; the library itself is not edited.
A span opens only at a layer boundary: a call made from inside the same
layer (corrected_entropy calling divergence_continuous, say) stays part of
the enclosing span. Family ``density`` and ``inverse`` calls run hundreds of
thousands of times per quadrature and are counted, not spanned.
"""

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from graddiv import capacity, cli, continuous, discrete, families, jsonio, ordered, quadrature
from graddiv.errors import ComputationError


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.op = -1

    def _layer_of_innermost(self) -> str | None:
        if not self._open:
            return None
        return self.spans[self._open[-1]][0].split(".")[0]

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Counter:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _spanned(tracer: Tracer, fn, name, on_result=None, on_error=None):
    """Wrap fn in a span called name (or name(args, kwargs) if callable)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        if tracer._layer_of_innermost() == span_name.split(".")[0]:
            return fn(*args, **kwargs)
        with tracer.span(span_name):
            try:
                result = fn(*args, **kwargs)
            except ComputationError:
                if on_error is not None:
                    on_error()
                raise
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _capacity_span(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "exhaustive")
    return f"capacity.{method}"


def _graddiv_modules():
    return [m for k, m in sys.modules.items() if k == "graddiv" or k.startswith("graddiv.")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers on every graddiv module binding, then undo them."""
    count = tracer.counts

    def add(key, amount):
        count[key] += amount

    functions = [
        (jsonio.load_json, "jsonio.load_json",
         lambda a, r: add("jsonio.bytes_in", len(a[0].encode("utf-8")))),
        (jsonio.canonical_dumps, "jsonio.canonical_dumps",
         lambda a, r: add("jsonio.bytes_out", len(r.encode("utf-8")))),
        (cli.run, "cli.run", None),
        (continuous.corrected_entropy, "continuous.corrected_entropy", None),
        (continuous.divergence_continuous, "continuous.divergence", None),
        (continuous.symmetric_divergence, "continuous.divergence", None),
        (continuous.riemann_divergence, "continuous.riemann", None),
        (capacity.capacity_entropy, _capacity_span,
         lambda a, r: add("capacity.chains_examined", r.chains_examined)),
    ]
    for name in jsonio.__all__:
        if name.endswith("_from_doc") or name == "parse_document":
            functions.append((getattr(jsonio, name), "jsonio.from_doc", None))
        elif name.endswith("_to_doc"):
            functions.append((getattr(jsonio, name), "jsonio.to_doc", None))
    functions.append((jsonio.document_for, "jsonio.to_doc", None))
    for kernel in (discrete.divergence_discrete, discrete.relative_entropy,
                   discrete.shannon_entropy, discrete.partition_entropy):
        functions.append((kernel, "discrete.kernel",
                          lambda a, r: add("discrete.terms", r.terms_used)))
    functions.append((
        quadrature.integrate_adaptive, "quadrature.integrate",
        lambda a, r: add("quadrature.panels", r.panels),
    ))

    replacements = {}
    for fn, name, on_result in functions:
        on_error = (lambda: add("quadrature.failures", 1)) if fn is quadrature.integrate_adaptive else None
        replacements[id(fn)] = (fn, _spanned(tracer, fn, name, on_result, on_error))

    restore: list[tuple[object, str, object]] = []
    for module in _graddiv_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and replacements[id(value)][0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, replacements[id(value)][1])

    constructors = [
        (ordered.GradingSample, "ordered.GradingSample"),
        (discrete.ProbabilityVector, "discrete.ProbabilityVector"),
        (capacity.Capacity, "capacity.Capacity"),
    ]
    for cls, name in constructors:
        original = cls.__dict__["__post_init__"]
        restore.append((cls, "__post_init__", original))
        cls.__post_init__ = _spanned(tracer, original, name)
    for cls in (families.Uniform, families.Triangular, families.Beta,
                families.TruncatedNormal, families.Power, families.PiecewiseLinearCdf):
        for method, key in (("density", "families.density_calls"),
                            ("inverse", "families.inverse_calls")):
            original = cls.__dict__[method]
            restore.append((cls, method, original))
            setattr(cls, method, _counted(tracer, original, key))
    try:
        yield tracer
    finally:
        for target, attr, value in reversed(restore):
            setattr(target, attr, value)

