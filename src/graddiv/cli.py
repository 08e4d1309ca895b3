"""Command line interface.

Commands print a single canonical JSON report to stdout and log anything
human-oriented to stderr. Exit statuses: 0 success, 1 invalid input,
2 computation failure (including a -inf divergence under --strict),
64 usage errors. Reports carry a digest of the input files so runs can be
matched to their inputs; elapsed_ms is the only non-deterministic field.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import sys
import time
from pathlib import Path
from typing import Any, Callable, TextIO

from . import __version__
from .capacity import capacity_entropy
from .continuous import (
    corrected_entropy,
    divergence_continuous,
    symmetric_divergence,
)
from .discrete import (
    NEGATIVE_INFINITY,
    DivergenceResult,
    divergence_discrete,
    partition_entropy,
    relative_entropy,
    shannon_entropy,
)
from .errors import ComputationError, InvalidInputError
from .jsonio import (
    canonical_dumps,
    capacity_from_doc,
    capacity_report_to_doc,
    continuous_grading_from_doc,
    divergence_result_to_doc,
    document_for,
    grading_sample_from_doc,
    load_json,
    masses_from_doc,
    parse_document,
    quadrature_spec_from_doc,
    weights_from_doc,
)
from .quadrature import QuadratureSpec

__all__ = ["build_parser", "run", "main"]

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_COMPUTATION = 2
EXIT_USAGE = 64


class _Inputs:
    """Reads input files once and fingerprints them for the run report."""

    def __init__(self) -> None:
        self.raw: dict[str, bytes] = {}

    def load(self, name: str, path: str) -> Any:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise InvalidInputError(f"cannot read --{name} file {path!r}: {exc}") from exc
        self.raw[name] = data
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"--{name} file {path!r} is not UTF-8: {exc}") from exc
        return load_json(text)

    def digest(self) -> str:
        outer = hashlib.sha256()
        for name in sorted(self.raw):
            outer.update(name.encode("utf-8"))
            outer.update(b"\0")
            outer.update(hashlib.sha256(self.raw[name]).hexdigest().encode("ascii"))
            outer.update(b"\n")
        return outer.hexdigest()


def _add_strict(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat a -inf result as a computation failure (exit 2)",
    )


def _add_quad_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quad", metavar="FILE", help="quadrature_spec JSON document"
    )
    parser.add_argument(
        "--tol",
        type=float,
        metavar="X",
        help="override the absolute integration tolerance",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graddiv",
        description="Divergence and entropy of grading functions on ordered sets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    div = sub.add_parser("divergence", help="divergence of one grading from another")
    div_sub = div.add_subparsers(dest="action", required=True)

    p = div_sub.add_parser("discrete", help="between two finite grading samples")
    p.add_argument("--f", required=True, metavar="FILE", help="grading_sample JSON (graded side)")
    p.add_argument("--g", required=True, metavar="FILE", help="grading_sample JSON (reference side)")
    _add_strict(p)

    p = div_sub.add_parser("continuous", help="between two continuous gradings")
    p.add_argument("--f", required=True, metavar="FILE", help="continuous_grading JSON (graded side)")
    p.add_argument("--g", required=True, metavar="FILE", help="continuous_grading JSON (reference side)")
    _add_quad_options(p)
    _add_strict(p)

    p = div_sub.add_parser("symmetric", help="sum of both divergence directions")
    p.add_argument("--f", required=True, metavar="FILE", help="continuous_grading JSON")
    p.add_argument("--g", required=True, metavar="FILE", help="continuous_grading JSON")
    _add_quad_options(p)
    _add_strict(p)

    ent = sub.add_parser("entropy", help="entropy of a single grading or capacity")
    ent_sub = ent.add_subparsers(dest="action", required=True)

    p = ent_sub.add_parser("shannon", help="of a probability vector")
    p.add_argument("--dist", required=True, metavar="FILE", help="weights JSON")
    _add_strict(p)

    p = ent_sub.add_parser("relative", help="of one probability vector against another")
    p.add_argument("--f", required=True, metavar="FILE", help="weights JSON (graded side)")
    p.add_argument("--g", required=True, metavar="FILE", help="weights JSON (reference side)")
    _add_strict(p)

    p = ent_sub.add_parser("partition", help="of nonnegative cell masses")
    p.add_argument("--masses", required=True, metavar="FILE", help="masses JSON")
    _add_strict(p)

    p = ent_sub.add_parser("capacity", help="of a monotone set function")
    p.add_argument("--capacity", required=True, metavar="FILE", help="capacity JSON")
    p.add_argument(
        "--method",
        choices=("exhaustive", "greedy"),
        default="exhaustive",
        help="chain search strategy (default: exhaustive)",
    )
    _add_strict(p)

    p = ent_sub.add_parser("corrected", help="of a continuous probability grading")
    p.add_argument("--grading", required=True, metavar="FILE", help="continuous_grading JSON")
    _add_quad_options(p)
    _add_strict(p)

    p = sub.add_parser("validate", help="parse a document and echo its canonical form")
    p.add_argument("--input", required=True, metavar="FILE", help="JSON document in any input schema")

    return parser


def _quad_spec(args: argparse.Namespace, inputs: _Inputs) -> QuadratureSpec:
    spec = QuadratureSpec()
    if args.quad is not None:
        spec = quadrature_spec_from_doc(inputs.load("quad", args.quad))
    if args.tol is not None:
        spec = dataclasses.replace(spec, abs_tol=args.tol)
    return spec


def _checked(result: DivergenceResult, args: argparse.Namespace) -> dict:
    if getattr(args, "strict", False) and NEGATIVE_INFINITY in result.flags:
        raise ComputationError("divergence diverged to -inf (strict mode)")
    return divergence_result_to_doc(result)


def _cmd_divergence_discrete(args, inputs: _Inputs) -> dict:
    f = grading_sample_from_doc(inputs.load("f", args.f))
    g = grading_sample_from_doc(inputs.load("g", args.g))
    return _checked(divergence_discrete(f, g), args)


def _cmd_divergence_continuous(args, inputs: _Inputs) -> dict:
    f = continuous_grading_from_doc(inputs.load("f", args.f))
    g = continuous_grading_from_doc(inputs.load("g", args.g))
    return _checked(divergence_continuous(f, g, _quad_spec(args, inputs)), args)


def _cmd_divergence_symmetric(args, inputs: _Inputs) -> dict:
    f = continuous_grading_from_doc(inputs.load("f", args.f))
    g = continuous_grading_from_doc(inputs.load("g", args.g))
    return _checked(symmetric_divergence(f, g, _quad_spec(args, inputs)), args)


def _cmd_entropy_shannon(args, inputs: _Inputs) -> dict:
    dist = weights_from_doc(inputs.load("dist", args.dist))
    return _checked(shannon_entropy(dist), args)


def _cmd_entropy_relative(args, inputs: _Inputs) -> dict:
    f = weights_from_doc(inputs.load("f", args.f))
    g = weights_from_doc(inputs.load("g", args.g))
    return _checked(relative_entropy(f, g), args)


def _cmd_entropy_partition(args, inputs: _Inputs) -> dict:
    masses = masses_from_doc(inputs.load("masses", args.masses))
    return _checked(partition_entropy(masses), args)


def _cmd_entropy_capacity(args, inputs: _Inputs) -> dict:
    mu = capacity_from_doc(inputs.load("capacity", args.capacity))
    report = capacity_entropy(mu, method=args.method)
    return capacity_report_to_doc(report)


def _cmd_entropy_corrected(args, inputs: _Inputs) -> dict:
    grading = continuous_grading_from_doc(inputs.load("grading", args.grading))
    return _checked(corrected_entropy(grading, _quad_spec(args, inputs)), args)


def _cmd_validate(args, inputs: _Inputs) -> dict:
    schema, parsed = parse_document(inputs.load("input", args.input))
    return {"schema": schema, "document": document_for(schema, parsed)}


_HANDLERS: dict[str, Callable[[argparse.Namespace, _Inputs], dict]] = {
    "divergence discrete": _cmd_divergence_discrete,
    "divergence continuous": _cmd_divergence_continuous,
    "divergence symmetric": _cmd_divergence_symmetric,
    "entropy shannon": _cmd_entropy_shannon,
    "entropy relative": _cmd_entropy_relative,
    "entropy partition": _cmd_entropy_partition,
    "entropy capacity": _cmd_entropy_capacity,
    "entropy corrected": _cmd_entropy_corrected,
    "validate": _cmd_validate,
}


def _emit(
    stdout: TextIO,
    command: str,
    inputs: _Inputs,
    started: float,
    result: dict | None = None,
    error: str | None = None,
) -> None:
    report: dict[str, Any] = {
        "command": command,
        "inputs_digest": inputs.digest(),
        "elapsed_ms": (time.perf_counter() - started) * 1000.0,
    }
    if error is None:
        report["result"] = result
    else:
        report["error"] = error
    stdout.write(canonical_dumps(report) + "\n")


def run(argv: list[str] | None = None, stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = build_parser()
    try:
        # argparse prints usage and version to the process streams; route
        # them to the handles the caller gave us.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    action = getattr(args, "action", None)
    command = f"{args.command} {action}" if action else args.command
    inputs = _Inputs()
    started = time.perf_counter()
    try:
        result = _HANDLERS[command](args, inputs)
    except InvalidInputError as exc:
        _emit(stdout, command, inputs, started, error=str(exc))
        print(f"graddiv: invalid input: {exc}", file=stderr)
        return EXIT_INVALID_INPUT
    except ComputationError as exc:
        _emit(stdout, command, inputs, started, error=str(exc))
        print(f"graddiv: computation failed: {exc}", file=stderr)
        return EXIT_COMPUTATION
    _emit(stdout, command, inputs, started, result=result)
    return EXIT_OK


def main() -> int:
    return run()
