"""Command line interface.

Commands print a single canonical JSON report to stdout and log anything
human-oriented to stderr. Exit statuses: 0 success, 1 invalid input,
2 computation failure (including a -inf divergence under --strict),
64 usage errors. Reports carry a digest of the input files so runs can be
matched to their inputs; elapsed_ms is the only non-deterministic field.

Each command is declared once, in ``_COMMANDS``: its help line, its input
files with their schemas, the function that computes it and its options.
``_read_argv`` reads a well-formed command line straight from that table,
without importing argparse; ``build_parser`` builds every subparser from the
same table and reads every other command line, so help, usage and version
text and argparse's lenient forms (abbreviated flags, ``--flag=value``,
repeated flags, ``--``) all come from argparse. ``_execute`` runs every
command the same way, however its command line was read. It reads one file
and parses it with its schema's reader before it reads the next, so the
first faulty file is the one reported. The quadrature spec is read last,
then the function computes and its result is serialized.
"""

from __future__ import annotations

import sys
import time
from collections import namedtuple
from importlib import import_module

from . import __version__, jsonio
from .discrete import NEGATIVE_INFINITY
from .errors import ComputationError, InvalidInputError

# argparse and contextlib are imported only for a command line that
# _read_argv leaves to argparse, typing only by type checkers
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Any, TextIO

    from .quadrature import QuadratureSpec

# The interpreter's builtin SHA-256; hashlib would load OpenSSL first, a
# few milliseconds of every process for a digest of a few hundred bytes.
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

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
        # open, not pathlib: the error names the path as given, unnormalized,
        # and a process spares pathlib's import
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read --{name} file {path!r}: {exc}") from exc
        self.raw[name] = data
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"--{name} file {path!r} is not UTF-8: {exc}") from exc
        return jsonio.load_json(text)

    def digest(self) -> str:
        outer = sha256()
        for name in sorted(self.raw):
            outer.update(name.encode("utf-8"))
            outer.update(b"\0")
            outer.update(sha256(self.raw[name]).hexdigest().encode("ascii"))
            outer.update(b"\n")
        return outer.hexdigest()


# help: the command's help line
# files: (flag, schema, help) of each input file, in the order the function
#     takes them; the schema None accepts a document of any schema
# compute: (module, function name), or None to echo the parsed document
# options: "method" for --method, "quad" for --quad and --tol; every command
#     that computes takes --strict
_Command = namedtuple("_Command", "help files compute options", defaults=("",))

# the choices of --method, its default first
_METHODS = ("exhaustive", "greedy")


# A computing module is imported by name when its command runs. capacity
# loads numpy only for a capacity of capacity._NUMPY_FROM or more elements;
# continuous and quadrature load neither numpy nor scipy (families imports
# scipy.special only for a Beta or truncated normal quantile, an interior
# Beta cdf value or ln B at extreme shapes). So the discrete commands start
# without any of them, and numpy is loaded only by entropy capacity and by
# validate on a capacity document, each from capacity._NUMPY_FROM elements
# on. Readers and functions are looked up when called, never held here, so a
# wrapper installed on a module's binding sees every call.
_COMMANDS: dict[str, _Command] = {
    "divergence discrete": _Command(
        "between two finite grading samples",
        (("f", "grading_sample", "grading_sample JSON (graded side)"),
         ("g", "grading_sample", "grading_sample JSON (reference side)")),
        ("discrete", "divergence_discrete"),
    ),
    "divergence continuous": _Command(
        "between two continuous gradings",
        (("f", "continuous_grading", "continuous_grading JSON (graded side)"),
         ("g", "continuous_grading", "continuous_grading JSON (reference side)")),
        ("continuous", "divergence_continuous"),
        "quad",
    ),
    "divergence symmetric": _Command(
        "sum of both divergence directions",
        (("f", "continuous_grading", "continuous_grading JSON"),
         ("g", "continuous_grading", "continuous_grading JSON")),
        ("continuous", "symmetric_divergence"),
        "quad",
    ),
    "entropy shannon": _Command(
        "of a probability vector",
        (("dist", "weights", "weights JSON"),),
        ("discrete", "shannon_entropy"),
    ),
    "entropy relative": _Command(
        "of one probability vector against another",
        (("f", "weights", "weights JSON (graded side)"),
         ("g", "weights", "weights JSON (reference side)")),
        ("discrete", "relative_entropy"),
    ),
    "entropy partition": _Command(
        "of nonnegative cell masses",
        (("masses", "masses", "masses JSON"),),
        ("discrete", "partition_entropy"),
    ),
    "entropy capacity": _Command(
        "of a monotone set function",
        (("capacity", "capacity", "capacity JSON"),),
        ("capacity", "capacity_entropy"),
        "method",
    ),
    "entropy corrected": _Command(
        "of a continuous probability grading",
        (("grading", "continuous_grading", "continuous_grading JSON"),),
        ("continuous", "corrected_entropy"),
        "quad",
    ),
    "validate": _Command(
        "parse a document and echo its canonical form",
        (("input", None, "JSON document in any input schema"),),
        None,
    ),
}

# help lines of the commands that group two-word commands
_GROUPS = {
    "divergence": "divergence of one grading from another",
    "entropy": "entropy of a single grading or capacity",
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="graddiv",
        description="Divergence and entropy of grading functions on ordered sets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, Any] = {}
    for name, command in _COMMANDS.items():
        group, _, action = name.partition(" ")
        if action:
            if group not in groups:
                group_parser = sub.add_parser(group, help=_GROUPS[group])
                groups[group] = group_parser.add_subparsers(dest="action", required=True)
            p = groups[group].add_parser(action, help=command.help)
        else:
            p = sub.add_parser(name, help=command.help)
        for flag, _, text in command.files:
            p.add_argument(f"--{flag}", required=True, metavar="FILE", help=text)
        if command.options == "method":
            p.add_argument("--method", choices=_METHODS, default=_METHODS[0],
                           help="chain search strategy (default: exhaustive)")
        if command.options == "quad":
            p.add_argument("--quad", metavar="FILE", help="quadrature_spec JSON document")
            p.add_argument("--tol", type=float, metavar="X",
                           help="override the absolute integration tolerance")
        if command.compute is not None:
            p.add_argument("--strict", action="store_true",
                           help="treat a -inf result as a computation failure (exit 2)")
    return parser


def _read_argv(argv: list[str]) -> tuple[str, dict[str, Any]] | None:
    """The command and options of a well-formed command line, or None.

    Well formed means: a command's words, then each of its options at most
    once, as ``--flag value`` with a value that does not start with "-", or
    as a lone ``--strict``; a --method among its choices, a --tol that float
    reads, and every file flag present. The options are then the values
    build_parser's parse_args gives, by destination. Every other command
    line is left to argparse.
    """
    for name, command in _COMMANDS.items():
        words = name.split(" ")
        if argv[:len(words)] == words:
            break
    else:
        return None
    options: dict[str, Any] = {flag: None for flag, _, _ in command.files}
    if command.options == "method":
        options["method"] = _METHODS[0]
    elif command.options == "quad":
        options.update(quad=None, tol=None)
    if command.compute is not None:
        options["strict"] = False
    given = set()
    rest = iter(argv[len(words):])
    for token in rest:
        key = token[2:]
        if token[:2] != "--" or key not in options or key in given:
            return None
        given.add(key)
        if key == "strict":
            options[key] = True
            continue
        value = next(rest, "-")  # a flag with no value is left to argparse
        if value.startswith("-"):
            return None
        if key == "tol":
            try:
                value = float(value)
            except ValueError:
                return None
        elif key == "method" and value not in _METHODS:
            return None
        options[key] = value
    if any(options[flag] is None for flag, _, _ in command.files):
        return None
    return name, options


def _parse_args(argv: list[str], stdout: TextIO, stderr: TextIO) -> tuple[str, dict[str, Any]]:
    """The command and options build_parser reads from argv; SystemExit for
    help, version and usage errors."""
    import contextlib

    parser = build_parser()
    # argparse prints usage and version to the process streams; route them
    # to the handles the caller gave us.
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        options = vars(parser.parse_args(argv))
    group = options.pop("command")
    action = options.pop("action", None)
    return (f"{group} {action}" if action else group), options


def _quad_spec(options: dict[str, Any], inputs: _Inputs) -> QuadratureSpec:
    from .quadrature import QuadratureSpec

    spec = QuadratureSpec()
    if options["quad"] is not None:
        spec = jsonio.quadrature_spec_from_doc(inputs.load("quad", options["quad"]))
    if options["tol"] is not None:
        spec = QuadratureSpec(options["tol"], spec.rel_tol, spec.max_depth)
    return spec


def _execute(name: str, options: dict[str, Any], inputs: _Inputs) -> dict:
    command = _COMMANDS[name]
    operands = []
    for flag, schema, _ in command.files:
        read = jsonio.parse_document if schema is None else getattr(jsonio, f"{schema}_from_doc")
        operands.append(read(inputs.load(flag, options[flag])))
    if command.compute is None:
        schema, parsed = operands[0]
        return {"schema": schema, "document": jsonio.document_for(schema, parsed)}
    if command.options == "quad":
        operands.append(_quad_spec(options, inputs))
    module, function = command.compute
    compute = getattr(import_module(f".{module}", __package__), function)
    if command.options == "method":
        return jsonio.capacity_report_to_doc(compute(*operands, method=options["method"]))
    result = compute(*operands)
    if options["strict"] and NEGATIVE_INFINITY in result.flags:
        raise ComputationError("divergence diverged to -inf (strict mode)")
    return jsonio.divergence_result_to_doc(result)


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
    stdout.write(jsonio.canonical_dumps(report) + "\n")


def run(argv: list[str] | None = None, stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = _read_argv(argv)
    if parsed is None:
        try:
            parsed = _parse_args(argv, stdout, stderr)
        except SystemExit as exc:
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    command, options = parsed
    inputs = _Inputs()
    started = time.perf_counter()
    try:
        result = _execute(command, options, inputs)
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
