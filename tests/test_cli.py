import argparse
import ast
import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graddiv
from graddiv import (
    Beta,
    MaximalChain,
    PiecewiseLinearCdf,
    Power,
    Triangular,
    __version__,
    chain_divergence,
    divergence_continuous,
)
from graddiv.capacity import _NUMPY_FROM
from graddiv.cli import (
    _COMMANDS,
    EXIT_COMPUTATION,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    _read_argv,
    build_parser,
    run,
)
from graddiv.jsonio import canonical_dumps, capacity_to_doc, continuous_grading_to_doc

from conftest import monotone_capacity


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_dumps(doc), encoding="utf-8")
    return str(path)


def report_of(stdout_text):
    lines = stdout_text.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.fixture
def sample_files(tmp_path):
    return {
        "f_grades": write(tmp_path, "f.json", {"grades": [0.0, 0.5, 1.0]}),
        "g_grades": write(tmp_path, "g.json", {"grades": [0.0, 1.0, 2.0]}),
        "u4": write(tmp_path, "u4.json", {"weights": [0.25, 0.25, 0.25, 0.25]}),
        "coin": write(tmp_path, "coin.json", {"weights": [0.5, 0.5]}),
        "point": write(tmp_path, "point.json", {"weights": [1.0, 0.0]}),
        "masses": write(tmp_path, "masses.json", {"masses": [2.0, 0.5]}),
        "cap": write(
            tmp_path,
            "cap.json",
            {
                "ground_size": 2,
                "values": {"": 0.0, "1": 0.6, "2": 0.7, "1,2": 1.0},
            },
        ),
        "uniform": write(
            tmp_path,
            "uniform.json",
            {"family": "uniform", "support": [0.0, 1.0], "params": {}},
        ),
        "power2": write(
            tmp_path,
            "power2.json",
            {"family": "power", "support": [0.0, 1.0], "params": {"p": 2.0}},
        ),
        "beta25": write(
            tmp_path,
            "beta25.json",
            {"family": "beta", "support": [0.0, 1.0], "params": {"alpha": 2.0, "beta": 5.0}},
        ),
        "beta52": write(
            tmp_path,
            "beta52.json",
            {"family": "beta", "support": [0.0, 1.0], "params": {"alpha": 5.0, "beta": 2.0}},
        ),
        "tnormal": write(
            tmp_path,
            "tnormal.json",
            {"family": "truncated_normal", "support": [-1.0, 2.0],
             "params": {"mu": 0.3, "sigma": 0.5}},
        ),
        "triangular": write(
            tmp_path,
            "triangular.json",
            {"family": "triangular", "support": [0.0, 2.0], "params": {"c": 0.3}},
        ),
        "piecewise": write(
            tmp_path,
            "piecewise.json",
            {"family": "piecewise_linear_cdf", "support": [0.0, 3.0],
             "params": {"knots": [[0.0, 0.0], [1.0, 0.5], [3.0, 1.0]]}},
        ),
        "quad": write(tmp_path, "quad.json", {"abs_tol": 1e-9}),
    }


# the schema of each input file of each computing command
_FILE_SCHEMAS = {
    "divergence discrete": {"--f": "grading_sample", "--g": "grading_sample"},
    "divergence continuous": {"--f": "continuous_grading", "--g": "continuous_grading"},
    "divergence symmetric": {"--f": "continuous_grading", "--g": "continuous_grading"},
    "entropy shannon": {"--dist": "weights"},
    "entropy relative": {"--f": "weights", "--g": "weights"},
    "entropy partition": {"--masses": "masses"},
    "entropy capacity": {"--capacity": "capacity"},
    "entropy corrected": {"--grading": "continuous_grading"},
}


class TestExitCodes:
    def test_success(self, sample_files):
        code, out, _ = invoke(
            ["divergence", "discrete", "--f", sample_files["f_grades"], "--g",
             sample_files["g_grades"]]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == pytest.approx(math.log(2.0))

    def test_invalid_input_bad_json(self, tmp_path, sample_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out, err = invoke(
            ["divergence", "discrete", "--f", str(bad), "--g",
             sample_files["g_grades"]]
        )
        assert code == EXIT_INVALID_INPUT
        assert "error" in report_of(out)
        assert err != ""

    def test_invalid_input_missing_file(self, tmp_path, sample_files):
        code, out, _ = invoke(
            ["divergence", "discrete", "--f", str(tmp_path / "absent.json"),
             "--g", sample_files["g_grades"]]
        )
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "path, code",
        [("./missing.json", errno.ENOENT), ("", errno.ENOENT), ("a//x", errno.ENOENT),
         ("u4.json/", errno.ENOTDIR)],
        ids=["dot slash", "empty", "double slash", "trailing slash after a file"],
    )
    def test_unreadable_file_is_named_as_given(self, tmp_path, monkeypatch, path, code):
        # open() reports the path as the command line gives it, unnormalized:
        # "" is no file, not the directory ".", and "u4.json/" is no directory
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "u4.json", {"weights": [0.25, 0.25, 0.25, 0.25]})
        exit_code, out, err = invoke(["entropy", "shannon", "--dist", path])
        error = f"cannot read --dist file {path!r}: [Errno {code}] {os.strerror(code)}: {path!r}"
        assert exit_code == EXIT_INVALID_INPUT
        assert report_of(out)["error"] == error
        assert err == f"graddiv: invalid input: {error}\n"

    def test_invalid_input_bad_sample(self, tmp_path, sample_files):
        bad = write(tmp_path, "bad_sample.json", {"grades": [1.0, 1.0]})
        code, _, _ = invoke(
            ["divergence", "discrete", "--f", bad, "--g", sample_files["g_grades"]]
        )
        assert code == EXIT_INVALID_INPUT

    def test_strict_negative_infinity_is_computation_error(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "relative", "--f", sample_files["coin"], "--g",
             sample_files["point"], "--strict"]
        )
        assert code == EXIT_COMPUTATION
        rep = report_of(out)
        assert "error" in rep and "result" not in rep

    def test_without_strict_negative_infinity_succeeds(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "relative", "--f", sample_files["coin"], "--g",
             sample_files["point"]]
        )
        assert code == EXIT_OK
        rep = report_of(out)
        assert rep["result"]["value"] == "-inf"
        assert rep["result"]["flags"] == ["negative_infinity"]

    def test_nonconvergence_is_computation_error(self, tmp_path, sample_files):
        quad = write(
            tmp_path, "quad.json", {"abs_tol": 1e-13, "rel_tol": 1e-13,
                                    "max_depth": 2}
        )
        code, out, _ = invoke(
            ["divergence", "continuous", "--f", sample_files["power2"], "--g",
             sample_files["uniform"], "--quad", quad]
        )
        assert code == EXIT_COMPUTATION
        assert "error" in report_of(out)

    def test_symmetric_sum_beyond_double_range_is_computation_error(self, tmp_path):
        # each direction is finite; their sum is not
        f = write(tmp_path, "f.json", {
            "family": "piecewise_linear_cdf",
            "params": {"knots": [[0, -6.5e304], [4, 0], [8, 1e-300]]},
            "support": [0, 8],
        })
        g = write(tmp_path, "g.json", {
            "family": "piecewise_linear_cdf",
            "params": {"knots": [[0, 0], [4, 1e-300], [8, 6.5e304]]},
            "support": [0, 8],
        })
        for one, other in ((f, g), (g, f)):
            code, out, _ = invoke(["divergence", "continuous", "--f", one, "--g", other])
            assert code == EXIT_OK
            # exactly -9.0521157892444831e307; each density passes through
            # exp(ln f) at ln f = 701.5, whose rounding is 5e-14 relative
            assert report_of(out)["result"]["value"] == pytest.approx(
                -9.0521157892444831e307, rel=1e-13)
        code, out, err = invoke(["divergence", "symmetric", "--f", f, "--g", g])
        assert code == EXIT_COMPUTATION
        assert report_of(out)["error"] == (
            "the sum is -inf: a term or the running total overflowed double precision"
        )
        assert err.count("\n") == 1

    def test_usage_no_arguments(self):
        code, _, _ = invoke([])
        assert code == EXIT_USAGE

    def test_usage_unknown_subcommand(self):
        code, out, err = invoke(["frobnicate"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: graddiv")

    def test_first_faulty_file_is_reported(self, tmp_path, sample_files):
        # --f is read and parsed before --g is read
        code, out, err = invoke(
            ["divergence", "discrete", "--f", sample_files["u4"], "--g",
             str(tmp_path / "absent.json")]
        )
        assert code == EXIT_INVALID_INPUT
        error = "grading_sample document is missing keys ['grades']"
        assert report_of(out)["error"] == error
        assert err == f"graddiv: invalid input: {error}\n"

    @pytest.mark.parametrize("command", _FILE_SCHEMAS)
    def test_document_of_another_schema_names_the_expected_one(self, sample_files, command):
        files = _FILE_SCHEMAS[command]
        valid = {"grading_sample": "f_grades", "weights": "u4", "masses": "masses",
                 "capacity": "cap", "continuous_grading": "beta25"}
        for wrong_flag, schema in files.items():
            other = "u4" if schema == "masses" else "masses"
            argv = command.split()
            for flag, flag_schema in files.items():
                doc = other if flag == wrong_flag else valid[flag_schema]
                argv += [flag, sample_files[doc]]
            code, out, err = invoke(argv)
            assert code == EXIT_INVALID_INPUT, argv
            assert report_of(out)["error"].startswith(f"{schema} document is missing keys")
            assert err.count("\n") == 1

    def test_version_exits_zero(self):
        code, out, err = invoke(["--version"])
        assert code == EXIT_OK
        assert __version__ in out + err


class TestCommands:
    def test_divergence_discrete_identity(self, sample_files):
        code, out, _ = invoke(
            ["divergence", "discrete", "--f", sample_files["f_grades"], "--g",
             sample_files["f_grades"]]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == 0

    def test_divergence_continuous(self, sample_files):
        code, out, _ = invoke(
            ["divergence", "continuous", "--f", sample_files["power2"], "--g",
             sample_files["uniform"]]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == pytest.approx(
            0.5 - math.log(2.0), abs=1e-8
        )

    def test_divergence_symmetric(self, sample_files):
        code, out, _ = invoke(
            ["divergence", "symmetric", "--f", sample_files["uniform"], "--g",
             sample_files["power2"]]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == pytest.approx(-0.5, abs=1e-8)

    def test_entropy_shannon(self, sample_files):
        code, out, _ = invoke(["entropy", "shannon", "--dist", sample_files["u4"]])
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == pytest.approx(math.log(4.0))

    def test_entropy_relative(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "relative", "--f", sample_files["u4"], "--g",
             sample_files["u4"]]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == 0

    def test_entropy_partition(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "partition", "--masses", sample_files["masses"]]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == pytest.approx(
            -1.0397207708399179
        )

    def test_entropy_capacity(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "capacity", "--capacity", sample_files["cap"],
             "--method", "exhaustive"]
        )
        assert code == EXIT_OK
        result = report_of(out)["result"]
        assert result["entropy"] == pytest.approx(0.6108643020548935)
        assert result["argmin_chain"] == [2, 1]
        assert result["method"] == "exhaustive"

    def test_entropy_capacity_exhaustive_at_twelve_elements(self, tmp_path):
        # Beyond the old n <= 10 cap: the lattice search certifies all 12!
        # chains, and its witness and the greedy chain evaluate as reported.
        mu = monotone_capacity(12, [0.31, 0.07, 0.92, 0.0, 0.45, 1.6, 0.13])
        path = write(tmp_path, "cap12.json", capacity_to_doc(mu))
        results = {}
        for method in ("exhaustive", "greedy"):
            code, out, _ = invoke(
                ["entropy", "capacity", "--capacity", path, "--method", method]
            )
            assert code == EXIT_OK
            results[method] = report_of(out)["result"]
            chain = MaximalChain(tuple(results[method]["argmin_chain"]))
            assert results[method]["entropy"] == chain_divergence(mu, chain).value
        assert results["exhaustive"]["chains_examined"] == math.factorial(12)
        assert results["greedy"]["entropy"] >= results["exhaustive"]["entropy"]

    def test_entropy_capacity_greedy(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "capacity", "--capacity", sample_files["cap"],
             "--method", "greedy"]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["chains_examined"] == 1

    def test_entropy_corrected(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "corrected", "--grading", sample_files["uniform"]]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == 0

    @pytest.mark.parametrize("route", ["tol", "quad"])
    def test_infinite_tolerance_is_invalid_input(self, tmp_path, sample_files, route):
        # --tol inf, and 1e400 in a quadrature_spec, which JSON reads as inf
        argv = ["entropy", "corrected", "--grading", sample_files["power2"]]
        if route == "tol":
            argv += ["--tol", "inf"]
        else:
            quad = tmp_path / "quad.json"
            quad.write_text('{"abs_tol": 1e400}', encoding="utf-8")
            argv += ["--quad", str(quad)]
        code, out, _ = invoke(argv)
        assert code == EXIT_INVALID_INPUT
        assert report_of(out)["error"] == "abs_tol must be finite and > 0, got inf"

    def test_tol_override(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "corrected", "--grading", sample_files["power2"],
             "--tol", "1e-6"]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == pytest.approx(
            0.5 - math.log(2.0), abs=1e-5
        )

    def test_tol_overrides_only_the_absolute_tolerance_of_a_quad_file(self, tmp_path, sample_files):
        # rel_tol and max_depth come from the document: one level past the
        # first cannot meet a relative budget of 1e-3 on Beta(2, 5)
        quad = write(tmp_path, "quad_shallow.json", {"max_depth": 1, "rel_tol": 1e-3})
        code, out, err = invoke(
            ["entropy", "corrected", "--grading", sample_files["beta25"],
             "--quad", quad, "--tol", "1e-12"]
        )
        assert code == EXIT_COMPUTATION, err
        assert report_of(out)["error"] == (
            "integral did not converge: error estimate 0.03460630849954662 "
            "exceeds the budget 0.0004845306758614982 after 1 levels"
        )


class TestSubnormalDistances:
    """A density read at a subnormal distance from an end of a wide support:
    the distance over the width underflows to 0, and its log is taken as
    the difference of the two logs."""

    def test_beta_against_a_kinked_piecewise_density(self, tmp_path):
        F = Beta(2.0, 2.0, 0.0, 1000.0)
        G = PiecewiseLinearCdf(((0.0, 0.0), (1e-9, 1e-9), (1000.0, 1000.0)))
        f = write(tmp_path, "f.json", continuous_grading_to_doc(F))
        g = write(tmp_path, "g.json", continuous_grading_to_doc(G))
        code, out, err = invoke(["divergence", "continuous", "--f", f, "--g", g])
        assert code == EXIT_OK, err
        value = report_of(out)["result"]["value"]
        # g's density is 1 on both pieces, so this is the differential
        # entropy of Beta(2, 2) scaled to [0, 1000]
        exact = 5.0 / 3.0 - math.log(6.0) + math.log(1000.0)
        assert abs(value - exact) <= divergence_continuous(F, G).error_estimate

    def test_power_against_a_triangle_with_its_mode_near_an_end(self, tmp_path):
        f = write(tmp_path, "f.json", continuous_grading_to_doc(Power(2.0, 0.0, 1000.0)))
        g = write(tmp_path, "g.json", continuous_grading_to_doc(Triangular(0.0, 1e-9, 1000.0)))
        code, out, err = invoke(["divergence", "symmetric", "--f", f, "--g", g])
        assert code == EXIT_OK, err
        # each direction is -1 for a mode at the end itself
        assert report_of(out)["result"]["value"] == pytest.approx(-2.0, abs=1e-9)


class TestReportShape:
    def test_success_report_fields(self, sample_files):
        _, out, _ = invoke(["entropy", "shannon", "--dist", sample_files["u4"]])
        rep = report_of(out)
        assert set(rep) == {"command", "inputs_digest", "elapsed_ms", "result"}
        assert rep["command"] == "entropy shannon"
        assert isinstance(rep["inputs_digest"], str) and len(rep["inputs_digest"]) == 64
        assert isinstance(rep["elapsed_ms"], (int, float))

    def test_error_report_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]", encoding="utf-8")
        _, out, _ = invoke(["entropy", "shannon", "--dist", str(bad)])
        rep = report_of(out)
        assert set(rep) == {"command", "inputs_digest", "elapsed_ms", "error"}

    def test_result_present_exactly_when_exit_zero(self, sample_files, tmp_path):
        cases = [
            (["entropy", "shannon", "--dist", sample_files["u4"]], EXIT_OK),
            (["entropy", "shannon", "--dist", str(tmp_path / "nope.json")],
             EXIT_INVALID_INPUT),
            (["entropy", "relative", "--f", sample_files["coin"], "--g",
              sample_files["point"], "--strict"], EXIT_COMPUTATION),
        ]
        for argv, expected in cases:
            code, out, _ = invoke(argv)
            rep = report_of(out)
            assert code == expected
            assert ("result" in rep) == (code == EXIT_OK)
            assert ("error" in rep) == (code != EXIT_OK)

    @pytest.mark.parametrize(
        "argv",
        [["divergence", "discrete", "--f", "f_grades", "--g", "g_grades"],
         ["entropy", "shannon", "--dist", "u4"],
         ["entropy", "corrected", "--grading", "piecewise", "--quad", "quad"]],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_digest_is_hashlib_sha256_of_named_file_digests(self, sample_files, argv):
        # SHA-256 over each flag name, a NUL, the hex SHA-256 of its file
        # and a newline, in flag order
        argv = [sample_files.get(a, a) for a in argv]
        _, out, _ = invoke(argv)
        files = {flag[2:]: Path(path).read_bytes() for flag, path in zip(argv, argv[1:])
                 if flag.startswith("--")}
        outer = hashlib.sha256()
        for name in sorted(files):
            outer.update(name.encode() + b"\0")
            outer.update(hashlib.sha256(files[name]).hexdigest().encode() + b"\n")
        assert report_of(out)["inputs_digest"] == outer.hexdigest()

    def test_digest_tracks_inputs(self, sample_files):
        _, out1, _ = invoke(["entropy", "shannon", "--dist", sample_files["u4"]])
        _, out2, _ = invoke(["entropy", "shannon", "--dist", sample_files["coin"]])
        assert report_of(out1)["inputs_digest"] != report_of(out2)["inputs_digest"]

    def test_determinism_excluding_elapsed(self, sample_files):
        argv = ["entropy", "capacity", "--capacity", sample_files["cap"]]
        reports = []
        for _ in range(2):
            _, out, _ = invoke(argv)
            rep = report_of(out)
            rep.pop("elapsed_ms")
            reports.append(canonical_dumps(rep))
        assert reports[0] == reports[1]


class TestValidate:
    def test_round_trips_every_schema(self, sample_files, tmp_path):
        quad = write(tmp_path, "spec.json", {"abs_tol": 1e-9, "max_depth": 40})
        for key in ("f_grades", "u4", "masses", "cap", "uniform"):
            code, out, _ = invoke(["validate", "--input", sample_files[key]])
            assert code == EXIT_OK
            result = report_of(out)["result"]
            echoed = canonical_dumps(result["document"])
            with open(sample_files[key], encoding="utf-8") as fh:
                assert echoed == fh.read()
        code, out, _ = invoke(["validate", "--input", quad])
        assert code == EXIT_OK
        assert report_of(out)["result"]["schema"] == "quadrature_spec"

    @pytest.mark.parametrize(
        "masses, error",
        [
            ([-1, 2.5], "masses must be finite and >= 0, got -1.0"),
            ([2.5, -1e-300], "masses must be finite and >= 0, got -1e-300"),
        ],
    )
    def test_masses_are_judged_as_entropy_partition_judges_them(self, tmp_path, masses, error):
        # README calls masses nonnegative; validate may not accept what the
        # command refuses
        path = write(tmp_path, "m.json", {"masses": masses})
        for argv in (["validate", "--input", path], ["entropy", "partition", "--masses", path]):
            code, out, err = invoke(argv)
            assert code == EXIT_INVALID_INPUT, argv
            assert report_of(out)["error"] == error, argv
            assert err == f"graddiv: invalid input: {error}\n", argv

    def test_validate_rejects_unknown_document(self, tmp_path):
        doc = write(tmp_path, "odd.json", {"spam": 1})
        code, _, _ = invoke(["validate", "--input", doc])
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"grades": [0, 1' + "0" * 400 + "]}", "grades[1] is out of float range"),
            ('{"ground_size": 1, "values": {"": 0, "1": 1' + "0" * 400 + "}}",
             "values['1'] is out of float range"),
            ('{"ground_size": 40, "values": {"": 0}}',
             "values must cover every subset; 1099511627775 missing (1, 2, 1,2, 3, ...)"),
            ('{"ground_size": 100, "values": {"": 0}}',
             "ground_size must be in 1..62, got 100"),
            ('{"grades": ' + "[" * 100_000 + "]" * 100_000 + "}",
             "JSON arrays or objects nest too deeply"),
            ('{"grades": [1' + "0" * sys.get_int_max_str_digits() + "]}",
             f"JSON integer has more than {sys.get_int_max_str_digits()} digits"),
        ],
        ids=["huge-grade", "huge-capacity-value", "ground-size-40", "ground-size-100",
             "deep-nesting", "long-integer"],
    )
    def test_extreme_documents_give_one_error_line(self, tmp_path, text, error):
        path = tmp_path / "extreme.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = invoke(["validate", "--input", str(path)])
        assert code == EXIT_INVALID_INPUT
        assert report_of(out)["error"] == error
        assert err == f"graddiv: invalid input: {error}\n"


class TestModuleEntryPoint:
    def test_python_dash_m(self, sample_files):
        proc = subprocess.run(
            [sys.executable, "-m", "graddiv", "entropy", "shannon", "--dist",
             sample_files["u4"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["result"]["value"] == pytest.approx(
            math.log(4.0)
        )


def without_elapsed(stdout_text):
    report = report_of(stdout_text)
    del report["elapsed_ms"]
    return report


def argparse_output(argv):
    """(exit code, stdout, stderr) of build_parser().parse_args(argv) for an
    argv that exits: help, version or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
    return (EXIT_OK if exc.value.code in (0, None) else EXIT_USAGE), out.getvalue(), err.getvalue()


class TestArgparseForms:
    """The command lines that _read_argv leaves to argparse behave as
    argparse reads them."""

    @pytest.mark.parametrize("form", [
        ["--dist={u4}"],
        ["--dis", "{u4}"],
        ["--dist", "{coin}", "--dist", "{u4}"],  # the last value wins
    ], ids=["equals", "abbreviation", "repeated"])
    def test_lenient_forms_run_as_the_exact_form(self, sample_files, form):
        argv = ["entropy", "shannon", *(a.format(**sample_files) for a in form)]
        assert _read_argv(argv) is None
        code, out, err = invoke(argv)
        assert (code, err) == (EXIT_OK, "")
        exact = invoke(["entropy", "shannon", "--dist", sample_files["u4"]])[1]
        assert without_elapsed(out) == without_elapsed(exact)

    def test_strict_twice_runs_as_strict_once(self, sample_files):
        argv = ["divergence", "discrete", "--f", sample_files["f_grades"],
                "--g", sample_files["g_grades"], "--strict"]
        assert _read_argv([*argv, "--strict"]) is None
        code, out, err = invoke([*argv, "--strict"])
        assert (code, err) == (EXIT_OK, "")
        assert without_elapsed(out) == without_elapsed(invoke(argv)[1])

    def test_negative_tol_is_a_usage_error(self, sample_files):
        argv = ["divergence", "continuous", "--f", sample_files["beta25"],
                "--g", sample_files["beta52"], "--tol", "-1e-9"]
        assert _read_argv(argv) is None
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(": error: argument --tol: expected one argument\n")
        assert (code, out, err) == argparse_output(argv)

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["entropy", "-h"], ["entropy", "capacity", "-h"], ["validate", "-h"],
        ["--version"],
    ], ids=" ".join)
    def test_help_and_version_print_argparse_text(self, argv):
        assert _read_argv(argv) is None
        code, out, err = invoke(argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"graddiv {__version__}" if argv == ["--version"] else "usage: graddiv")
        assert (code, out, err) == argparse_output(argv)

    @pytest.mark.parametrize("argv", [
        [], ["entropy"], ["entropy", "shannon"], ["entropy", "shannon", "--dist"],
        ["entropy", "shannon", "--dist", "x", "extra"], ["entropy", "capacity", "--capacity", "x",
                                                          "--method", "fast"],
        ["divergence", "continuous", "--f", "x", "--g", "y", "--tol", "abc"],
        ["validate", "--input", "x", "--strict"], ["entropy", "shannon", "--", "--dist", "x"],
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_usage_errors_print_argparse_text(self, argv):
        assert _read_argv(argv) is None
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert (code, out, err) == argparse_output(argv)


# Every option of every command, as argparse stores it, by destination.
_OPTIONS = sorted({flag for c in _COMMANDS.values() for flag, _, _ in c.files}
                  | {"method", "quad", "tol", "strict"})
_PATH = "data/in.json"
_VALUES = ["", "-", "-x", "1e-3", "-1e-3", "nan", "abc", "greedy"]
# Each option's own kind of value is weighted up, and most command lines are
# left unedited, so that about two in three drawn command lines are well
# formed; uniform draws almost never are.
_ARG_VALUES = st.sampled_from([_PATH] * 24 + _VALUES)
_NOISE = st.one_of(
    st.sampled_from(sorted({w for name in _COMMANDS for w in name.split()})),
    st.sampled_from([f"--{o}" for o in _OPTIONS]),
    st.sampled_from([f"--{o}"[:k] for o in _OPTIONS for k in range(3, len(o) + 2)]),
    st.sampled_from(_OPTIONS).flatmap(lambda o: _ARG_VALUES.map(lambda v: f"--{o}={v}")),
    st.sampled_from(["-h", "--help", "--version", "--"]),
    _ARG_VALUES,
)


@st.composite
def _command_lines(draw):
    """A command's words and its options in any order, each value drawn
    from _ARG_VALUES, then up to three tokens inserted, dropped or
    replaced."""
    name = draw(st.sampled_from(list(_COMMANDS)))
    command = _COMMANDS[name]
    pairs = [[f"--{flag}", draw(_ARG_VALUES)] for flag, _, _ in command.files]
    optional = {"method": ["--method", draw(st.sampled_from(["greedy", "exhaustive"] * 6 + _VALUES))],
                "quad": ["--quad", draw(_ARG_VALUES)],
                "tol": ["--tol", draw(st.sampled_from(["1e-3", "nan"] * 6 + _VALUES))]}
    for option in {"method": ["method"], "quad": ["quad", "tol"]}.get(command.options, []):
        if draw(st.booleans()):
            pairs.append(optional[option])
    if command.compute is not None and draw(st.booleans()):
        pairs.append(["--strict"])
    argv = name.split() + [a for pair in draw(st.permutations(pairs)) for a in pair]
    for _ in range(draw(st.sampled_from([0] * 12 + [1, 2, 3]))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "drop", "replace"]))
        if edit == "insert":
            argv.insert(at, draw(_NOISE))
        elif at < len(argv):
            argv[at:at + 1] = [] if edit == "drop" else [draw(_NOISE)]
    return argv


def _floats_by_repr(options):
    # nan compares unequal to itself
    return {k: repr(v) if isinstance(v, float) else v for k, v in options.items()}


class TestReadArgv:
    """_read_argv accepts only command lines that argparse reads to the same
    options."""

    @settings(max_examples=400)
    @given(_command_lines())
    def test_an_accepted_command_line_reads_as_argparse_reads_it(self, argv):
        read = _read_argv(argv)
        if read is None:
            return
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                options = vars(build_parser().parse_args(argv))
            except SystemExit:
                pytest.fail(f"argparse rejects {argv}: {err.getvalue()}")
        group, action = options.pop("command"), options.pop("action", None)
        assert read[0] == (f"{group} {action}" if action else group)
        assert _floats_by_repr(read[1]) == _floats_by_repr(options)


_PRINT_LOADED = """
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""

# dataclasses imports inspect, ast, dis and tokenize: a start-up cost no
# command needs
_PRINT_INTROSPECTION = """
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""

_PRINT_COMPUTING = """
print(" ".join(sorted(m for m in sys.modules if m in (
    "graddiv.capacity", "graddiv.continuous", "graddiv.families", "graddiv.quadrature"))))
"""

# Run in a fresh interpreter: with no arguments, import graddiv; otherwise
# run the CLI on them (it must exit 0).
_RUN_ARGV = """
import io, sys
if len(sys.argv) > 1:
    from graddiv.cli import run
    code = run(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0, code
else:
    import graddiv
"""

# The same, printing the numpy and scipy modules loaded by then.
_LOADED_AFTER = _RUN_ARGV + _PRINT_LOADED


def numeric_modules_after(argv):
    return modules_printed_by(_LOADED_AFTER, *argv)


def introspection_modules_after(argv):
    return modules_printed_by(_RUN_ARGV + _PRINT_INTROSPECTION, *argv)


def modules_printed_by(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def capacity_file(tmp_path, n):
    """A capacity document with n elements, on either side of
    capacity._NUMPY_FROM."""
    mu = monotone_capacity(n, [0.3, 0.0, 1.7, 0.05])
    return write(tmp_path, f"cap{n}.json", capacity_to_doc(mu))


def argparse_or_typing_after(argv):
    return clean_modules_after(argv, ("argparse", "typing"))


def clean_modules_after(argv, names):
    """Which of the modules names a fresh `python -S` process has loaded
    after running the CLI on argv: without the site hooks, which may load
    typing and pathlib before graddiv does."""
    script = _RUN_ARGV + f'print(" ".join(m for m in {names!r} if m in sys.modules))'
    src = str(Path(graddiv.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


_DISCRETE_COMMANDS = [
    ["divergence", "discrete", "--f", "f_grades", "--g", "g_grades"],
    ["entropy", "shannon", "--dist", "u4"],
    ["entropy", "relative", "--f", "u4", "--g", "u4"],
    ["entropy", "partition", "--masses", "masses"],
    ["validate", "--input", "f_grades"],
    ["validate", "--input", "u4"],
    ["validate", "--input", "masses"],
]

_CONTINUOUS_COMMANDS = [
    ["entropy", "corrected", "--grading", "beta25"],
    ["entropy", "corrected", "--grading", "power2"],
    ["entropy", "corrected", "--grading", "tnormal"],
    ["entropy", "corrected", "--grading", "triangular"],
    ["entropy", "corrected", "--grading", "uniform"],
    ["entropy", "corrected", "--grading", "piecewise", "--quad", "quad"],
    ["divergence", "continuous", "--f", "beta25", "--g", "beta52"],
    ["divergence", "symmetric", "--f", "beta25", "--g", "beta52"],
    ["validate", "--input", "beta25"],
    ["validate", "--input", "quad"],
]

_CAPACITY_COMMANDS = [
    ["entropy", "capacity", "--method", "exhaustive", "--capacity"],
    ["entropy", "capacity", "--method", "greedy", "--capacity"],
    ["validate", "--input"],
]


class TestImportCost:
    """A process loads only the numeric libraries its command computes with."""

    def test_import_graddiv_loads_neither_numpy_nor_scipy(self):
        assert numeric_modules_after([]) == []

    @pytest.mark.parametrize("argv", _DISCRETE_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_discrete_commands_load_neither(self, sample_files, argv):
        assert numeric_modules_after([sample_files.get(a, a) for a in argv]) == []

    @pytest.mark.parametrize("argv", _DISCRETE_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_discrete_commands_load_no_other_computing_module(self, sample_files, argv):
        # each would cost every discrete call its import
        argv = [sample_files.get(a, a) for a in argv]
        assert modules_printed_by(_RUN_ARGV + _PRINT_COMPUTING, *argv) == []

    @pytest.mark.parametrize("argv", _CONTINUOUS_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_continuous_commands_load_neither(self, sample_files, argv):
        assert numeric_modules_after([sample_files.get(a, a) for a in argv]) == []

    @pytest.mark.parametrize("argv", _CAPACITY_COMMANDS, ids=lambda argv: " ".join(argv[:-1]))
    @pytest.mark.parametrize("n", [2, _NUMPY_FROM - 1])
    def test_capacity_commands_below_the_switch_load_neither(self, tmp_path, argv, n):
        assert numeric_modules_after([*argv, capacity_file(tmp_path, n)]) == []

    @pytest.mark.skipif(
        not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
        reason="this interpreter has no builtin sha256 module",
    )
    @pytest.mark.parametrize("argv", _DISCRETE_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_discrete_commands_load_no_openssl(self, sample_files, argv):
        # hashlib loads OpenSSL's _hashlib; the digest needs only sha256
        script = _RUN_ARGV + 'print(" ".join(m for m in ("hashlib", "_hashlib") if m in sys.modules))'
        assert modules_printed_by(script, *[sample_files.get(a, a) for a in argv]) == []

    @pytest.mark.parametrize(
        "argv", [*_DISCRETE_COMMANDS, *_CONTINUOUS_COMMANDS], ids=lambda argv: " ".join(argv)
    )
    def test_well_formed_commands_load_no_argparse(self, sample_files, argv):
        # argparse and gettext are 2-3 ms of import and build_parser 3.5-5 ms
        script = _RUN_ARGV + 'print(" ".join(m for m in ("argparse", "gettext") if m in sys.modules))'
        assert modules_printed_by(script, *[sample_files.get(a, a) for a in argv]) == []

    @pytest.mark.parametrize("argv", _CAPACITY_COMMANDS, ids=lambda argv: " ".join(argv[:-1]))
    def test_well_formed_capacity_commands_load_no_argparse(self, tmp_path, argv):
        script = _RUN_ARGV + 'print(" ".join(m for m in ("argparse", "gettext") if m in sys.modules))'
        assert modules_printed_by(script, *argv, capacity_file(tmp_path, 2)) == []

    @pytest.mark.parametrize("argv", _DISCRETE_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_discrete_commands_load_neither_argparse_nor_typing(self, sample_files, argv):
        assert argparse_or_typing_after([sample_files.get(a, a) for a in argv]) == []

    @pytest.mark.parametrize("argv", _DISCRETE_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_discrete_commands_load_neither_numbers_nor_pathlib(self, sample_files, argv):
        # numbers is 0.7 ms of import and pathlib about 5 ms under -S; the
        # sample files hold ints as well as floats, which skip numbers too
        names = ("numbers", "pathlib")
        assert clean_modules_after([sample_files.get(a, a) for a in argv], names) == []

    @pytest.mark.parametrize("argv", _CONTINUOUS_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_continuous_commands_load_neither_argparse_nor_typing(self, sample_files, argv):
        assert argparse_or_typing_after([sample_files.get(a, a) for a in argv]) == []

    @pytest.mark.parametrize("argv", _CAPACITY_COMMANDS, ids=lambda argv: " ".join(argv[:-1]))
    @pytest.mark.parametrize("n", [2, _NUMPY_FROM - 1])
    def test_capacity_commands_below_the_switch_load_neither_argparse_nor_typing(
        self, tmp_path, argv, n
    ):
        # from the switch on numpy loads typing itself
        assert argparse_or_typing_after([*argv, capacity_file(tmp_path, n)]) == []

    def test_import_graddiv_loads_neither_dataclasses_nor_inspect(self):
        assert introspection_modules_after([]) == []

    @pytest.mark.parametrize(
        "argv", [*_DISCRETE_COMMANDS, *_CONTINUOUS_COMMANDS], ids=lambda argv: " ".join(argv)
    )
    def test_commands_load_neither_dataclasses_nor_inspect(self, sample_files, argv):
        assert introspection_modules_after([sample_files.get(a, a) for a in argv]) == []

    @pytest.mark.parametrize("argv", _CAPACITY_COMMANDS, ids=lambda argv: " ".join(argv[:-1]))
    @pytest.mark.parametrize("n", [2, 8])
    def test_capacity_commands_load_neither_dataclasses_nor_inspect(self, tmp_path, argv, n):
        assert introspection_modules_after([*argv, capacity_file(tmp_path, n)]) == []

    def test_capacity_on_infinite_terms_loads_neither(self):
        # Terms beyond double range, and the infinite terms that send the
        # prefix step to its bisection over float bit patterns, stay on
        # Python floats too.
        script = """
import math, sys
from graddiv import Capacity, ComputationError, capacity_entropy
from graddiv.capacity import _largest_prefix
mu = Capacity(2, (0.0, 1e308, 1.0, 1.7e308))
for method in ("exhaustive", "greedy"):
    try:
        capacity_entropy(mu, method)
        raise AssertionError(method)
    except ComputationError:
        pass
assert _largest_prefix(-math.inf, 1.0) == sys.float_info.max
""" + _PRINT_LOADED
        assert modules_printed_by(script) == []

    def test_capacity_entropy_loads_numpy_but_not_scipy(self, tmp_path):
        # from capacity._NUMPY_FROM elements on; validate loads the same
        path = capacity_file(tmp_path, _NUMPY_FROM)
        for argv in _CAPACITY_COMMANDS:
            loaded = numeric_modules_after([*argv, path])
            assert "numpy" in loaded, argv
            assert not [m for m in loaded if m.split(".")[0] == "scipy"], argv

    @pytest.mark.parametrize("argv", _CAPACITY_COMMANDS, ids=lambda argv: " ".join(argv[:-1]))
    def test_pruned_capacity_loads_no_numpy_ma(self, tmp_path, argv):
        # np.unique imports numpy.ma on its first call, 11-14 ms of a process
        loaded = numeric_modules_after([*argv, capacity_file(tmp_path, 14)])
        assert "numpy" in loaded
        assert "numpy.ma" not in loaded

    def test_only_capacity_imports_numpy_or_scipy_at_module_level(self):
        offenders = []
        for path in sorted(Path(graddiv.__file__).parent.glob("*.py")):
            if path.name == "_capacity_numpy.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for name in _module_level_imports(tree.body):
                if name.split(".")[0] in ("numpy", "scipy"):
                    offenders.append(f"{path.name} imports {name}")
        assert offenders == []

    def test_no_module_imports_dataclasses(self):
        offenders = []
        for path in sorted(Path(graddiv.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [f"{path.name} imports {n}" for n in names
                              if n.split(".")[0] == "dataclasses"]
        assert offenders == []


def _module_level_imports(body):
    """Modules imported when a module body runs: function bodies are left
    out, class bodies and conditional blocks are searched, and
    `if TYPE_CHECKING:` blocks never run."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from _module_level_imports(node.body)
            yield from _module_level_imports(node.orelse)
        elif isinstance(node, (ast.Try, ast.With, ast.ClassDef)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level_imports(handler.body)


def _parser_options(parser, words=()):
    """(command, options) for each command of the parser, its options
    without those every command of a kind shares."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_options(sub, (*words, name))
            return
    options = {o for action in parser._actions for o in action.option_strings}
    yield " ".join(words), options - {"-h", "--help", "--quad", "--tol", "--strict"}


class TestReadme:
    def test_subcommand_table_matches_the_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("\nSubcommands:\n\n", 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in table.splitlines()[2:]:
            cell = line.split("`")[1]
            rows[cell.split(" --")[0]] = set(re.findall(r"--\w+", cell))
        assert rows == dict(_parser_options(build_parser()))


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        for name in graddiv.__all__:
            assert getattr(graddiv, name) is not None

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from graddiv import *", namespace)
        for name in graddiv.__all__:
            assert namespace[name] is getattr(graddiv, name)

    def test_dir_lists_every_name(self):
        assert set(graddiv.__all__) <= set(dir(graddiv))

    def test_only_the_package_lists_the_exported_names(self):
        # _EXPORTS is the one declaration; jsonio and cli, exposed as
        # modules, keep their own __all__
        for module in graddiv._EXPORTS:
            assert not hasattr(importlib.import_module(f"graddiv.{module}"), "__all__"), module

    def test_submodule_attribute_imports_it(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import graddiv; print(graddiv.jsonio.__name__, graddiv.cli.run.__module__)"],
            capture_output=True,
            text=True,
        )
        assert proc.stdout.split() == ["graddiv.jsonio", "graddiv.cli"], proc.stderr

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            graddiv.no_such_name


# finite doubles at and near the edges of the range, and a few ordinary ones
_EXTREME = st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e300, 1e308, 1.7976931348623157e308, 0.25, 0.5, 1.0, 2.0]
)
_SIGNED_EXTREME = st.one_of(_EXTREME, _EXTREME.map(lambda x: -x))


# shape parameter names of each parametric family, in document order
_FAMILY_PARAMS = {
    "uniform": (),
    "triangular": ("c",),
    "beta": ("alpha", "beta"),
    "truncated_normal": ("mu", "sigma"),
    "power": ("p",),
}


@st.composite
def _continuous_docs(draw):
    """continuous_grading documents whose numbers sit at the edges of the
    double range, each parameter sometimes equal to a support endpoint."""
    family = draw(st.sampled_from([*_FAMILY_PARAMS, "piecewise_linear_cdf"]))
    a, b = draw(st.lists(_SIGNED_EXTREME, min_size=2, max_size=2, unique=True).map(sorted))
    if family == "piecewise_linear_cdf":
        size = draw(st.integers(2, 4))
        xs = draw(st.lists(_SIGNED_EXTREME, min_size=size, max_size=size, unique=True).map(sorted))
        ys = draw(st.lists(_SIGNED_EXTREME, min_size=size, max_size=size, unique=True).map(sorted))
        return {"family": family, "params": {"knots": [list(k) for k in zip(xs, ys)]},
                "support": [xs[0], xs[-1]]}
    number = st.one_of(_SIGNED_EXTREME, st.sampled_from([a, b]))
    params = {name: draw(number) for name in _FAMILY_PARAMS[family]}
    return {"family": family, "params": params, "support": [a, b]}


def _capacity_docs():
    """capacity documents of 1 to 4 elements with extreme values, and some
    with a key missing or a ground_size out of range."""

    def build(n, values, drop, ground_size):
        keys = [",".join(str(e + 1) for e in range(n) if mask >> e & 1)
                for mask in range(1 << n)]
        doc = dict(zip(keys, values))
        if drop is not None:
            doc.pop(keys[drop % len(keys)])
        return {"ground_size": n if ground_size is None else ground_size, "values": doc}

    return st.integers(1, 4).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(_SIGNED_EXTREME, min_size=1 << n, max_size=1 << n),
            st.one_of(st.none(), st.integers(0, 15)),
            st.one_of(st.none(), st.sampled_from([0, -1, 5, 63, 2**70])),
        )
    )


# any JSON value, with the keys of every input schema among the object keys
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.one_of(
                st.sampled_from(["grades", "labels", "weights", "masses", "ground_size",
                                 "values", "family", "params", "support", "abs_tol",
                                 "rel_tol", "max_depth", "knots", "alpha"]),
                st.text(max_size=4),
            ),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


class TestTotalContract:
    """Every document, valid or not, gives exactly one canonical JSON line
    and exit 0, 1 or 2, with a result exactly on success."""

    @staticmethod
    def _check(argv):
        code, out, err = invoke(argv)
        assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_COMPUTATION), err
        assert out.endswith("\n") and out.count("\n") == 1
        report = json.loads(out)
        assert canonical_dumps(report) + "\n" == out
        assert ("result" in report) == (code == EXIT_OK)
        assert ("error" in report) == (code != EXIT_OK)
        assert "Traceback" not in err

    @settings(max_examples=150)
    @given(
        st.lists(_SIGNED_EXTREME, min_size=2, max_size=5, unique=True).map(sorted),
        st.lists(_SIGNED_EXTREME, min_size=2, max_size=5, unique=True).map(sorted),
        st.lists(st.one_of(_SIGNED_EXTREME, st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=1, max_size=5),
        st.lists(_EXTREME, min_size=1, max_size=5),
        st.lists(_EXTREME, min_size=0, max_size=5),
    )
    def test_extreme_documents(self, f_grades, g_grades, grades, weights, masses):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            f = write(tmp, "f.json", {"grades": f_grades})
            g = write(tmp, "g.json", {"grades": g_grades})
            loose = write(tmp, "loose.json", {"grades": grades})
            w = write(tmp, "w.json", {"weights": weights})
            half = write(tmp, "half.json", {"weights": [0.5, 0.5, 0.0, 0.0, 0.0][: len(weights)]})
            m = write(tmp, "m.json", {"masses": masses})
            for argv in (
                ["divergence", "discrete", "--f", f, "--g", g],
                ["divergence", "discrete", "--f", loose, "--g", g],
                ["validate", "--input", f],
                ["entropy", "shannon", "--dist", w],
                ["entropy", "relative", "--f", w, "--g", half],
                ["entropy", "relative", "--f", half, "--g", w],
                ["entropy", "partition", "--masses", m],
                ["validate", "--input", m],
            ):
                self._check(argv)

    @settings(max_examples=200)
    @given(_continuous_docs())
    @example({"family": "beta", "params": {"alpha": 1e300, "beta": 1e300}, "support": [0.0, 1.0]})
    @example({"family": "triangular", "params": {"c": 1e300}, "support": [0.0, 1e300]})
    @example({"family": "truncated_normal", "params": {"mu": 0.0, "sigma": 1e-300},
              "support": [3e-299, 1.0]})
    def test_extreme_continuous_documents(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            grading = write(tmp, "c.json", doc)
            # a shallow refinement keeps every example fast; the contract
            # does not depend on where the refiner gives up
            quad = write(tmp, "q.json", {"max_depth": 6})
            uniform = write(tmp, "u.json", {"family": "uniform", "params": {},
                                            "support": doc["support"]})
            self._check(["validate", "--input", grading])
            self._check(["entropy", "corrected", "--grading", grading, "--quad", quad])
            self._check(["divergence", "continuous", "--f", grading, "--g", uniform,
                         "--quad", quad])

    @settings(max_examples=100)
    @given(_capacity_docs())
    # both chains' entropies are below -1.8e308
    @example({"ground_size": 2, "values": {"": 0.0, "1": 1e308, "2": 1.0, "1,2": 1.7e308}})
    def test_extreme_capacity_documents(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            cap = write(Path(tmp), "k.json", doc)
            self._check(["validate", "--input", cap])
            for method in ("exhaustive", "greedy"):
                self._check(["entropy", "capacity", "--capacity", cap, "--method", method])

    @settings(max_examples=200)
    @given(st.one_of(
        st.binary(max_size=64),
        _JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")),
    ))
    @example(b'{"family":["beta"],"params":{},"support":[0,1]}')
    def test_arbitrary_bytes_to_validate(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "any.json"
            path.write_bytes(data)
            self._check(["validate", "--input", str(path)])

    @pytest.mark.parametrize(
        "f_grades, g_grades, code",
        [
            # the span's width overflows
            ([-1e308, 1e308], [0.0, 1.0], EXIT_INVALID_INPUT),
            # the value is beyond double range: through an underflowing
            # ratio, a subnormal one, and a total of two finite terms
            ([0.0, 1.7e308], [0.0, 1e-300], EXIT_COMPUTATION),
            ([0.0, 1.7e308], [0.0, 1.0], EXIT_COMPUTATION),
            ([0.0, 1e308, 1.7e308], [0.0, 1.8e307, 4.4e307], EXIT_COMPUTATION),
        ],
    )
    def test_overflowing_grades(self, tmp_path, f_grades, g_grades, code):
        f = write(tmp_path, "f.json", {"grades": f_grades})
        g = write(tmp_path, "g.json", {"grades": g_grades})
        got, out, err = invoke(["divergence", "discrete", "--f", f, "--g", g])
        assert got == code
        assert "error" in report_of(out)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "f_grades, g_grades, value",
        [
            ([0.0, 1e-300], [0.0, 1e300], 1.3815510557964273e-297),
            ([0.0, 1e300], [0.0, 1e-300], -1.3815510557964274e303),
            ([0.0, 5e-324], [0.0, 1.0], 3.676e-321),
        ],
    )
    def test_ratio_out_of_double_range(self, tmp_path, f_grades, g_grades, value):
        # the ratio of increments is not a double, the divergence is
        f = write(tmp_path, "f.json", {"grades": f_grades})
        g = write(tmp_path, "g.json", {"grades": g_grades})
        got, out, err = invoke(["divergence", "discrete", "--f", f, "--g", g])
        assert got == EXIT_OK, err
        assert report_of(out)["result"]["value"] == value
