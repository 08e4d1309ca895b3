import io
import json
import math
import subprocess
import sys

import pytest

import graddiv
from graddiv import MaximalChain, __version__, chain_divergence
from graddiv.cli import (
    EXIT_COMPUTATION,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    run,
)
from graddiv.jsonio import canonical_dumps, capacity_to_doc

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

    def test_usage_no_arguments(self):
        code, _, _ = invoke([])
        assert code == EXIT_USAGE

    def test_usage_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate"])
        assert code == EXIT_USAGE
        assert err != ""

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

    def test_tol_override(self, sample_files):
        code, out, _ = invoke(
            ["entropy", "corrected", "--grading", sample_files["power2"],
             "--tol", "1e-6"]
        )
        assert code == EXIT_OK
        assert report_of(out)["result"]["value"] == pytest.approx(
            0.5 - math.log(2.0), abs=1e-5
        )


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
             "ground_size 100 has 2^100 subsets, more values than a document can hold"),
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


# Run in a fresh interpreter: with no arguments, import graddiv; otherwise
# run the CLI on them (it must exit 0). Prints the numpy and scipy modules
# loaded by then.
_LOADED_AFTER = """
import io, sys
if len(sys.argv) > 1:
    from graddiv.cli import run
    code = run(sys.argv[1:], stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0, code
else:
    import graddiv
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


def numeric_modules_after(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestImportCost:
    """A process loads only the numeric libraries its command computes with."""

    def test_import_graddiv_loads_neither_numpy_nor_scipy(self):
        assert numeric_modules_after([]) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["divergence", "discrete", "--f", "f_grades", "--g", "g_grades"],
            ["entropy", "shannon", "--dist", "u4"],
            ["entropy", "relative", "--f", "u4", "--g", "u4"],
            ["entropy", "partition", "--masses", "masses"],
            ["validate", "--input", "f_grades"],
            ["validate", "--input", "u4"],
            ["validate", "--input", "masses"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_discrete_commands_load_neither(self, sample_files, argv):
        assert numeric_modules_after([sample_files.get(a, a) for a in argv]) == []

    def test_capacity_entropy_loads_numpy_but_not_scipy(self, sample_files):
        loaded = numeric_modules_after(
            ["entropy", "capacity", "--capacity", sample_files["cap"]]
        )
        assert "numpy" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]


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
