"""The benchmark's four timed workloads and the untimed known_defects
workload: their inputs, operations and checks.

Each workload writes its seeded inputs under a work directory and returns a
fixed rotation of cases. A case's ``run`` is the timed operation; its
``check`` runs untimed on what ``run`` returned and compares it with a
reference from ``reference.py``. Library calls go through module
attributes (``jsonio.load_json``), so ``tracing.instrument`` can wrap them.
"""

import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from graddiv import capacity, cli, continuous, discrete, jsonio
from graddiv.quadrature import QuadratureSpec

import reference as ref


@dataclass
class Verdict:
    """Outcome of checking one operation.

    failure is None when the operation passed. abs_err is |value - reference|
    for a finite value, estimate the error_estimate the library reported,
    and gap the greedy-minus-exhaustive capacity entropy.
    """

    failure: str | None = None
    abs_err: float | None = None
    estimate: float | None = None
    gap: float | None = None


@dataclass
class Case:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]
    argv: list[str] | None = None  # cli_small only: the subcommand's arguments


def _within(value: float, expected: float, allowed: float, what: str) -> Verdict:
    if not math.isfinite(value):
        return Verdict(f"{what}: non-finite value {value!r}, expected {expected!r}")
    err = abs(value - expected)
    if err > allowed:
        return Verdict(f"{what}: |{value!r} - {expected!r}| = {err:.3g} > {allowed:.3g}", err)
    return Verdict(None, err)


def _write_json(path: Path, doc: Any) -> None:
    path.write_text(json.dumps(doc))


QUAD = QuadratureSpec()

_CALIBRATION_TEXT = json.dumps(np.random.default_rng(0).uniform(0.0, 1.0, 20_000).tolist())
_CALIBRATION_ARRAY = np.random.default_rng(1).uniform(0.0, 1.0, (20_000, 8))


def calibration_time() -> float:
    """Seconds for a fixed piece of work that uses no graddiv code: parse,
    sort and index 20 000 floats, then a numpy log-sum-argmin."""
    start = time.perf_counter()
    values = json.loads(_CALIBRATION_TEXT)
    values.sort()
    {i: v for i, v in enumerate(values)}
    np.log(_CALIBRATION_ARRAY).sum(axis=1).argmin()
    return time.perf_counter() - start


def quad_budget(expected: float) -> float:
    """The tolerance a default QuadratureSpec asks for, on the reference value."""
    return max(QUAD.abs_tol, QUAD.rel_tol * abs(expected))


# ---------------------------------------------------------------- documents


def capacity_doc(values: list[float], n: int) -> dict:
    keys = {}
    for mask, value in enumerate(values):
        keys[",".join(str(e + 1) for e in range(n) if mask >> e & 1)] = value
    return {"ground_size": n, "values": keys}


def beta_doc(alpha: float, beta: float) -> dict:
    return {"family": "beta", "params": {"alpha": alpha, "beta": beta}, "support": [0.0, 1.0]}


def power_doc(p: float) -> dict:
    return {"family": "power", "params": {"p": p}, "support": [0.0, 1.0]}


UNIFORM_UNIT = {"family": "uniform", "params": {}, "support": [0.0, 1.0]}


def _beta_shape(doc: dict) -> tuple[float, float]:
    """Power(p) is Beta(p, 1) and Uniform is Beta(1, 1) on [0, 1]."""
    if doc["family"] == "beta":
        return doc["params"]["alpha"], doc["params"]["beta"]
    if doc["family"] == "power":
        return doc["params"]["p"], 1.0
    return 1.0, 1.0


# ---------------------------------------------------------------- checks


def check_divergence_doc(out: str, result) -> str | None:
    """The canonical result document must say what the result object says."""
    expected = {
        "value": "-inf" if result.value == -math.inf else result.value,
        "terms_used": result.terms_used,
        "dropped_mass": result.dropped_mass,
        "flags": sorted(result.flags),
    }
    if json.loads(out) != expected:
        return f"serialized result {out[:80]!r} disagrees with {expected!r}"
    return None


def check_discrete(result_and_out, expected: float, bound: float, terms: int, what: str) -> Verdict:
    result, out = result_and_out
    if result.flags or result.terms_used != terms:
        return Verdict(f"{what}: flags {sorted(result.flags)} terms {result.terms_used}, expected none and {terms}")
    bad = check_divergence_doc(out, result)
    if bad:
        return Verdict(f"{what}: {bad}")
    return _within(result.value, expected, bound, what)


def check_quadrature(result, expected: float, budget: float, what: str) -> Verdict:
    """Pass when |value - reference| <= max(reported estimate, requested budget)."""
    if result.flags:
        return Verdict(f"{what}: unexpected flags {sorted(result.flags)}")
    verdict = _within(result.value, expected, max(result.error_estimate, budget), what)
    verdict.estimate = result.error_estimate
    return verdict


def check_capacity(mu, reports, outs, oracle: tuple[float, float]) -> Verdict:
    """Exhaustive must match the lattice shortest path; greedy must not beat
    it; each witness chain must evaluate to the entropy reported for it, and
    each serialized report must say what the report says."""
    exhaustive, greedy = reports
    n = mu.ground_size
    minimum, largest = oracle
    if exhaustive.chains_examined != math.factorial(n):
        return Verdict(f"n={n}: exhaustive examined {exhaustive.chains_examined} chains")
    for report, out in zip(reports, outs):
        witness = capacity.chain_divergence(mu, report.argmin_chain).value
        if witness != report.entropy:
            return Verdict(f"n={n} {report.method}: witness evaluates to {witness!r}, reported {report.entropy!r}")
        expected = {"entropy": report.entropy, "argmin_chain": list(report.argmin_chain.order),
                    "chains_examined": report.chains_examined, "method": report.method}
        if json.loads(out) != expected:
            return Verdict(f"n={n} {report.method}: serialized report {out!r} disagrees")
    if greedy.entropy < exhaustive.entropy:
        return Verdict(f"n={n}: greedy {greedy.entropy!r} below exhaustive {exhaustive.entropy!r}")
    verdict = _within(exhaustive.entropy, minimum, 4.0 * ref.gamma(n) * n * largest, f"n={n} exhaustive")
    if verdict.failure:
        return verdict
    terms = ref.chain_terms(list(mu.values), list(greedy.argmin_chain.order))
    greedy_verdict = _within(
        greedy.entropy, math.fsum(terms), 4.0 * ref.summation_bound(terms), f"n={n} greedy"
    )
    greedy_verdict.abs_err = max(verdict.abs_err, greedy_verdict.abs_err or 0.0)
    greedy_verdict.gap = greedy.entropy - exhaustive.entropy
    return greedy_verdict


# ---------------------------------------------------------------- cli_small

_ELAPSED = re.compile(r'"elapsed_ms":[^,}]*')


def _without_elapsed(line: str) -> str:
    return _ELAPSED.sub('"elapsed_ms":_', line)


def cli_command(root: Path) -> tuple[list[str], dict]:
    """How to start the working tree's CLI: python -m graddiv with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return [sys.executable, "-m", "graddiv"], env


# Fixed continuous inputs: the seed does not decide whether a quadrature
# case passes. CLI_BETA_PAIR is the pair the two continuous subcommands are
# timed on. CLI_DEFECT_PAIR's reverse direction misses the default budget
# (error 5.7e-9 against an estimate of 7.4e-10), and the arcsine
# Beta(0.5, 0.5) of the README misses it too (6.3e-8 against 1.0e-9); both
# are in KNOWN_DEFECTS.
CLI_BETA_PAIR = (2.0, 5.0, 5.0, 2.0)
CLI_DEFECT_PAIR = (3.3674, 4.6443, 2.1339, 4.7086)


def cli_small(seed: int, work: Path, root: Path) -> list[Case]:
    rng = np.random.default_rng(seed)

    def put(name: str, doc: Any) -> str:
        _write_json(work / f"{name}.json", doc)
        return str(work / f"{name}.json")

    # README invocations
    f3 = put("f3", {"grades": [0.0, 0.5, 1.0]})
    cap2_values = [0.0, 0.6, 0.7, 1.0]
    cap2 = put("cap2", capacity_doc(cap2_values, 2))
    u4 = put("u4", {"weights": [0.25, 0.25, 0.25, 0.25]})
    # the ROADMAP's slow single calls
    arcsine = put("arcsine", beta_doc(0.5, 0.5))
    cap8_values = ref.random_monotone_capacity(rng, 8)
    cap8 = put("cap8", capacity_doc(cap8_values, 8))
    skewed = put("skewed", beta_doc(2.0, 5.0))
    shapes = CLI_BETA_PAIR
    bf = put("bf", beta_doc(shapes[0], shapes[1]))
    bg = put("bg", beta_doc(shapes[2], shapes[3]))
    defect = CLI_DEFECT_PAIR
    df = put("df", beta_doc(defect[0], defect[1]))
    dg = put("dg", beta_doc(defect[2], defect[3]))
    # small seeded documents for the remaining subcommands
    raw = rng.uniform(0.05, 1.0, (2, 16))
    wf_list = [float(x) for x in raw[0] / raw[0].sum()]
    wg_list = [float(x) for x in raw[1] / raw[1].sum()]
    wf, wg = put("wf", {"weights": wf_list}), put("wg", {"weights": wg_list})
    masses_list = [float(x) for x in rng.uniform(0.0, 2.0, 16)]
    masses = put("masses", {"masses": masses_list})
    grades_doc = {"grades": [float(x) for x in np.cumsum(rng.uniform(0.1, 1.0, 16))]}
    grades = put("grades", grades_doc)

    kl_fg = ref.beta_kl(*shapes)
    kl_gf = ref.beta_kl(*shapes[2:], *shapes[:2])
    defect_kl = ref.beta_kl(*defect) + ref.beta_kl(*defect[2:], *defect[:2])
    defect_budget = quad_budget(ref.beta_kl(*defect)) + quad_budget(ref.beta_kl(*defect[2:], *defect[:2]))
    cap2_min, cap2_largest = ref.lattice_minimum(cap2_values, 2)
    cap8_min, cap8_largest = ref.lattice_minimum(cap8_values, 8)
    relative = ref.relative_terms(wf_list, wg_list)
    shannon4 = ref.shannon_terms([0.25] * 4)
    partition = ref.shannon_terms(masses_list)

    def value_of(result):
        return result["value"]

    # (name, argv, expected, allowed error, result field)
    rotation = [
        ("divergence discrete", ["divergence", "discrete", "--f", f3, "--g", f3], 0.0, 0.0, value_of),
        ("entropy capacity n=2", ["entropy", "capacity", "--capacity", cap2, "--method", "exhaustive"],
         cap2_min, 4.0 * ref.gamma(2) * 2 * cap2_largest, lambda r: r["entropy"]),
        ("entropy shannon", ["entropy", "shannon", "--dist", u4],
         math.fsum(shannon4), ref.summation_bound(shannon4), value_of),
        ("entropy corrected beta(2,5)", ["entropy", "corrected", "--grading", skewed],
         ref.beta_entropy(2.0, 5.0), quad_budget(ref.beta_entropy(2.0, 5.0)), value_of),
        ("entropy corrected beta(0.5,0.5)", ["entropy", "corrected", "--grading", arcsine],
         ref.beta_entropy(0.5, 0.5), quad_budget(ref.beta_entropy(0.5, 0.5)), value_of),
        ("entropy capacity n=8", ["entropy", "capacity", "--capacity", cap8],
         cap8_min, 4.0 * ref.gamma(8) * 8 * cap8_largest, lambda r: r["entropy"]),
        ("divergence continuous", ["divergence", "continuous", "--f", bf, "--g", bg],
         -kl_fg, quad_budget(kl_fg), value_of),
        ("divergence symmetric", ["divergence", "symmetric", "--f", bf, "--g", bg],
         -kl_fg - kl_gf, quad_budget(kl_fg) + quad_budget(kl_gf), value_of),
        ("divergence symmetric beta(3.3674,4.6443)|beta(2.1339,4.7086)",
         ["divergence", "symmetric", "--f", df, "--g", dg], -defect_kl, defect_budget, value_of),
        ("entropy relative", ["entropy", "relative", "--f", wf, "--g", wg],
         math.fsum(relative), ref.summation_bound(relative), value_of),
        ("entropy partition", ["entropy", "partition", "--masses", masses],
         math.fsum(partition), ref.summation_bound(partition), value_of),
        ("validate", ["validate", "--input", grades], None, None, lambda r: r["document"]),
    ]

    command, env = cli_command(root)
    cases = []
    for name, argv, expected, allowed, field in rotation:
        out = io.StringIO()
        code = cli.run(argv, stdout=out, stderr=io.StringIO())
        in_process = (code, _without_elapsed(out.getvalue()))

        def run(argv=argv):
            return subprocess.run(command + argv, env=env, cwd=work, capture_output=True,
                                  text=True, timeout=120, check=False)

        def check(proc, name=name, in_process=in_process, expected=expected,
                  allowed=allowed, field=field):
            if proc.returncode != 0:
                return Verdict(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            if proc.stdout.count("\n") != 1 or not proc.stdout.endswith("\n"):
                return Verdict(f"{name}: stdout is not exactly one line")
            if (proc.returncode, _without_elapsed(proc.stdout)) != in_process:
                return Verdict(f"{name}: stdout differs from in-process cli.run")
            result = field(json.loads(proc.stdout)["result"])
            if expected is None:
                if result != grades_doc:
                    return Verdict(f"{name}: echoed document differs from the input")
                return Verdict()
            return _within(result, expected, allowed, name)

        cases.append(Case(name, run, check, argv))
    return cases


# ---------------------------------------------------------------- discrete_bulk

BULK_SIZE = 100_000


def discrete_bulk(seed: int, work: Path, root: Path) -> list[Case]:
    rng = np.random.default_rng(seed)
    n = BULK_SIZE
    f = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1)))).tolist()
    g = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, n - 1)))).tolist()
    raw = rng.uniform(0.01, 1.0, (2, n))
    wf = (raw[0] / raw[0].sum()).tolist()
    wg = (raw[1] / raw[1].sum()).tolist()
    masses = rng.uniform(0.001, 2.0, n).tolist()

    docs = {
        "f": {"grades": f}, "g": {"grades": g},
        "wf": {"weights": wf}, "wg": {"weights": wg}, "masses": {"masses": masses},
    }
    paths = {}
    for key, doc in docs.items():
        paths[key] = work / f"{key}.json"
        _write_json(paths[key], doc)

    def read(key: str) -> str:
        return paths[key].read_text()

    def kernel_case(name, inputs, parse, kernel, terms_list):
        expected = math.fsum(terms_list)
        bound = ref.summation_bound(terms_list)

        def run():
            parsed = [parse(jsonio.load_json(read(key))) for key in inputs]
            result = kernel(*parsed)
            return result, jsonio.canonical_dumps(jsonio.divergence_result_to_doc(result))

        return Case(name, run, lambda out: check_discrete(out, expected, bound, len(terms_list), name))

    def validate_case(key, schema):
        name = f"validate {key}"

        def run():
            doc_schema, parsed = jsonio.parse_document(jsonio.load_json(read(key)))
            return jsonio.canonical_dumps(
                {"schema": doc_schema, "document": jsonio.document_for(doc_schema, parsed)}
            )

        def check(out):
            if json.loads(out) != {"schema": schema, "document": docs[key]}:
                return Verdict(f"{name}: echo differs from the input document")
            return Verdict()

        return Case(name, run, check)

    div = kernel_case(
        "divergence discrete", ["f", "g"], lambda d: jsonio.grading_sample_from_doc(d),
        lambda a, b: discrete.divergence_discrete(a, b), ref.divergence_terms(f, g))
    shannon = kernel_case(
        "entropy shannon", ["wf"], lambda d: jsonio.weights_from_doc(d),
        lambda a: discrete.shannon_entropy(a), ref.shannon_terms(wf))
    relative = kernel_case(
        "entropy relative", ["wf", "wg"], lambda d: jsonio.weights_from_doc(d),
        lambda a, b: discrete.relative_entropy(a, b), ref.relative_terms(wf, wg))
    partition = kernel_case(
        "entropy partition", ["masses"], lambda d: jsonio.masses_from_doc(d),
        lambda a: discrete.partition_entropy(a), ref.shannon_terms(masses))
    echoes = [validate_case("f", "grading_sample"), validate_case("wf", "weights"),
              validate_case("masses", "masses"), validate_case("g", "grading_sample")]
    # every fourth operation is a full canonical echo
    return [div, shannon, relative, echoes[0], partition, div, shannon, echoes[1],
            relative, partition, div, echoes[2], shannon, relative, partition, echoes[3]]


# ---------------------------------------------------------------- capacity_search

# n = 8 twice, so the median operation sits inside the n = 8 group rather
# than on the boundary between two sizes.
CAPACITY_SIZES = (6, 7, 8, 8, 9)


def capacity_search(seed: int, work: Path, root: Path) -> list[Case]:
    rng = np.random.default_rng(seed)
    sizes = list(CAPACITY_SIZES)
    random.Random(seed).shuffle(sizes)
    cases = []
    for i, n in enumerate(sizes):
        values = ref.random_monotone_capacity(rng, n)
        path = work / f"capacity{i}.json"
        _write_json(path, capacity_doc(values, n))
        oracle = ref.lattice_minimum(values, n)

        def run(path=path):
            mu = jsonio.capacity_from_doc(jsonio.load_json(path.read_text()))
            reports = [capacity.capacity_entropy(mu, method=m) for m in ("exhaustive", "greedy")]
            return mu, reports, [jsonio.canonical_dumps(jsonio.capacity_report_to_doc(r)) for r in reports]

        cases.append(Case(f"capacity n={n} #{i}", run,
                          lambda out, oracle=oracle: check_capacity(*out, oracle)))
    return cases


# ---------------------------------------------------------------- continuous_catalog

CATALOG_SHAPES = (0.05, 0.3, 0.5, 0.8, 2.0, 5.0)
CATALOG_POWERS = (0.05, 0.5, 2.0)
RIEMANN_POINTS = 1000
TN = (0.3, 0.5, -1.0, 2.0)
PLC_KNOTS = [(0.0, 0.0), (0.5, 0.6), (1.5, 0.9), (2.0, 1.0)]
PAIRS = (
    (beta_doc(2.0, 2.0), UNIFORM_UNIT),
    (UNIFORM_UNIT, beta_doc(2.0, 2.0)),
    (beta_doc(2.0, 5.0), beta_doc(5.0, 2.0)),
    (power_doc(2.0), beta_doc(2.0, 2.0)),
    (power_doc(0.5), UNIFORM_UNIT),
    (beta_doc(0.5, 0.5), beta_doc(2.0, 2.0)),
    (beta_doc(0.8, 2.0), power_doc(0.5)),
)


def _label(doc: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in doc["params"].items() if k != "knots")
    return f"{doc['family']}({params})"


def continuous_catalog(seed: int, work: Path, root: Path) -> list[Case]:
    """The ROADMAP item 2 grid; the seed only orders the rotation."""
    corrected = [(beta_doc(a, b), ref.beta_entropy(a, b))
                 for a in CATALOG_SHAPES for b in CATALOG_SHAPES]
    corrected += [(power_doc(p), ref.power_entropy(p)) for p in CATALOG_POWERS]
    corrected += [
        ({"family": "uniform", "params": {}, "support": [-1.0, 3.0]}, 0.0),
        ({"family": "triangular", "params": {"c": 0.3}, "support": [0.0, 2.0]},
         ref.triangular_entropy(0.0, 0.3, 2.0) - math.log(2.0)),
        ({"family": "truncated_normal", "params": {"mu": TN[0], "sigma": TN[1]},
          "support": [TN[2], TN[3]]},
         ref.truncated_normal_entropy(*TN) - math.log(TN[3] - TN[2])),
        ({"family": "piecewise_linear_cdf", "params": {"knots": [list(k) for k in PLC_KNOTS]},
          "support": [PLC_KNOTS[0][0], PLC_KNOTS[-1][0]]},
         ref.piecewise_linear_entropy(PLC_KNOTS) - math.log(PLC_KNOTS[-1][0] - PLC_KNOTS[0][0])),
    ]
    _write_json(work / "catalog.json", {"corrected": [d for d, _ in corrected],
                                         "pairs": [list(p) for p in PAIRS]})
    stored = json.loads((work / "catalog.json").read_text())

    cases = []
    for doc, expected in zip(stored["corrected"], [e for _, e in corrected]):
        name = f"corrected {_label(doc)}"

        def run(doc=doc):
            return continuous.corrected_entropy(jsonio.continuous_grading_from_doc(doc))

        cases.append(Case(name, run, lambda r, e=expected, name=name:
                          check_quadrature(r, e, quad_budget(e), name)))

    for f_doc, g_doc in stored["pairs"]:
        kl_fg = ref.beta_kl(*_beta_shape(f_doc), *_beta_shape(g_doc))
        kl_gf = ref.beta_kl(*_beta_shape(g_doc), *_beta_shape(f_doc))
        pair = f"{_label(f_doc)} | {_label(g_doc)}"

        def gradings(f_doc=f_doc, g_doc=g_doc):
            return (jsonio.continuous_grading_from_doc(f_doc),
                    jsonio.continuous_grading_from_doc(g_doc))

        cases.append(Case(
            f"divergence {pair}",
            lambda g=gradings: continuous.divergence_continuous(*g()),
            lambda r, e=-kl_fg, name=f"divergence {pair}": check_quadrature(r, e, quad_budget(e), name)))
        cases.append(Case(
            f"symmetric {pair}",
            lambda g=gradings: continuous.symmetric_divergence(*g()),
            lambda r, e=-kl_fg - kl_gf, b=quad_budget(kl_fg) + quad_budget(kl_gf), name=f"symmetric {pair}":
                check_quadrature(r, e, b, name)))
        cases.append(Case(
            f"riemann {pair}",
            lambda g=gradings: continuous.riemann_divergence(*g(), RIEMANN_POINTS),
            lambda v, e=-kl_fg, name=f"riemann {pair}":
                _within(v, e, ref.RIEMANN_ENVELOPE_NATS / RIEMANN_POINTS, name)))

    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------- known defects

# The cases that fail their check on today's code, by name. A timed run
# must be correct to be comparable between commits, so the timed workloads
# leave these out; the known_defects workload runs exactly these, with the
# same checks, and names each failure. Deleting a name here puts a fixed
# case back into its timed workload.
KNOWN_DEFECTS = {
    "cli_small": frozenset({
        "entropy corrected beta(0.5,0.5)",
        "divergence symmetric beta(3.3674,4.6443)|beta(2.1339,4.7086)",
    }),
    "continuous_catalog": frozenset(
        # ComputationError: the singular endpoint at 0 does not converge
        [f"corrected beta(alpha={a},beta={b})" for a in (0.05, 0.3) for b in CATALOG_SHAPES]
        + ["corrected power(p=0.05)"]
        # 7.3-8.7 nats off with an estimate near 1e-9
        + [f"corrected beta(alpha={a},beta=0.05)" for a in (0.5, 0.8, 2.0, 5.0)]
        # errors of 2e-4 with an estimate near 1e-8
        + [f"corrected beta(alpha={a},beta=0.3)" for a in (0.5, 0.8, 2.0, 5.0)]
        # errors of 3.5e-9 to 3.3e-7 above both estimate and budget
        + [f"corrected beta(alpha={a},beta=0.5)" for a in (0.5, 0.8, 2.0, 5.0)]
        + ["corrected beta(alpha=0.5,beta=2.0)", "corrected beta(alpha=0.5,beta=5.0)",
           "corrected power(p=0.5)",
           "divergence power(p=0.5) | uniform()",
           "divergence beta(alpha=0.5,beta=0.5) | beta(alpha=2.0,beta=2.0)",
           "symmetric beta(alpha=0.5,beta=0.5) | beta(alpha=2.0,beta=2.0)"]
    ),
}


def _timed(build: Callable, name: str) -> Callable:
    def timed(seed: int, work: Path, root: Path) -> list[Case]:
        return [case for case in build(seed, work, root) if case.name not in KNOWN_DEFECTS.get(name, ())]
    return timed


def known_defects(seed: int, work: Path, root: Path) -> list[Case]:
    cases = []
    for name, defects in KNOWN_DEFECTS.items():
        sub = work / name
        sub.mkdir()
        cases += [case for case in BUILDERS[name](seed, sub, root) if case.name in defects]
    return cases


BUILDERS = {
    "cli_small": cli_small,
    "discrete_bulk": discrete_bulk,
    "capacity_search": capacity_search,
    "continuous_catalog": continuous_catalog,
}
WORKLOADS = {name: _timed(build, name) for name, build in BUILDERS.items()}
WORKLOADS["known_defects"] = known_defects
