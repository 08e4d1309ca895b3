"""Tests of the benchmark's own references, oracle, inputs and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from graddiv import Capacity, capacity, chain_divergence, enumerate_chains, jsonio  # noqa: E402

SHAPES = workloads.CATALOG_SHAPES


@pytest.mark.parametrize("alpha", SHAPES)
@pytest.mark.parametrize("beta", SHAPES)
def test_beta_entropy_matches_scipy(alpha, beta):
    assert ref.beta_entropy(alpha, beta) == pytest.approx(stats.beta(alpha, beta).entropy(), abs=1e-12)


@pytest.mark.parametrize("p", workloads.CATALOG_POWERS)
def test_power_entropy_matches_scipy(p):
    assert ref.power_entropy(p) == pytest.approx(stats.powerlaw(p).entropy(), abs=1e-12)


def test_triangular_and_uniform_entropy_match_scipy():
    a, c, b = 0.0, 0.3, 2.0
    tri = stats.triang((c - a) / (b - a), loc=a, scale=b - a)
    assert ref.triangular_entropy(a, c, b) == pytest.approx(tri.entropy(), abs=1e-12)
    assert ref.uniform_entropy(-1.0, 3.0) == pytest.approx(stats.uniform(-1.0, 4.0).entropy(), abs=1e-12)


def test_truncated_normal_entropy_matches_scipy():
    mu, sigma, a, b = workloads.TN
    dist = stats.truncnorm((a - mu) / sigma, (b - mu) / sigma, loc=mu, scale=sigma)
    assert ref.truncated_normal_entropy(mu, sigma, a, b) == pytest.approx(dist.entropy(), abs=1e-10)


def test_piecewise_linear_entropy_matches_integral():
    knots = workloads.PLC_KNOTS
    total = 0.0
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        f = (y1 - y0) / (x1 - x0)
        total += integrate.quad(lambda x, f=f: -f * math.log(f), x0, x1)[0]
    assert ref.piecewise_linear_entropy(knots) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("shapes", [(2.0, 2.0, 1.0, 1.0), (2.0, 5.0, 5.0, 2.0), (2.0, 1.0, 2.0, 2.0),
                                    (0.8, 2.0, 0.5, 1.0), (3.0, 4.0, 2.5, 2.0)])
def test_beta_kl_matches_integral(shapes):
    a1, b1, a2, b2 = shapes
    f, g = stats.beta(a1, b1), stats.beta(a2, b2)
    numeric = integrate.quad(lambda x: f.pdf(x) * (f.logpdf(x) - g.logpdf(x)), 0.0, 1.0,
                             limit=200, epsabs=1e-12)[0]
    assert ref.beta_kl(*shapes) == pytest.approx(numeric, abs=1e-8)


def _brute_force_minimum(mu: Capacity) -> float:
    return min(chain_divergence(mu, chain).value for chain in enumerate_chains(mu.ground_size))


@pytest.mark.parametrize("n", range(1, 7))
def test_lattice_minimum_matches_brute_force(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        values = ref.random_monotone_capacity(rng, n)
        minimum, largest = ref.lattice_minimum(values, n)
        expected = _brute_force_minimum(Capacity(n, tuple(values)))
        assert minimum == pytest.approx(expected, abs=4 * ref.gamma(n) * n * largest)
    additive = Capacity.additive([0.1 * (k + 1) for k in range(n)])
    assert ref.lattice_minimum(list(additive.values), n)[0] == pytest.approx(
        _brute_force_minimum(additive), abs=1e-12)


def test_summation_bound_covers_naive_sum():
    terms = ref.shannon_terms(list(np.random.default_rng(0).dirichlet(np.ones(50_000))))
    naive = 0.0
    for t in terms:
        naive += t
    assert abs(naive - math.fsum(terms)) <= ref.summation_bound(terms)


def _generated(name: str, seed: int, work: Path) -> dict[str, bytes]:
    work.mkdir()
    workloads.WORKLOADS[name](seed, work, BENCH.parent)
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_documents(name, tmp_path):
    first = _generated(name, 7, tmp_path / "a")
    assert first == _generated(name, 7, tmp_path / "b")
    if name != "continuous_catalog":  # a fixed grid; the seed only orders it
        assert first != _generated(name, 8, tmp_path / "c")


def test_known_defects_name_real_cases_and_leave_the_timed_workloads(tmp_path):
    for name, defects in workloads.KNOWN_DEFECTS.items():
        (tmp_path / name).mkdir()
        timed = {case.name for case in workloads.WORKLOADS[name](3, tmp_path / name, BENCH.parent)}
        assert timed and not timed & defects
    (tmp_path / "known").mkdir()
    known = [case.name for case in workloads.known_defects(3, tmp_path / "known", BENCH.parent)]
    assert sorted(known) == sorted(set().union(*workloads.KNOWN_DEFECTS.values()))


def test_every_case_of_a_seeded_rotation_is_checked(tmp_path):
    cases = workloads.capacity_search(3, tmp_path, BENCH.parent)
    records = run.measure(cases, 0.0, (run.calibration_sample, run.CALIBRATION_S))
    assert len(records) == len(cases)
    assert all(verdict.failure is None and verdict.gap >= 0.0 for _, _, verdict, _ in records)


def test_scipy_import_time_counts_top_level_scipy_subtrees():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |         numpy.core",
        "import time:        20 |         30 |       scipy._lib",
        "import time:         5 |         60 |     scipy.special",
        "import time:        40 |        100 |   graddiv.families",
        "import time:        50 |         50 |   scipy.linalg",
        "import time:         1 |        200 | graddiv",
    ])
    # scipy._lib sits under scipy.special, so it counts only inside it
    assert run.scipy_import_us(text) == 60 + 50


def test_self_time_excludes_children_and_instrumentation_is_undone():
    original = jsonio.load_json
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert jsonio.load_json is not original
        with tracer.span("op"):
            capacity.capacity_entropy(
                jsonio.capacity_from_doc(jsonio.load_json(json.dumps(workloads.capacity_doc([0.0, 0.6, 0.7, 1.0], 2)))),
                method="greedy")
    assert jsonio.load_json is original
    names = [span[0] for span in tracer.spans]
    assert names == ["op", "jsonio.load_json", "jsonio.from_doc", "capacity.Capacity", "capacity.greedy"]
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(tracer.self_times().values()) == pytest.approx(total, rel=1e-9)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.TAIL_PERCENTILE)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    for w in spec["workloads"]:
        assert f"p{run.TAIL_PERCENTILE[w['name']]}" in w["why"]
