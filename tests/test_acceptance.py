"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts every stated bound at the
stated tolerance, and prints a single PASS line (visible under pytest -s).
Randomized checks draw from a fixed-seed generator so runs are repeatable.
"""

import io
import json
import math
import time

import numpy as np

from graddiv import (
    Capacity,
    GradingSample,
    IncrementPair,
    ProbabilityVector,
    Triangular,
    TruncatedNormal,
    Uniform,
    Beta,
    PiecewiseLinearCdf,
    Power,
    capacity_entropy,
    cdf_grading,
    chain_divergence,
    classical_entropy,
    corrected_entropy,
    divergence_continuous,
    divergence_discrete,
    enumerate_chains,
    partition_entropy,
    position_grading,
    rate_h,
    relative_entropy,
    riemann_divergence,
    shannon_entropy,
    symmetric_divergence,
)
from graddiv.cli import EXIT_OK, run
from graddiv.jsonio import canonical_dumps

from conftest import monotone_capacity

SEED = 20260819


def rel_close(a: float, b: float, tol: float) -> bool:
    # Relative error with a unit floor: for values near zero the comparison
    # falls back to absolute, which is the only meaningful reading there.
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_rate_function_laws():
    """rate_h: h(1) = 0 exactly, product additivity within 4 ulps,
    affine invariance exactly; 10^4 draws each, under a second."""
    rng = np.random.default_rng(SEED)
    started = time.perf_counter()

    for s in rng.uniform(1e-6, 1e6, 10_000):
        assert rate_h(IncrementPair(s, s)) == 0.0

    for x, y in rng.uniform(1e-3, 1e3, (10_000, 2)):
        hx = rate_h(IncrementPair(x, 1.0))
        hy = rate_h(IncrementPair(y, 1.0))
        hxy = rate_h(IncrementPair(x * y, 1.0))
        tol = 4.0 * math.ulp(max(1.0, abs(hx), abs(hy), abs(hxy)))
        assert abs(hxy - (hx + hy)) <= tol

    # Affine invariance: the offset b cancels when grades are differenced,
    # so the law is checked at the increment level with exact dyadic scale
    # factors (powers of two multiply without rounding).
    ks = rng.integers(-30, 31, 10_000)
    bs = rng.uniform(-100.0, 100.0, 10_000)
    dfs = rng.uniform(1e-3, 1e3, 10_000)
    dgs = rng.uniform(1e-3, 1e3, 10_000)
    for k, _b, df, dg in zip(ks, bs, dfs, dgs):
        a = math.ldexp(1.0, int(k))
        assert rate_h(IncrementPair(a * dg, a * df)) == rate_h(
            IncrementPair(dg, df)
        )

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: rate function laws over 3x10^4 draws in {elapsed:.2f}s")


def _random_vector(rng, n):
    raw = rng.uniform(0.2, 1.0, n)
    raw /= raw.sum()
    return ProbabilityVector(tuple(raw))


def test_criterion_2_specialization_equalities():
    """Shannon and relative entropy coincide with their divergence forms to
    1e-12 relative on 10^3 random vectors; Gibbs bound strict off-diagonal."""
    rng = np.random.default_rng(SEED + 1)
    started = time.perf_counter()

    for _ in range(1000):
        n = int(rng.integers(2, 65))
        f = _random_vector(rng, n)
        g = _random_vector(rng, n)

        shannon = shannon_entropy(f).value
        via_position = divergence_discrete(cdf_grading(f), position_grading(n)).value
        assert rel_close(shannon, via_position, 1e-12)

        rel = relative_entropy(f, g).value
        via_cdf = divergence_discrete(cdf_grading(f), cdf_grading(g)).value
        assert rel_close(rel, via_cdf, 1e-12)

        assert rel <= 0.0
        if f.weights != g.weights:
            assert rel < 0.0
        assert relative_entropy(f, f).value == 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS criterion 2: 10^3 specialization equalities in {elapsed:.2f}s")


def test_criterion_3_concatenation_additivity():
    """Divergence over a grading splits across any cut index to 1e-12."""
    rng = np.random.default_rng(SEED + 2)

    for _ in range(1000):
        n = int(rng.integers(3, 41))
        base_f, base_g = rng.uniform(-10.0, 10.0, 2)
        f_grades = base_f + np.concatenate([[0.0], rng.uniform(0.5, 2.0, n)]).cumsum()
        g_grades = base_g + np.concatenate([[0.0], rng.uniform(0.5, 2.0, n)]).cumsum()
        f, g = GradingSample(tuple(f_grades)), GradingSample(tuple(g_grades))

        cut = int(rng.integers(1, n))
        whole = divergence_discrete(f, g).value
        left = divergence_discrete(
            GradingSample(f.grades[: cut + 1]), GradingSample(g.grades[: cut + 1])
        ).value
        right = divergence_discrete(
            GradingSample(f.grades[cut:]), GradingSample(g.grades[cut:])
        ).value
        scale = max(1.0, abs(whole), abs(left) + abs(right))
        assert abs(whole - (left + right)) <= 1e-12 * scale

    print("PASS criterion 3: 10^3 random splits stay additive at 1e-12")


def test_criterion_4_continuous_oracles():
    """Quadrature matches the closed forms at 1e-8 and the grid form of the
    same integrals at n = 10^5 within 1e-4."""
    started = time.perf_counter()
    u, p2 = Uniform(0.0, 1.0), Power(2.0)

    d_pu = divergence_continuous(p2, u).value
    assert abs(d_pu - (0.5 - math.log(2.0))) < 1e-8

    d_uu = divergence_continuous(u, u).value
    assert abs(d_uu) < 1e-8

    d_sym = symmetric_divergence(p2, u).value
    assert abs(d_sym - (-0.5)) < 1e-8

    n = 100_000
    assert abs(riemann_divergence(p2, u, n) - d_pu) < 1e-4
    assert abs(riemann_divergence(u, u, n) - d_uu) < 1e-4
    grid_sym = riemann_divergence(p2, u, n) + riemann_divergence(u, p2, n)
    assert abs(grid_sym - d_sym) < 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 4: continuous oracles and 10^5-step grid in {elapsed:.2f}s")


def test_criterion_5_entropy_identity_against_uniform():
    """Divergence from the uniform grading equals the classical entropy
    minus log-width, below 1e-6, for three shapes on three intervals each."""
    intervals = [(0.0, 1.0), (-1.0, 3.0), (2.0, 2.5)]
    worst = 0.0
    for a, b in intervals:
        width = b - a
        shapes = [
            Beta(2.0, 2.0, a=a, b=b),
            Triangular(a, a + 0.3 * width, b),
            TruncatedNormal((a + b) / 2.0, width / 3.0, a, b),
        ]
        for F in shapes:
            lhs = divergence_continuous(F, Uniform(a, b)).value
            rhs = classical_entropy(F).value - math.log(width)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) < 1e-6
    print(f"PASS criterion 5: entropy identity on 9 cases, worst gap {worst:.2e}")


def test_criterion_6_corrected_entropy_invariance():
    """Corrected entropy vanishes for uniforms and is unmoved by affine
    rescaling of the support."""
    rng = np.random.default_rng(SEED + 3)

    for _ in range(10):
        a = float(rng.uniform(-100.0, 100.0))
        width = float(rng.uniform(1e-3, 200.0))
        assert abs(corrected_entropy(Uniform(a, a + width)).value) < 1e-10

    pairs = [
        (Uniform(0.0, 1.0), Uniform(-7.0, 4.0)),
        (Triangular(0.0, 0.25, 1.0), Triangular(10.0, 10.5, 12.0)),
        (Beta(2.0, 5.0), Beta(2.0, 5.0, a=-1.0, b=3.0)),
        (Power(2.0), Power(2.0, a=5.0, b=6.5)),
        (TruncatedNormal(0.5, 0.5, 0.0, 1.0), TruncatedNormal(5.0, 1.0, 4.0, 6.0)),
        (
            PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5), (3.0, 1.0))),
            PiecewiseLinearCdf(((10.0, 0.0), (10.5, 0.5), (11.5, 1.0))),
        ),
    ]
    for base, moved in pairs:
        hb = corrected_entropy(base).value
        hm = corrected_entropy(moved).value
        assert abs(hb - hm) < 1e-8
    print("PASS criterion 6: corrected entropy rescaling-invariant on 6 families")


def test_criterion_7_capacity_entropy():
    """Additive capacities are chain-independent and reduce to partition
    entropy; greedy never undercuts exhaustive; worked example and n = 8
    timing hold."""
    rng = np.random.default_rng(SEED + 4)

    for i in range(100):
        n = i % 6 + 1
        masses = tuple(rng.uniform(0.05, 2.0, n))
        mu = Capacity.additive(masses)
        values = [chain_divergence(mu, ch).value for ch in enumerate_chains(n)]
        target = partition_entropy(masses).value
        for v in values:
            assert rel_close(v, target, 1e-12)
        assert rel_close(capacity_entropy(mu).entropy, target, 1e-12)

    for i in range(100):
        n = i % 6 + 1
        deltas = list(rng.uniform(0.0, 1.0, (1 << n) - 1))
        mu = monotone_capacity(n, deltas)
        exhaustive = capacity_entropy(mu, method="exhaustive")
        greedy = capacity_entropy(mu, method="greedy")
        assert greedy.entropy >= exhaustive.entropy

    worked = capacity_entropy(Capacity(2, (0.0, 0.6, 0.7, 1.0)))
    assert abs(worked.entropy - 0.610864) < 1e-6
    assert worked.argmin_chain.order == (2, 1)

    mu8 = monotone_capacity(8, list(rng.uniform(0.0, 1.0, 255)))
    t0 = time.perf_counter()
    rep8 = capacity_entropy(mu8, method="exhaustive")
    elapsed = time.perf_counter() - t0
    assert rep8.chains_examined == math.factorial(8)
    assert elapsed < 1.0
    print(f"PASS criterion 7: capacity entropy checks, n=8 exhaustive search in {elapsed:.2f}s")


def test_criterion_8_cli_determinism(tmp_path):
    """The three documented invocations print byte-identical result fields
    across two consecutive runs and reproduce their stated values."""

    def put(name, doc):
        p = tmp_path / name
        p.write_text(canonical_dumps(doc), encoding="utf-8")
        return str(p)

    f_path = put("f.json", {"grades": [0.0, 0.5, 1.0]})
    cap_path = put(
        "cap.json",
        {"ground_size": 2, "values": {"": 0.0, "1": 0.6, "2": 0.7, "1,2": 1.0}},
    )
    u4_path = put("u4.json", {"weights": [0.25, 0.25, 0.25, 0.25]})

    invocations = [
        ["divergence", "discrete", "--f", f_path, "--g", f_path],
        ["entropy", "capacity", "--capacity", cap_path, "--method", "exhaustive"],
        ["entropy", "shannon", "--dist", u4_path],
    ]

    frozen = []
    for argv in invocations:
        runs = []
        for _ in range(2):
            out = io.StringIO()
            assert run(argv, stdout=out, stderr=io.StringIO()) == EXIT_OK
            report = json.loads(out.getvalue())
            report.pop("elapsed_ms")
            runs.append(canonical_dumps(report))
        assert runs[0] == runs[1]
        frozen.append(json.loads(runs[0])["result"])

    assert frozen[0]["value"] == 0
    assert abs(frozen[1]["entropy"] - 0.610864) < 1e-6
    assert frozen[1]["argmin_chain"] == [2, 1]
    assert abs(frozen[2]["value"] - math.log(4.0)) < 1e-12
    print("PASS criterion 8: three CLI invocations byte-deterministic")
