import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from graddiv import Capacity, GradingSample, ProbabilityVector

settings.register_profile(
    "graddiv",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("graddiv")


def normalized(raw: list[float]) -> ProbabilityVector:
    total = math.fsum(raw)
    return ProbabilityVector(tuple(x / total for x in raw))


# Entries bounded away from 0 keep entropies O(1) and cdf grades safely
# strictly increasing in float arithmetic.
positive_vectors = st.builds(
    normalized,
    st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=2, max_size=64),
)


def _sample_from(base: float, steps: list[float]) -> GradingSample:
    grades = [base]
    for d in steps:
        grades.append(grades[-1] + d)
    return GradingSample(tuple(grades))


# Increments at least 1e-6 against bases up to 1e3: spacing stays far above
# one ulp, so strict monotonicity survives the additions.
grading_samples = st.builds(
    _sample_from,
    st.floats(-1e3, 1e3, allow_nan=False),
    st.lists(st.floats(1e-6, 1e3, allow_nan=False), min_size=1, max_size=32),
)


def _paired_samples(base_f, base_g, steps):
    f = _sample_from(base_f, [d for d, _ in steps])
    g = _sample_from(base_g, [d for _, d in steps])
    return f, g


increment_pairs = st.tuples(
    st.floats(1e-6, 1e3, allow_nan=False), st.floats(1e-6, 1e3, allow_nan=False)
)

grading_sample_pairs = st.builds(
    _paired_samples,
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.lists(increment_pairs, min_size=1, max_size=32),
)


def _vector_of(n: int):
    return st.builds(
        normalized,
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n),
    )


# Two independent vectors guaranteed to share a length.
paired_vectors = st.integers(2, 32).flatmap(
    lambda n: st.tuples(_vector_of(n), _vector_of(n))
)


def dyadic_grid_sample(ms: list[int]) -> GradingSample:
    """Grades m / 1024 for strictly increasing integers m. Every grade,
    every increment, and every affine image under a = 2**k, b = j / 1024
    is exactly representable, so transformation laws can be checked
    bit for bit."""
    return GradingSample(tuple(math.ldexp(m, -10) for m in ms))


increasing_integers = st.lists(
    st.integers(-(1 << 20), 1 << 20), min_size=2, max_size=24, unique=True
).map(sorted)


def monotone_capacity(n: int, deltas: list[float]) -> Capacity:
    """Build a monotone capacity by giving each subset its largest covered
    subset's value plus a nonnegative step. Ascending mask order works
    because every proper subset has a numerically smaller mask."""
    size = 1 << n
    vals = [0.0] * size
    k = 0
    for mask in range(1, size):
        covered = [vals[mask & ~(1 << e)] for e in range(n) if mask >> e & 1]
        vals[mask] = max(covered) + deltas[k % len(deltas)]
        k += 1
    return Capacity(n, tuple(vals))


def capacities(max_n: int = 5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            monotone_capacity,
            st.just(n),
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=(1 << n) - 1,
                max_size=(1 << n) - 1,
            ),
        )
    )


def additive_capacities(max_n: int = 5):
    return st.lists(
        st.floats(0.05, 2.0, allow_nan=False), min_size=1, max_size=max_n
    ).map(lambda ms: Capacity.additive(tuple(ms)))


def all_tie_capacities(max_n: int = 5):
    """Additive capacities with equal masses: every chain ties in exact
    arithmetic, so which chain wins is decided by rounding alone."""
    return st.builds(
        lambda n, m: Capacity.additive([m] * n),
        st.integers(1, max_n),
        st.sampled_from([1 / 3, 0.1, 0.7, 1 / 7, 1.3, 2.0]),
    )
