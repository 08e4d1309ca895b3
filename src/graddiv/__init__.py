"""Divergence and entropy of grading functions on linearly ordered sets.

A grading function assigns strictly increasing grades along a chain; the
divergence of one grading from another sums (or integrates) the log ratio
of their increments weighted by the graded side. Shannon entropy, relative
entropy, partition entropy, a chain-minimizing entropy for monotone set
functions, and a rescaling-invariant entropy for densities on an interval
all arise as special cases.

Public names are imported from their submodule on first use, so a process
loads only what it computes with: capacity entropy needs numpy from
capacity._NUMPY_FROM elements on, and everything else runs on the
standard library, apart from Beta and TruncatedNormal quantiles, interior
Beta cdf values and ln B at extreme shapes, which import scipy.special on
first use.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides: the one declaration of what
# the package exports, so these submodules define no __all__. jsonio and
# cli are exposed as modules, and their own __all__ declares their names.
_EXPORTS = {
    "errors": ("GraddivError", "InvalidInputError", "ComputationError"),
    "ordered": ("GradingSample", "IncrementPair", "increments", "rate_h"),
    "discrete": (
        "ProbabilityVector",
        "DivergenceResult",
        "NEGATIVE_INFINITY",
        "EMPTY",
        "divergence_discrete",
        "relative_entropy",
        "shannon_entropy",
        "partition_entropy",
        "cdf_grading",
        "position_grading",
    ),
    "capacity": (
        "Capacity",
        "MaximalChain",
        "CapacityEntropyReport",
        "capacity_entropy",
        "chain_divergence",
        "enumerate_chains",
    ),
    "families": (
        "ContinuousGrading",
        "Uniform",
        "Triangular",
        "Beta",
        "TruncatedNormal",
        "Power",
        "PiecewiseLinearCdf",
        "invert_cdf",
    ),
    "quadrature": ("QuadratureSpec", "QuadratureOutcome", "integrate_adaptive"),
    "continuous": (
        "divergence_continuous",
        "riemann_divergence",
        "corrected_entropy",
        "symmetric_divergence",
        "classical_entropy",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "jsonio"})

__all__ = ["__version__", *_SUBMODULE_OF]


def __getattr__(name: str):
    # Not cached in the package namespace: every lookup returns the
    # submodule's current binding, so a name patched there shows through.
    if name in _SUBMODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
