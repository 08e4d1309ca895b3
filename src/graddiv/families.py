"""Continuous grading functions on a finite support interval.

Each family bundles a strictly increasing cdf with its density on a closed
interval [a, b]. The catalog is deliberately closed (arbitrary user code is
not a safe CLI input); piecewise_linear_cdf is the extensibility escape
hatch. Every family defines its quantile in closed form (through
scipy.special for Beta and TruncatedNormal), so there is no generic
root-finding fallback: a new family must supply ``inverse`` itself.
"""

import abc
import importlib
import math
import sys
from bisect import bisect_right
from functools import cached_property
from typing import Callable, ClassVar

from .errors import InvalidInputError
from .ordered import _Record, _store, as_float, as_floats, log_ratio

__all__ = [
    "ContinuousGrading",
    "Uniform",
    "Triangular",
    "Beta",
    "TruncatedNormal",
    "Power",
    "PiecewiseLinearCdf",
    "FAMILIES",
    "invert_cdf",
    "PROBABILITY_TOL",
]

PROBABILITY_TOL = 1e-12

_EPS = sys.float_info.epsilon

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# math.gamma is finite for every argument in [float_info.min, 171)
_GAMMA_MAX = 171.0


def _scipy_special(name: str) -> Callable:
    """Stand-in for scipy.special.<name>, bound in this module as _<name>.

    The first call imports scipy.special and rebinds _<name> to the real
    function, so a process that never reaches it does not pay for the
    import and later calls go straight to scipy.
    """

    def first_call(*args):
        fn = getattr(importlib.import_module("scipy.special"), name)
        globals()[f"_{name}"] = fn
        return fn(*args)

    return first_call


_betainc = _scipy_special("betainc")
_betaincinv = _scipy_special("betaincinv")
_betaln = _scipy_special("betaln")
_ndtri = _scipy_special("ndtri")


def _log_beta(alpha: float, beta: float) -> float:
    """ln B(alpha, beta) for positive finite shapes.

    Where every gamma value is finite this is
    ln(Gamma(alpha) Gamma(beta) / Gamma(alpha + beta)), dividing before
    multiplying so no intermediate overflows; this is the route scipy's
    betaln takes at these sizes. Subnormal, huge and very lopsided shapes
    go to betaln itself.
    """
    big, small = max(alpha, beta), min(alpha, beta)
    total = big + small
    if not (small >= sys.float_info.min and total < _GAMMA_MAX):
        return float(_betaln(alpha, beta))
    g_big, g_small, g_total = math.gamma(big), math.gamma(small), math.gamma(total)
    # divide Gamma(alpha + beta) into the factor nearer to it, as scipy does
    if abs(g_big - g_total) > abs(g_small - g_total):
        return math.log(g_small / g_total * g_big)
    return math.log(g_big / g_total * g_small)


def _log_rounding(*logs: float) -> float:
    """A bound on the rounding of a sum of the given logarithms, each the
    log of a product or quotient of doubles: two roundings of each term,
    one of its argument and one of its size."""
    return 2.0 * _EPS * sum(1.0 + abs(v) for v in logs)


def _log_beta_rounding(alpha: float, beta: float) -> float:
    """A bound on the error of _log_beta(alpha, beta): eight roundings of
    the log-gammas it is formed from (math.gamma's error grows with
    ln Gamma, and betaln sums log-gammas), and of 1."""
    try:
        size = abs(math.lgamma(alpha)) + abs(math.lgamma(beta)) + abs(math.lgamma(alpha + beta))
    except OverflowError:
        return math.inf
    return 8.0 * _EPS * (1.0 + size)


def _check_interval(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInputError(f"support endpoints must be finite, got [{a!r}, {b!r}]")
    if not a < b:
        raise InvalidInputError(f"support must satisfy a < b, got [{a!r}, {b!r}]")
    # every density and cdf divides by the width, so it must be a double
    if not math.isfinite(b - a):
        raise InvalidInputError(
            f"support [{a!r}, {b!r}] overflows: its width is not a finite double"
        )


class ContinuousGrading(_Record, abc.ABC):
    """A cdf/density pair acting as a grading function on [a, b].

    A parametric family is an immutable record (``ordered._Record``) with
    fields a and b for its support and one field for each name in
    ``params``, its shape parameters in constructor order. Construction
    converts every field by ``ordered.as_float``, in field order, checks
    the support, and then runs the family's ``_validate``. The constants a
    family keeps, and its ``image``, live in the instance dict outside the
    fields; this class declares no ``__slots__`` so that every family has
    one. PiecewiseLinearCdf, whose knots fix its support, overrides
    ``__post_init__``, ``support`` and ``shape_params``.

    ``log_density`` is the method every grading must define: the integrals
    read the density through it alone, and no library code calls
    ``density``.

    ``_log_norm_error`` bounds the rounding of the constant in
    ``log_density``, its log-normalizer, which shifts ln f alike at every
    x; a family sets it with its constants, and a grading that sets none
    claims an exact one.
    """

    family: ClassVar[str]
    params: ClassVar[tuple[str, ...]] = ()
    _log_norm_error: float = 0.0

    def __post_init__(self):
        for name in self._fields:
            _store(self, name, as_float(getattr(self, name), name))
        _check_interval(*self.support)
        self._validate()

    def _validate(self) -> None:
        """Check the family's own parameters and keep its constants."""

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    @abc.abstractmethod
    def cdf(self, x: float) -> float: ...

    @abc.abstractmethod
    def density(self, x: float) -> float: ...

    @abc.abstractmethod
    def log_density(self, x: float, da: float, db: float) -> float:
        """ln of the density at x, whose distances from a and b are da and
        db (both positive, and exact where x has rounded onto an end);
        -inf where the density vanishes. A family whose density is
        singular or vanishes at an end computes it from da and db."""

    def shape_params(self) -> dict:
        return {name: getattr(self, name) for name in self.params}

    @cached_property
    def image(self) -> tuple[float, float]:
        # computed on first use and kept in the instance dict, outside the
        # fields, so equality, hashing and repr ignore it
        a, b = self.support
        return (self.cdf(a), self.cdf(b))

    @property
    def grade_span(self) -> float:
        lo, hi = self.image
        return hi - lo

    def is_probability(self, tol: float = PROBABILITY_TOL) -> bool:
        lo, hi = self.image
        return abs(lo) <= tol and abs(hi - 1.0) <= tol

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the density is not smooth."""
        return ()

    @abc.abstractmethod
    def inverse(self, u: float) -> float:
        """Quantile at grade u, in closed form."""


def invert_cdf(F: ContinuousGrading, u: float) -> float:
    """Quantile of F at u, validated against im(F) and clamped to support."""
    u = as_float(u, "u")
    lo, hi = F.image
    if not lo <= u <= hi:
        raise InvalidInputError(f"u={u!r} is outside the grade image [{lo!r}, {hi!r}]")
    a, b = F.support
    return min(max(F.inverse(u), a), b)


class Uniform(ContinuousGrading):
    a: float
    b: float

    family: ClassVar[str] = "uniform"

    _fields = ("a", "b")
    __slots__ = _fields

    def __init__(self, a, b):
        _store(self, "a", a)
        _store(self, "b", b)
        self.__post_init__()

    def _validate(self) -> None:
        # ln of the density and its rounding, kept outside the fields
        log_height = log_ratio(1.0, self.b - self.a)
        _store(self, "_log_height", log_height)
        _store(self, "_log_norm_error", _log_rounding(log_height))

    def cdf(self, x: float) -> float:
        return (x - self.a) / (self.b - self.a)

    def density(self, x: float) -> float:
        return 1.0 / (self.b - self.a)

    def log_density(self, x: float, da: float, db: float) -> float:
        return self._log_height

    def inverse(self, u: float) -> float:
        return self.a + u * (self.b - self.a)


class Triangular(ContinuousGrading):
    """Triangular density on [a, b] with mode c, a <= c <= b."""

    a: float
    c: float
    b: float

    family: ClassVar[str] = "triangular"
    params: ClassVar[tuple[str, ...]] = ("c",)

    _fields = ("a", "c", "b")
    __slots__ = _fields

    def __init__(self, a, c, b):
        _store(self, "a", a)
        _store(self, "c", c)
        _store(self, "b", b)
        self.__post_init__()

    def _validate(self) -> None:
        if not self.a <= self.c <= self.b:
            raise InvalidInputError(f"mode must satisfy a <= c <= b, got c={self.c!r}")
        # ln of the density at the mode and its rounding, kept outside the
        # fields
        log_width = math.log(self.b - self.a)
        _store(self, "_log_peak", math.log(2.0) - log_width)
        _store(self, "_log_norm_error", _log_rounding(math.log(2.0), log_width))

    # Each expression scales ratios no larger than 1 by the width or divides
    # them by it, and never multiplies two widths or squares one, so every
    # support whose width is a finite double evaluates without overflow.

    def cdf(self, x: float) -> float:
        a, c, b = self.a, self.c, self.b
        if x <= a:
            return 0.0
        if x >= b:
            return 1.0
        if x <= c:
            return (x - a) / (b - a) * ((x - a) / (c - a))
        return 1.0 - (b - x) / (b - a) * ((b - x) / (b - c))

    def density(self, x: float) -> float:
        a, c, b = self.a, self.c, self.b
        if x < c:
            return 2.0 * ((x - a) / (c - a)) / (b - a)
        if x > c:
            return 2.0 * ((b - x) / (b - c)) / (b - a)
        return 2.0 / (b - a)

    def log_density(self, x: float, da: float, db: float) -> float:
        # the density vanishes at a and b, so each side reads its own
        # distance, not x, which may have rounded onto the end
        c = self.c
        try:
            if x < c:
                return self._log_peak + math.log(da / (c - self.a))
            if x > c:
                return self._log_peak + math.log(db / (self.b - c))
        except ValueError:  # the distance over its side's width underflowed to 0
            if x < c:
                return self._log_peak + log_ratio(da, c - self.a)
            return self._log_peak + log_ratio(db, self.b - c)
        return self._log_peak

    def inverse(self, u: float) -> float:
        a, c, b = self.a, self.c, self.b
        split = (c - a) / (b - a)
        if u <= split:
            return a + math.sqrt(u * split) * (b - a)
        return b - math.sqrt((1.0 - u) * ((b - c) / (b - a))) * (b - a)

    def breakpoints(self) -> tuple[float, ...]:
        if self.a < self.c < self.b:
            return (self.c,)
        return ()


class Beta(ContinuousGrading):
    """Beta(alpha, beta) density mapped affinely onto [a, b]."""

    alpha: float
    beta: float
    a: float
    b: float

    family: ClassVar[str] = "beta"
    params: ClassVar[tuple[str, ...]] = ("alpha", "beta")

    _fields = ("alpha", "beta", "a", "b")
    __slots__ = _fields

    def __init__(self, alpha, beta, a=0.0, b=1.0):
        _store(self, "alpha", alpha)
        _store(self, "beta", beta)
        _store(self, "a", a)
        _store(self, "b", b)
        self.__post_init__()

    def _validate(self) -> None:
        alpha, beta = self.alpha, self.beta
        if not (alpha > 0 and beta > 0 and math.isfinite(alpha) and math.isfinite(beta)):
            raise InvalidInputError(
                f"shape parameters must be positive and finite, got ({alpha!r}, {beta!r})"
            )
        # log of the normalizing beta function, that plus the log of the
        # width, and the rounding of the sum, kept outside the fields
        log_norm = _log_beta(alpha, beta)
        log_width = math.log(self.b - self.a)
        _store(self, "_log_norm", log_norm)
        _store(self, "_log_divisor", log_norm + log_width)
        _store(self, "_log_norm_error",
               _log_beta_rounding(alpha, beta) + _log_rounding(log_norm, log_width))

    def _t(self, x: float) -> float:
        return (x - self.a) / (self.b - self.a)

    def cdf(self, x: float) -> float:
        t = min(max(self._t(x), 0.0), 1.0)
        if t == 0.0 or t == 1.0:
            # betainc's own value at the ends, without importing scipy
            return t
        return float(_betainc(self.alpha, self.beta, t))

    def density(self, x: float) -> float:
        width = self.b - self.a
        t = (x - self.a) / width
        if t <= 0.0:
            return self._edge_density(self.alpha, width)
        if t >= 1.0:
            return self._edge_density(self.beta, width)
        log_pdf = (
            (self.alpha - 1.0) * math.log(t)
            + (self.beta - 1.0) * math.log1p(-t)
            - self._log_norm
        )
        return math.exp(log_pdf) / width

    def log_density(self, x: float, da: float, db: float) -> float:
        width = self.b - self.a
        try:
            return (
                (self.alpha - 1.0) * math.log(da / width)
                + (self.beta - 1.0) * math.log(db / width)
                - self._log_divisor
            )
        except ValueError:  # da / width or db / width underflowed to 0
            return (
                (self.alpha - 1.0) * log_ratio(da, width)
                + (self.beta - 1.0) * log_ratio(db, width)
                - self._log_divisor
            )

    def _edge_density(self, shape: float, width: float) -> float:
        if shape > 1.0:
            return 0.0
        if shape == 1.0:
            return math.exp(-self._log_norm) / width
        return math.inf

    def inverse(self, u: float) -> float:
        t = float(_betaincinv(self.alpha, self.beta, u))
        return self.a + t * (self.b - self.a)


def _phi(z: float) -> float:
    """Standard normal cdf, via erfc for accuracy in the tails."""
    return 0.5 * math.erfc(-z / _SQRT2)


class TruncatedNormal(ContinuousGrading):
    """Normal(mu, sigma) restricted and renormalized to [a, b]."""

    mu: float
    sigma: float
    a: float
    b: float

    family: ClassVar[str] = "truncated_normal"
    params: ClassVar[tuple[str, ...]] = ("mu", "sigma")

    _fields = ("mu", "sigma", "a", "b")
    __slots__ = _fields

    def __init__(self, mu, sigma, a, b):
        _store(self, "mu", mu)
        _store(self, "sigma", sigma)
        _store(self, "a", a)
        _store(self, "b", b)
        self.__post_init__()

    def _validate(self) -> None:
        mu, sigma, a, b = self.mu, self.sigma, self.a, self.b
        if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
            raise InvalidInputError(
                f"need finite mu and sigma > 0, got ({mu!r}, {sigma!r})"
            )
        # Above the mean, Phi rounds to 1 deep in the tail and the window's
        # mass to 0, so such a window is measured on the mirrored lower
        # tail, Phi(-z) = 1 - Phi(z), which keeps its relative precision;
        # side = 1 leaves the lower-side expressions as they are, bit for bit
        side = -1.0 if a > mu else 1.0
        z_a, z_b = side * (a - mu) / sigma, side * (b - mu) / sigma
        lower, upper = _phi(z_a), _phi(z_b)
        mass = side * (upper - lower)
        if mass <= 0.0:
            raise InvalidInputError(
                "the interval carries no normal mass at this mu/sigma "
                "(truncation window too deep in a tail)"
            )
        # The mass is a difference of two cdf values, each read at a
        # rounded z and held to a few ulps or, subnormal, to 2^-1074: its
        # relative error is those roundings, and the density times |z| at
        # each end (0 past |z| = 40), over the mass. A narrow window loses
        # digits here.
        ends = (min(abs(z_a), 40.0), min(abs(z_b), 40.0))
        spread = lower + upper + sum(z * math.exp(-0.5 * z * z) for z in ends) / _SQRT_2PI
        mass_error = 2.0 * (_EPS * spread + 2.0**-1074) / mass
        # the tail side, its normal cdf at a, the window's mass, the
        # density's divisor and its log, and the log's rounding, kept
        # outside the fields; the log is a sum of logs, finite where the
        # divisor itself underflows
        log_sigma, log_mass = math.log(sigma), math.log(mass)
        _store(self, "_side", side)
        _store(self, "_lower", lower)
        _store(self, "_mass", mass)
        _store(self, "_scale", sigma * _SQRT_2PI * mass)
        _store(self, "_log_scale", log_sigma + _LOG_SQRT_2PI + log_mass)
        _store(self, "_log_norm_error",
               mass_error + _log_rounding(log_sigma, _LOG_SQRT_2PI, log_mass))

    def _z(self, x: float) -> float:
        return (x - self.mu) / self.sigma

    def cdf(self, x: float) -> float:
        side = self._side
        # + 0.0 turns the mirrored side's -0.0 at a into +0.0
        return side * (_phi(side * self._z(x)) - self._lower) / self._mass + 0.0

    def density(self, x: float) -> float:
        z = self._z(x)
        return math.exp(-0.5 * z * z) / self._scale

    def log_density(self, x: float, da: float, db: float) -> float:
        z = self._z(x)
        return -0.5 * z * z - self._log_scale

    def inverse(self, u: float) -> float:
        side = self._side
        p = self._lower + side * u * self._mass
        return self.mu + self.sigma * (side * float(_ndtri(p)))


class Power(ContinuousGrading):
    """cdf t^p on the unit interval, mapped affinely onto [a, b]."""

    p: float
    a: float
    b: float

    family: ClassVar[str] = "power"
    params: ClassVar[tuple[str, ...]] = ("p",)

    _fields = ("p", "a", "b")
    __slots__ = _fields

    def __init__(self, p, a=0.0, b=1.0):
        _store(self, "p", p)
        _store(self, "a", a)
        _store(self, "b", b)
        self.__post_init__()

    def _validate(self) -> None:
        if not (math.isfinite(self.p) and self.p > 0):
            raise InvalidInputError(f"exponent must be positive and finite, got {self.p!r}")
        # ln(p / width) and its rounding, kept outside the fields
        log_p, log_width = math.log(self.p), math.log(self.b - self.a)
        _store(self, "_log_factor", log_p - log_width)
        _store(self, "_log_norm_error", _log_rounding(log_p, log_width))

    def _t(self, x: float) -> float:
        return (x - self.a) / (self.b - self.a)

    def cdf(self, x: float) -> float:
        return min(max(self._t(x), 0.0), 1.0) ** self.p

    def density(self, x: float) -> float:
        t = self._t(x)
        width = self.b - self.a
        if t <= 0.0:
            if self.p > 1.0:
                return 0.0
            return 1.0 / width if self.p == 1.0 else math.inf
        return self.p * min(t, 1.0) ** (self.p - 1.0) / width

    def log_density(self, x: float, da: float, db: float) -> float:
        width = self.b - self.a
        try:
            return self._log_factor + (self.p - 1.0) * math.log(da / width)
        except ValueError:  # da / width underflowed to 0
            return self._log_factor + (self.p - 1.0) * log_ratio(da, width)

    def inverse(self, u: float) -> float:
        return self.a + u ** (1.0 / self.p) * (self.b - self.a)


class PiecewiseLinearCdf(ContinuousGrading):
    """A grading interpolated linearly through knots (x_i, y_i).

    Both coordinates must be strictly increasing. The grades need not run
    from 0 to 1: any strictly increasing polyline is a valid grading
    function, probability or not.
    """

    knots: tuple[tuple[float, float], ...]

    family: ClassVar[str] = "piecewise_linear_cdf"
    params: ClassVar[tuple[str, ...]] = ("knots",)

    _fields = ("knots",)
    __slots__ = _fields

    def __init__(self, knots):
        _store(self, "knots", knots)
        self.__post_init__()

    def __post_init__(self):
        try:
            knots = tuple(as_floats(k, f"knots[{i}]") for i, k in enumerate(self.knots))
        except TypeError:
            raise InvalidInputError("knots must be an array of (x, y) pairs") from None
        if len(knots) < 2:
            raise InvalidInputError("need at least 2 knots")
        for i, knot in enumerate(knots):
            if len(knot) != 2:
                raise InvalidInputError(f"knots[{i}] must be a pair (x, y), got {knot!r}")
            if not all(map(math.isfinite, knot)):
                raise InvalidInputError(f"knots must be finite, got {knot!r}")
        for k in range(1, len(knots)):
            if knots[k][0] <= knots[k - 1][0] or knots[k][1] <= knots[k - 1][1]:
                raise InvalidInputError(
                    "knots must be strictly increasing in both coordinates, "
                    f"got {knots[k - 1]!r} then {knots[k]!r}"
                )
        (x0, y0), (xn, yn) = knots[0], knots[-1]
        _check_interval(x0, xn)
        if not math.isfinite(yn - y0):
            raise InvalidInputError(
                f"grade span [{y0!r}, {yn!r}] overflows: its width is not a finite double"
            )
        _store(self, "knots", knots)
        # knot coordinates for bisection, ln of each segment's slope, which
        # may overflow where its logarithm does not, and the largest
        # rounding of those logs, kept outside the fields
        log_slopes = tuple(
            log_ratio(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(knots, knots[1:])
        )
        _store(self, "_xs", tuple(x for x, _ in knots))
        _store(self, "_ys", tuple(y for _, y in knots))
        _store(self, "_log_slopes", log_slopes)
        _store(self, "_log_norm_error", max(map(_log_rounding, log_slopes)))

    @property
    def support(self) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    def _segment(self, x: float) -> int:
        return min(max(bisect_right(self._xs, x) - 1, 0), len(self.knots) - 2)

    def cdf(self, x: float) -> float:
        if x >= self.knots[-1][0]:
            return self.knots[-1][1]
        if x <= self.knots[0][0]:
            return self.knots[0][1]
        i = self._segment(x)
        (x0, y0), (x1, y1) = self.knots[i], self.knots[i + 1]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    def density(self, x: float) -> float:
        i = self._segment(x)
        (x0, y0), (x1, y1) = self.knots[i], self.knots[i + 1]
        return (y1 - y0) / (x1 - x0)

    def log_density(self, x: float, da: float, db: float) -> float:
        return self._log_slopes[self._segment(x)]

    def inverse(self, u: float) -> float:
        if u >= self.knots[-1][1]:
            return self.knots[-1][0]
        if u <= self.knots[0][1]:
            return self.knots[0][0]
        i = min(max(bisect_right(self._ys, u) - 1, 0), len(self.knots) - 2)
        (x0, y0), (x1, y1) = self.knots[i], self.knots[i + 1]
        return x0 + (u - y0) * (x1 - x0) / (y1 - y0)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.knots[1:-1])

    def shape_params(self) -> dict:
        return {"knots": [[x, y] for x, y in self.knots]}


# family name -> class: the catalog a continuous_grading document names
FAMILIES: dict[str, type[ContinuousGrading]] = {
    cls.family: cls
    for cls in (Uniform, Triangular, Beta, TruncatedNormal, Power, PiecewiseLinearCdf)
}
