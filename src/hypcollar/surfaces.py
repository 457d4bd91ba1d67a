"""Data models for flute-type surfaces, exhaustions and abelian covers.

Length and twist sequences are given by small structured specs so that the
classifier can reason about their growth exactly; only a few shapes are
supported (logarithmic growth, alternating logarithmic, linear, constant,
explicit prefixes, and the scaled power decay used by trees).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from ._lazy import numpy as np

from .hypgeom import validate_twist


class SpecError(ValueError):
    """A sequence or surface spec is malformed."""


def _check_start(start, n_max):
    """The index check of the scalar `term`, for the run start, ..., n_max."""
    if start < 1 and start <= n_max:
        raise SpecError("indices start at n = 1")


def _indices(start, n_max):
    """The run start, ..., n_max as a float array of exact integers."""
    _check_start(start, n_max)
    return np.arange(start, n_max + 1, dtype=float)


def _elementwise(spec, start, n_max):
    """spec.term at each index of the run, keeping the scalar errors (such
    as the OverflowError of a float power)."""
    return np.array([spec.term(n) for n in range(start, n_max + 1)], dtype=float)


# ---------------------------------------------------------------------------
# sequence specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogAffine:
    """l_n = sum_i a_i ln(n + s_i) + b ln ln(n + n1) + c.

    `log_terms` is a tuple of (coefficient, shift) pairs.  The common single
    log case is log_affine(a, b, c, n0, n1).
    """

    log_terms: Tuple[Tuple[float, float], ...] = ()
    loglog_coef: float = 0.0
    loglog_shift: float = 1.0
    const: float = 0.0

    def term(self, n):
        if n < 1:
            raise SpecError("indices start at n = 1")
        v = self.const
        for a, s in self.log_terms:
            arg = n + s
            if arg <= 0:
                raise SpecError("log argument nonpositive at n = %d" % n)
            v += a * math.log(arg)
        if self.loglog_coef:
            arg = n + self.loglog_shift
            if arg <= 1:
                raise SpecError("log log argument <= 1 at n = %d" % n)
            v += self.loglog_coef * math.log(math.log(arg))
        return v

    def terms(self, start, n_max):
        """`term` for n = start, ..., n_max, as a float array; it agrees
        with `term` up to the last bit or so of a logarithm.

        Each argument grows with n, so a run fails exactly when its first
        index does, with the message `term` gives there.
        """
        ns = _indices(start, n_max)
        v = np.full(len(ns), self.const, dtype=float)
        for a, s in self.log_terms:
            if len(ns) and start + s <= 0:
                raise SpecError("log argument nonpositive at n = %d" % start)
            arg = ns + s
            np.log(arg, out=arg)
            arg *= a
            v += arg
        if self.loglog_coef:
            if len(ns) and start + self.loglog_shift <= 1:
                raise SpecError("log log argument <= 1 at n = %d" % start)
            arg = ns + self.loglog_shift
            np.log(arg, out=arg)
            np.log(arg, out=arg)
            arg *= self.loglog_coef
            v += arg
        return v

    @cached_property
    def log_coef_sum(self):
        """sum_i a_i, exactly."""
        return sum(Fraction(a) for a, _ in self.log_terms)

    @property
    def is_bounded(self):
        return self.log_coef_sum == 0 and self.loglog_coef == 0

    @property
    def vanishing_order(self):
        """First k >= 1 with sum_i a_i s_i^k != 0, exactly: when sum_i a_i = 0,
        the log terms tend to 0 like 1/n^k.  0 if every such moment vanishes."""
        exact = [(Fraction(a), Fraction(s)) for a, s in self.log_terms]
        return next((k for k in range(1, len(exact) + 1)
                     if sum(a * s ** k for a, s in exact)), 0)


def log_affine(a=0.0, b=0.0, c=0.0, n0=0.0, n1=1.0):
    """Shorthand for the single-log LogAffine a ln(n+n0) + b ln ln(n+n1) + c."""
    return LogAffine(
        log_terms=((float(a), float(n0)),) if a else (),
        loglog_coef=float(b),
        loglog_shift=float(n1),
        const=float(c),
    )


@dataclass(frozen=True)
class Constant:
    """l_n = value for all n."""

    value: float

    def term(self, n):
        if n < 1:
            raise SpecError("indices start at n = 1")
        return self.value

    def terms(self, start, n_max):
        return _elementwise(self, start, n_max)

    @property
    def is_bounded(self):
        return True


@dataclass(frozen=True)
class Linear:
    """l_n = slope * n + intercept."""

    slope: float
    intercept: float = 0.0

    def term(self, n):
        if n < 1:
            raise SpecError("indices start at n = 1")
        return self.slope * n + self.intercept

    def terms(self, start, n_max):
        v = _indices(start, n_max)
        v *= self.slope
        v += self.intercept
        return v

    @property
    def is_bounded(self):
        return self.slope == 0


@dataclass(frozen=True)
class AlternatingLogAffine:
    """Interleaving of two specs: l_{2k} = even(k), l_{2k+1} = odd(k).

    Terms are defined for global index n >= 2 (so it is normally wrapped in an
    ExplicitPrefixThenTail supplying l_1).
    """

    even: LogAffine
    odd: LogAffine

    def term(self, n):
        if n < 2:
            raise SpecError(
                "alternating specs start at n = 2; supply a prefix for n = 1"
            )
        if n % 2 == 0:
            return self.even.term(n // 2)
        return self.odd.term((n - 1) // 2)

    def terms(self, start, n_max):
        """`term` for n = start, ..., n_max, each branch filling every other
        entry.  The branch of `start` goes first, so that a failing run
        raises the error `term` meets first."""
        if start < 2 and start <= n_max:
            self.term(start)  # raises the scalar error for n < 2
        v = np.empty(max(n_max - start + 1, 0))
        branches = (self.even, self.odd) if start % 2 == 0 else (self.odd, self.even)
        for offset, spec in enumerate(branches):
            parity = (start + offset) % 2
            v[offset::2] = spec.terms((start + offset - parity) // 2,
                                      (n_max - parity) // 2)
        return v


@dataclass(frozen=True)
class ExplicitPrefixThenTail:
    """Explicit first values, then a tail spec evaluated at the global index."""

    values: Tuple[float, ...]
    tail: object

    def term(self, n):
        if n < 1:
            raise SpecError("indices start at n = 1")
        if n <= len(self.values):
            return self.values[n - 1]
        return self.tail.term(n)

    def terms(self, start, n_max):
        _check_start(start, n_max)
        return np.concatenate([
            np.array(self.values[start - 1:n_max], dtype=float),
            self.tail.terms(max(start, len(self.values) + 1), n_max),
        ])


@dataclass(frozen=True)
class ScaledPowerDecay:
    """l_n = coef * n / base^n (small lengths decaying geometrically)."""

    coef: float
    base: float

    def __post_init__(self):
        if not (self.coef > 0 and self.base > 1):
            raise SpecError("need coef > 0 and base > 1")

    def term(self, n):
        if n < 1:
            raise SpecError("indices start at n = 1")
        return self.coef * n / self.base**n

    def terms(self, start, n_max):
        return _elementwise(self, start, n_max)

    @property
    def is_bounded(self):
        return True


def _leading_coefficient(spec):
    """A number with the sign of a LogAffine's terms for large n: the first
    nonzero of (sum of log coefficients, log log coefficient, const), else
    (-1)^(k+1) sum_i a_i s_i^k at k = vanishing_order, since the log terms
    then tend to 0 like that over k n^k; 0 if every one vanishes."""
    lead = next(
        (x for x in (spec.log_coef_sum, spec.loglog_coef, spec.const) if x), 0.0)
    if lead or not spec.vanishing_order:
        return lead
    k = spec.vanishing_order
    return (-1) ** (k + 1) * sum(
        Fraction(a) * Fraction(s) ** k for a, s in spec.log_terms)


def branches(spec):
    """The two branches of an alternating spec, or else the spec itself, as
    a tuple, looking through every finite prefix before it: no prefix
    changes how a series over the terms behaves."""
    while isinstance(spec, ExplicitPrefixThenTail):
        spec = spec.tail
    if isinstance(spec, AlternatingLogAffine):
        return (spec.even, spec.odd)
    return (spec,)


def validate_lengths(spec, field="lengths"):
    """Check that a length spec gives positive finite lengths; errors name
    the spec's `field`.

    The first 64 terms are evaluated.  Beyond them the shape decides: each
    of `branches` must be a Constant, Linear, LogAffine or ScaledPowerDecay,
    a Linear one needs slope >= 0 and a LogAffine one a nonnegative leading
    coefficient, so that the terms do not turn negative for large n.
    """
    for n in range(1, 65):
        try:
            v = spec.term(n)
        except SpecError as exc:
            raise SpecError("%s: %s" % (field, exc)) from None
        if not (v > 0 and math.isfinite(v)):
            raise SpecError("%s term %d is not a positive float: %r" % (field, n, v))
    for shape in branches(spec):
        if not isinstance(shape, (Constant, Linear, LogAffine, ScaledPowerDecay)):
            raise SpecError("%s: unsupported length shape %r" % (field, shape))
        if isinstance(shape, Linear) and shape.slope < 0:
            raise SpecError("%s: linear lengths with slope %r < 0 turn negative"
                            % (field, shape.slope))
        if isinstance(shape, LogAffine) and _leading_coefficient(shape) < 0:
            raise SpecError("%s: log-affine lengths with a negative leading "
                            "coefficient turn negative: %r" % (field, shape))
    return True


def _validate_twists(spec, field):
    """Check that the first 32 terms of a twist spec lie in the canonical
    interval (-1/2, 1/2]; errors name the spec's `field`."""
    for n in range(1, 33):
        t = spec.term(n)
        try:
            validate_twist(t)
        except ValueError as exc:
            raise SpecError("%s term %d: %s" % (field, n, exc)) from None


# ---------------------------------------------------------------------------
# derived sequences
# ---------------------------------------------------------------------------


# Terms per `terms` call of a sigma run: each temporary of a block is 64 KiB,
# under glibc's 128 KiB mmap threshold, so it reuses freed heap memory
# instead of faulting in fresh pages the way a 200k-term temporary does.
_SIGMA_BLOCK = 8192


def sigma_sequence(lengths, n_max):
    """The alternating partial sums sigma_n = l_n - sigma_{n-1}, sigma_1 = l_1.

    Identity: sigma_n + sigma_{n-1} = l_n for every n >= 2 (exactly, by
    construction of the recurrence).  The one result array is filled with
    `lengths.terms` in blocks of _SIGMA_BLOCK terms, in order of n; each
    term depends on its n alone, so the blocks give the terms of one
    `terms(1, n_max)` call bit for bit, and a failing spec raises the error
    that call raises.  Then, in place, an alternating cumulative sum,
    (-1)^k sigma = cumsum((-1)^k l), which rounds exactly as the recurrence
    does: rounding to nearest commutes with negation.  The sign is restored
    as 0 - x, so that an exact zero stays +0.0, as l - l gives it in the
    recurrence.
    """
    sigma = np.empty(max(n_max, 0))
    for start in range(1, n_max + 1, _SIGMA_BLOCK):
        stop = min(start + _SIGMA_BLOCK - 1, n_max)
        sigma[start - 1:stop] = lengths.terms(start, stop)
    np.negative(sigma[1::2], out=sigma[1::2])
    np.cumsum(sigma, out=sigma)
    np.subtract(0.0, sigma[1::2], out=sigma[1::2])
    return sigma


def is_concave(lengths):
    """Is the length sequence provably non-decreasing with
    2 l_n >= l_{n+1} + l_{n-1} for every n?

    True only for the shapes where this holds for all n: constants, Linear
    with slope >= 0, and LogAffine with nonnegative coefficients.  False
    means not proven, not that the sequence fails.
    """
    if isinstance(lengths, Constant):
        return True
    if isinstance(lengths, LogAffine):
        return (all(a >= 0 for a, _ in lengths.log_terms)
                and lengths.loglog_coef >= 0)
    return isinstance(lengths, Linear) and lengths.slope >= 0


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FluteSpec:
    """A tight flute: cyclinder end exhausted by curves alpha_n.

    `lengths` gives l(alpha_n) and `twists` the Fenchel-Nielsen twists t_n
    (canonical interval (-1/2, 1/2], where 1/2 is the half twist).
    """

    lengths: object
    twists: object = Constant(0.0)

    def __post_init__(self):
        validate_lengths(self.lengths)
        _validate_twists(self.twists, "twists")


@dataclass(frozen=True)
class BiInfiniteFlute:
    """Two flute ends, one in each direction; level n has boundary
    {alpha_n, alpha_-n}.

    Each end has its own lengths and twists; a caller whose ends agree
    passes the same spec for both.
    """

    lengths_pos: object
    lengths_neg: object
    twists_pos: object = Constant(0.0)
    twists_neg: object = Constant(0.0)

    def __post_init__(self):
        validate_lengths(self.lengths_pos, "lengths")
        validate_lengths(self.lengths_neg, "lengths_neg")
        _validate_twists(self.twists_pos, "twists")
        _validate_twists(self.twists_neg, "twists_neg")


@dataclass(frozen=True)
class CantorTree:
    """Binary-tree surface; level n has 2^n boundary curves of equal length."""

    level_lengths: object

    def __post_init__(self):
        validate_lengths(self.level_lengths, "level_lengths")


@dataclass(frozen=True)
class BoundedBoundary:
    """Exhaustion with |boundary X_n| growing like n^p (p = 0: bounded).

    All boundary curves of level n share the length bound L_n and the twist
    bound tau_n.  The Loch Ness monster (one curve per level) and the ladder
    (two) are the case p = 0.  beta_bound is a uniform upper bound on the
    lengths of the curves beta_n that cut off their handles: below 1.5 it
    guarantees an orthogeodesic length of at least 1 between consecutive
    boundary curves; None means no bound is known.
    """

    lengths: object
    twists: object = Constant(0.0)
    count_exponent: float = 0.0
    beta_bound: Optional[float] = None

    def __post_init__(self):
        validate_lengths(self.lengths)
        _validate_twists(self.twists, "twists")
        if self.count_exponent < 0:
            raise SpecError("count exponent must be >= 0")


@dataclass(frozen=True)
class AbelianCover:
    """Normal cover of a closed surface with free abelian deck group.

    config is 'single' (rank 1, one nonseparating curve), 'disjoint-pair'
    (rank 2, two disjoint curves) or 'intersecting-pair' (rank 2, two curves
    meeting once); for rank >= 3 config is ignored.  L gives the level-n
    length bound, tau the twist bound; eps/ell are the collar widths and
    lengths used by the intersecting configuration.
    """

    rank: int
    config: str = "single"
    L: object = None
    tau: object = Constant(0.0)
    eps: object = None
    ell: object = None

    def __post_init__(self):
        if self.rank < 1:
            raise SpecError("rank must be >= 1")
        if self.rank <= 2 and self.config not in (
            "single", "disjoint-pair", "intersecting-pair",
        ):
            raise SpecError("unknown cover configuration %r" % (self.config,))
        if self.config == "intersecting-pair":
            if self.eps is None or self.ell is None:
                raise SpecError("intersecting-pair needs eps and ell specs")
        elif self.L is None:
            raise SpecError("cover needs an L spec")
        for spec, field in ((self.L, "L"), (self.eps, "eps"), (self.ell, "ell")):
            if spec is not None:
                validate_lengths(spec, field)
        _validate_twists(self.tau, "tau")
