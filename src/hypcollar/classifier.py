"""Parabolicity classifier for flute-type surfaces, exhaustions and covers.

Every verdict cites the criterion (divergent series) it used.  Series of the
form sum C * n^-p * (ln n)^-q * (ln ln n)^-r are classified exactly, in
rational arithmetic on the floats as parsed: divergent iff (p, q, r) <=
(1, 1, 1) lexicographically.  So a decimal input on a boundary is decided
by its binary value (the floats 0.3 and 3.7 sum to more than 4).  Every
validated length spec gives one form per branch, looking through prefixes
at any depth.  Only non-constant twists and a non-constant cover eps still
reach partial sums with a log-log slope fit, which can be inconclusive and
never certifies a non-parabolic verdict.  Sigma sums that do not telescope
(an odd branch may split a + b into log terms at one shift) are built only
for their overflow.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from ._lazy import numpy as np

from .hypgeom import HypothesisError, normalize_twist
from .surfaces import (
    AbelianCover,
    AlternatingLogAffine,
    BiInfiniteFlute,
    BoundedBoundary,
    CantorTree,
    Constant,
    ExplicitPrefixThenTail,
    FluteSpec,
    Linear,
    LogAffine,
    ScaledPowerDecay,
    SpecError,
    branches,
    is_concave,
    sigma_sequence,
)

# a series C n^-p (ln n)^-q (ln ln n)^-r diverges iff (p, q, r) <= _BERTRAND
_BERTRAND = (1, 1, 1)


# ---------------------------------------------------------------------------
# series classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesBehavior:
    """Verdict on a positive series: diverges / converges / inconclusive."""

    verdict: str  # "diverges" | "converges" | "inconclusive"
    method: str  # "bertrand-exact" | "partial-sum"
    detail: str = ""


def _exponents_single(spec, kappa, poly, length_factor):
    """Exponent triple (p, q, r) for a leaf shape that `validate_lengths`
    admits: its terms have a bounded ratio to n^-p (ln n)^-q (ln ln n)^-r.
    kappa is a Fraction; p is +-inf for terms beyond every power of n."""
    if isinstance(spec, LogAffine):
        p = kappa * spec.log_coef_sum + (Fraction(poly) if poly else 0)
        q = kappa * Fraction(spec.loglog_coef) if spec.loglog_coef else 0
        r = 0
        if length_factor:
            if spec.log_coef_sum != 0:
                q += 1
            elif spec.loglog_coef != 0:
                r = 1
            elif spec.const == 0:  # l_n ~ C / n^k, so 1/l_n ~ n^k
                p -= spec.vanishing_order
        return (p, q, r)
    if isinstance(spec, Linear):
        if kappa > 0 and spec.slope > 0:
            return (math.inf, 0, 0)
        grows = length_factor and spec.slope > 0  # 1/l_n ~ 1/n
        return (Fraction(poly) + 1 if grows else poly, 0, 0)
    if isinstance(spec, ScaledPowerDecay) and length_factor:
        # e^{-kappa l_n} -> 1; the 1/l_n factor grows geometrically
        return (-math.inf, 0, 0)
    if isinstance(spec, (Constant, ScaledPowerDecay)):
        return (poly, 0, 0)
    raise SpecError("no exponent form for the length shape %r" % (spec,))


def _exponent_forms(lengths, kappa, poly=0.0, length_factor=False):
    """List of exponent triples of the terms e^{-kappa l_n} n^{-poly} /
    l_n^{length_factor}, one for each of the `branches` of the lengths: the
    series diverges iff one of them does."""
    kappa = Fraction(kappa)
    return [_exponents_single(branch, kappa, poly, length_factor)
            for branch in branches(lengths)]


def _exponent_text(x):
    """Text that names x exactly: a float as %g where that reads back as it,
    else as its shortest repr; any other rational as the fraction n/d."""
    f = float(x)
    if isinstance(x, Fraction) and f.as_integer_ratio() != (x.numerator, x.denominator):
        return str(x)
    text = "%g" % f
    return text if float(text) == f else repr(f)


def _heuristic(term_fn):
    """Partial-sum fallback: the decay exponent of the terms, fitted at 60
    log-spaced n in [10^4, 10^6], with an ambiguity band around 1."""
    ns = np.unique(np.geomspace(10_000, 1_000_000, 60).astype(np.int64))
    logs = []
    for n in ns:
        t = term_fn(int(n))
        if t <= 0 or not math.isfinite(t):
            return SeriesBehavior("inconclusive", "partial-sum", "non-power terms")
        logs.append(math.log(t))
    p_hat = float(-np.polyfit(np.log(ns.astype(float)), np.array(logs), 1)[0])
    detail = "fitted exponent %.4f" % p_hat
    if p_hat < 0.9:
        return SeriesBehavior("diverges", "partial-sum", detail)
    if p_hat > 1.1:
        return SeriesBehavior("converges", "partial-sum", detail)
    return SeriesBehavior("inconclusive", "partial-sum", detail)


def classify_series(lengths, kappa, poly=0.0, length_factor=False):
    """Classify sum of C e^{-kappa l_n} n^{-poly} / l_n^{length_factor} for a
    validated length spec, exactly: every branch of one has an exponent
    form."""
    forms = _exponent_forms(lengths, kappa, poly, length_factor)
    return SeriesBehavior(
        "diverges" if min(forms) <= _BERTRAND else "converges",
        "bertrand-exact",
        ", ".join("p=%s q=%s r=%s" % tuple(map(_exponent_text, f)) for f in forms),
    )


# ---------------------------------------------------------------------------
# sigma series (half-twist incompleteness test)
# ---------------------------------------------------------------------------


def _telescoping_branches(lengths):
    """Detect l_{2k} = a ln(k+s+1) + b ln(k+s), l_{2k+1} = (a+b) ln(k+s+1),
    exactly: the odd branch may split a + b into several log terms, all at
    the shift s + 1.

    For this shape the alternating sums sigma telescope:
    sigma_{2k} = a ln(k+s+1) + const and sigma_{2k+1} = b ln(k+s+1) + const,
    so the sigma series is Bertrand-classifiable.  A finite prefix changes
    sigma_n by a constant times (-1)^n, so it is looked through.  Returns
    (a, b) or None.
    """
    parts = branches(lengths)
    if len(parts) != 2 or not all(isinstance(b, LogAffine) for b in parts):
        return None
    ev, od = parts
    if ev.loglog_coef or od.loglog_coef or ev.const != od.const:
        return None
    if len(ev.log_terms) != 2 or not od.log_terms:
        return None
    (a1, s1), (a2, s2) = sorted(ev.log_terms, key=lambda t: -t[1])
    if not (
        Fraction(s1) - Fraction(s2) == 1
        and all(so == s1 for _, so in od.log_terms)
        and od.log_coef_sum == ev.log_coef_sum
    ):
        return None
    return (a1, a2)


def classify_sigma_series(lengths):
    """Behaviour of sum e^{-sigma_n / 2} for the alternating sums sigma
    where sigma telescopes, else None.

    Otherwise sigma_1, ..., sigma_200000 are built only to raise the
    OverflowError of e^{-sigma_n / 2} where it overflows, an exit code the
    benchmark records.  exp is monotone, so the least sigma decides; the
    scaling by -1/2 is exact and applied to that one value, and NaN and
    infinities reach exp as they would elementwise.
    """
    pair = _telescoping_branches(lengths)
    if pair is None:
        math.exp(-0.5 * float(np.min(sigma_sequence(lengths, 200_000))))
        return None
    # e^{-sigma/2} ~ k^{-a/2} and k^{-b/2} on the two branches
    p = [Fraction(a) / 2 for a in pair]
    return SeriesBehavior(
        "diverges" if min(p) <= 1 else "converges",
        "bertrand-exact",
        "sigma branches p=%s, p=%s" % tuple(map(_exponent_text, p)),
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with the criterion that produced it."""

    kind: str  # "Parabolic" | "NotParabolic" | "Unknown"
    criterion: str
    reason: Optional[str] = None  # for NotParabolic
    series: Optional[SeriesBehavior] = None
    hypotheses_assumed: Tuple[str, ...] = ()

    def as_dict(self):
        return {
            "kind": self.kind,
            "reason": self.reason,
            "criterion": self.criterion,
            "series": None
            if self.series is None
            else {
                "verdict": self.series.verdict,
                "method": self.series.method,
                "detail": self.series.detail,
            },
            "hypotheses_assumed": list(self.hypotheses_assumed),
        }


def _constant_twist(twists):
    """The twist of a Constant or slope-0 Linear twist spec, else None.  The
    surface specs have checked that it lies in (-1/2, 1/2]."""
    if isinstance(twists, Constant):
        return twists.value
    if isinstance(twists, Linear) and twists.slope == 0:
        return twists.intercept
    return None


def _twisted_series(lengths, twists, poly=0.0):
    """sum_n e^{-(1 - |t_n|) l_n / 2} / n^poly: exact (Bertrand) for a
    constant twist, else the partial-sum heuristic."""
    t = _constant_twist(twists)
    if t is not None:
        return classify_series(lengths, (1 - abs(Fraction(t))) / 2, poly)
    return _heuristic(
        lambda n: math.exp(
            -0.5 * (1.0 - abs(normalize_twist(twists.term(n)))) * lengths.term(n)
        )
        / max(1.0, float(n) ** poly)
    )


def _sufficient(criterion, beh, **fields):
    """The verdict of a series criterion where a convergent series proves
    nothing: Parabolic when it diverges, else Unknown."""
    kind = "Parabolic" if beh.verdict == "diverges" else "Unknown"
    return Verdict(kind, criterion=criterion, series=beh, **fields)


# the constant twists whose series criterion is an iff
_IFF_CRITERIA = {0.0: "zero-twist-series", 0.5: "half-twist-series"}


def classify_flute(flute):
    """Parabolicity of a tight flute from its length/twist sequences.  Its
    series decides both ways for the zero twist and, when the sigma series
    converges or the lengths are concave, for the half twist."""
    lengths = flute.lengths
    if any(branch.is_bounded for branch in branches(lengths)):
        return Verdict(
            "Parabolic",
            criterion="bounded-lengths",
            series=SeriesBehavior("diverges", "bertrand-exact",
                                  "bounded length subsequence"),
        )
    criterion = _IFF_CRITERIA.get(_constant_twist(flute.twists),
                                  "twisted-flute-series")
    beh = _twisted_series(lengths, flute.twists)
    if beh.verdict == "diverges" or criterion == "twisted-flute-series":
        return _sufficient(criterion, beh)
    if criterion == "half-twist-series":
        sig = classify_sigma_series(lengths)
        if sig is not None and sig.verdict == "converges":
            return Verdict(
                "NotParabolic",
                criterion="half-twist-incompleteness",
                reason="Incomplete",
                series=sig,
            )
        if not is_concave(lengths):
            return _sufficient(criterion, beh)
    return Verdict(
        "NotParabolic",
        criterion=criterion,
        reason="SeriesConvergesUnderIff",
        series=beh,
    )


_TWIST_HYPOTHESES = frozenset(
    {"not-pair-of-pants", "uniform-orthogeodesic-distance"}
)


def classify_exhaustion(spec, use_twists=False, hypotheses_asserted=()):
    """Parabolicity test along an exhaustion by finite subsurfaces.

    With use_twists=False the untwisted collar criterion is used (always
    safe); with use_twists=True the caller must assert the hypotheses
    'not-pair-of-pants' and 'uniform-orthogeodesic-distance' which the data
    model cannot check.
    """
    if isinstance(spec, FluteSpec):
        return classify_flute(spec)
    if isinstance(spec, AbelianCover):
        return classify_cover(spec)
    if isinstance(spec, CantorTree):
        return _classify_cantor(spec)
    if use_twists:
        missing = _TWIST_HYPOTHESES - set(hypotheses_asserted)
        if missing:
            raise HypothesisError(
                "twisted exhaustion criterion requires asserted hypotheses: "
                + ", ".join(sorted(missing))
            )
    criterion = (
        "twisted-collar-series" if use_twists else "untwisted-collar-series"
    )
    asserted = set(hypotheses_asserted) if use_twists else set()
    if isinstance(spec, BiInfiniteFlute):
        beh = _bi_infinite_series(spec, use_twists)
    elif isinstance(spec, BoundedBoundary):
        twists = spec.twists if use_twists else Constant(0.0)
        beh = _twisted_series(spec.lengths, twists, spec.count_exponent)
    else:
        raise SpecError("unknown exhaustion spec %r" % (spec,))
    # a handle bound below 1.5 gives consecutive boundary curves an
    # orthogeodesic length of at least 1; without one it is assumed
    assumed = set()
    if (not isinstance(spec, BoundedBoundary) or spec.beta_bound is None
            or spec.beta_bound >= 1.5):
        assumed = {"orthogeodesic-length-at-least-1"}
    return _sufficient(criterion, beh,
                       hypotheses_assumed=tuple(sorted(assumed | asserted)))


def _bi_infinite_series(spec, use_twists):
    """sum_n 1 / (e^{k_n l_n} + e^{k'_n l'_n}) over the two ends, with
    k_n = (1 - |t_n|) / 2 if twists are used, else 1/2."""

    def kappa(twists):
        t = _constant_twist(twists) if use_twists else 0.0
        return None if t is None else (1 - abs(Fraction(t))) / 2

    kpos, kneg = kappa(spec.twists_pos), kappa(spec.twists_neg)
    if kpos is not None and kneg is not None:
        pos = _exponent_forms(spec.lengths_pos, kpos)
        neg = _exponent_forms(spec.lengths_neg, kneg)
        # the branches are (even n, odd n), or one for both: the ends meet
        # at each parity, where 1/(A_n + B_n) is comparable to the
        # faster-decaying end, and the series diverges iff one parity does
        decisive = min(max(pos[j % len(pos)], neg[j % len(neg)])
                       for j in range(max(len(pos), len(neg))))
        return SeriesBehavior(
            "diverges" if decisive <= _BERTRAND else "converges",
            "bertrand-exact",
            "dominant p=%s q=%s" % tuple(map(_exponent_text, decisive[:2])),
        )

    def one(lengths, twists, n):
        k = 0.5
        if use_twists:
            k = 0.5 * (1.0 - abs(normalize_twist(twists.term(n))))
        return math.exp(k * lengths.term(n))

    return _heuristic(
        lambda n: 1.0 / (one(spec.lengths_pos, spec.twists_pos, n)
                         + one(spec.lengths_neg, spec.twists_neg, n))
    )


def _classify_cantor(spec):
    """Tree criterion: sum over levels of lambda(l_n) / 2^n.

    lambda is the standard half-collar extremal distance, which behaves like
    1/l_n for the small lengths trees require, so divergence is decidable for
    the scaled-power-decay shape l_n = c n / base^n.
    """
    parts = branches(spec.level_lengths)
    # along one of m branches, level n = m k + j has l_n = c k / base^k: the
    # terms are comparable to ratio^k / k, with ratio = base / 2^m
    ratio = max((b.base / 2.0 ** len(parts) for b in parts
                 if isinstance(b, ScaledPowerDecay)), default=0.0)
    if ratio >= 1.0:
        detail = "terms grow geometrically" if ratio > 1.0 else "p=1 q=0"
        beh = SeriesBehavior("diverges", "bertrand-exact", detail)
    else:
        # smaller bases, or lengths that decay at most polynomially (every
        # other shape), so that lambda(l_n) grows at most polynomially: the
        # terms are at most C 2^-n n^k, and the series converges
        beh = SeriesBehavior("converges", "bertrand-exact",
                             "terms decay geometrically")
    return _sufficient("tree-collar-series", beh)


def classify_cover(cov):
    """Sufficiency criteria for normal covers with free abelian deck group."""
    if cov.rank == 1:
        beh = _twisted_series(cov.L, cov.tau)
        crit = "cover-rank1-series"
    elif cov.rank == 2 and cov.config == "disjoint-pair":
        beh = _twisted_series(cov.L, cov.tau, poly=1.0)
        crit = "cover-rank2-disjoint-series"
    elif cov.rank == 2 and cov.config == "intersecting-pair":
        if isinstance(cov.eps, Constant):
            beh = classify_series(cov.ell, 0.0, length_factor=True)
        else:
            beh = _heuristic(
                lambda n: math.atan(math.sinh(cov.eps.term(n))) / cov.ell.term(n)
            )
        crit = "cover-collar-width-series"
    else:
        beh = classify_series(cov.L, 0.5, float(cov.rank - 1), length_factor=True)
        crit = "cover-rank%d-series" % cov.rank
    return _sufficient(crit, beh)


# ---------------------------------------------------------------------------
# named example families and sweeps
# ---------------------------------------------------------------------------


def two_parameter_flute(a, b, l1=None):
    """Half-twisted flute with l_{2k} = a ln(k+1) + b ln k, l_{2k+1} = (a+b) ln(k+1).

    l_1 may be any value in (0, a ln 2); the default is a ln(2) / 2.  The odd
    branch keeps a and b as two log terms, so that a + b is exact.
    """
    if not (a > 0 and b > 0):
        raise SpecError("need a > 0 and b > 0")
    if l1 is None:
        l1 = 0.5 * a * math.log(2.0)
    if not (0 < l1 < a * math.log(2.0)):
        raise SpecError("need 0 < l1 < a ln 2")
    a, b = float(a), float(b)
    lengths = ExplicitPrefixThenTail(
        values=(float(l1),),
        tail=AlternatingLogAffine(
            even=LogAffine(log_terms=((a, 1.0), (b, 0.0))),
            odd=LogAffine(log_terms=((a, 1.0), (b, 1.0))),
        ),
    )
    return FluteSpec(lengths=lengths, twists=Constant(0.5))


def scaled_flute(s):
    """The one-parameter family two_parameter_flute(s, 2 s)."""
    if not s > 0:
        raise SpecError("need s > 0")
    return two_parameter_flute(s, 2.0 * s)


def _sweep_row(path, family, **params):
    """The sweep row of family(**params); a SpecError names the config path
    of the parameter and its value."""
    try:
        v = classify_flute(family(**params))
    except SpecError as exc:
        values = ", ".join("%s = %r" % item for item in zip(path, params.values()))
        raise SpecError("%s: %s" % (values, exc)) from None
    return dict(params, kind=v.kind, reason=v.reason or "", criterion=v.criterion)


def sweep_two_parameter(a_values, b_values):
    """Classify two_parameter_flute on a grid; rows of (a, b, verdict)."""
    return [_sweep_row(("a[%d]" % i, "b[%d]" % j), two_parameter_flute, a=a, b=b)
            for i, a in enumerate(a_values) for j, b in enumerate(b_values)]


def sweep_scaled(s_values):
    """Classify scaled_flute along a list of scales."""
    return [_sweep_row(("s[%d]" % i,), scaled_flute, s=s)
            for i, s in enumerate(s_values)]
