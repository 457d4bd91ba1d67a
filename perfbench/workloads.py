"""Seeded workload generators for the hypcollar benchmark.

Every workload is a fixed design of cells.  A cell says how many operations
of one family go into each pass and which parameter grid they are drawn
from; the seed picks the parameters inside the cell and the order of the
pass.  Where the cost of an operation swings with its parameters, the cell
is a fixed panel that every pass carries whole.  Fixing the per-cell counts
keeps the cost of a pass steady across seeds, which is what lets the
end-to-end metrics of two seeds be compared.

The `collar` and `classify` grids are finite so that a reference table
recorded from the current code (`reference.json`, written by `record.py`)
covers every operation any seed can draw.  The `oracle` workload needs no
table: its shapes have closed-form moduli, and the collar strips are checked
against sandwich bounds computed here, at generation time.
"""

import json
import math
import os
import random

WORKLOADS = ("oracle", "collar", "classify")


def collar_width(x):
    """r(x) = arcsinh(1 / sinh x), computed here so grids do not depend on
    the code under test."""
    return math.asinh(1.0 / math.sinh(x))


# ---------------------------------------------------------------------------
# collar: CLI flags only, no config file
# ---------------------------------------------------------------------------

HALF_L = tuple(80.0 ** (i / 47) for i in range(48))       # log-uniform [1, 80]
GLUED_L = tuple(2.0 * 40.0 ** (i / 15) for i in range(16))  # log-uniform [2, 80]
HALF_GAMMA = (None, 0.1, 1.0, 4.0)   # None = inf, else offset above r(l/2)
GLUED_GAMMA = (None, 0.5, 3.0)
TWISTS = tuple(k / 8.0 for k in range(-3, 5))             # (-1/2, 1/2]


def _gamma_arg(l_alpha, offset):
    if offset is None:
        return "inf"
    return repr(collar_width(0.5 * l_alpha) + offset)


def half_collar_op(i, j):
    l = HALF_L[i]
    return {
        "key": "half:%d:%d" % (i, j),
        "family": "half",
        "argv": ["collar", "--l-alpha", repr(l), "--l-gamma", _gamma_arg(l, HALF_GAMMA[j])],
        "l_alpha": l,
        "gamma_inf": HALF_GAMMA[j] is None,
    }


def glued_collar_op(i, j1, j2, k):
    l = GLUED_L[i]
    return {
        "key": "glued:%d:%d:%d:%d" % (i, j1, j2, k),
        "family": "glued",
        "argv": ["collar", "--l-alpha", repr(l),
                 "--l-gamma", _gamma_arg(l, GLUED_GAMMA[j1]),
                 "--l-gamma2", _gamma_arg(l, GLUED_GAMMA[j2]),
                 "--twist", repr(TWISTS[k])],
        "l_alpha": l,
        "gamma_inf": GLUED_GAMMA[j1] is None and GLUED_GAMMA[j2] is None,
        "twist": TWISTS[k],
    }


def standard_collar_op(i):
    l = HALF_L[i]
    return {
        "key": "std:%d" % i,
        "family": "standard",
        "argv": ["collar", "--l-alpha", repr(l), "--standard"],
        "l_alpha": l,
    }


# From l_alpha = 40 on, the unmodified package takes from 0.001 s to 10 s per
# collar operation, depending on l_gamma and the twist, and some of these
# operations fail (exit 3).  A seeded draw there would make the cost of a pass
# depend on the seed, so every pass carries the same panel over that band:
# one slow half-collar (about 1 s), the recorded failures at each band length
# (half-collars from l_alpha = 60.5 on, glued collars at twist 0 from 62.6
# on), and the glued collars at twist 1/2.  Below the band the seed draws.
HALF_BAND = 40     # first HALF_L index of the band (l_alpha = 41.6)
GLUED_BAND = 13    # first GLUED_L index of the band (l_alpha = 48.9)
HALF_PANEL = ((41, 0), (44, 1), (45, 0), (46, 0), (47, 0))
GLUED_PANEL = ((13, 7), (14, 3), (14, 7), (15, 3), (15, 7))   # (index, twist index)


def collar_pass(rng):
    """One pass: 10 seeded half-collars (one per four neighbouring grid
    lengths) and 7 seeded glued collars (one per two grid lengths) below the
    band, the 10-operation panel over it, and 4 standard collars.  A pass is
    kept short (about 2 s on a quiet 2-core machine) so that a run takes
    each operation's median over about a dozen passes."""
    ops = []
    for s in range(HALF_BAND // 4):
        ops.append(half_collar_op(4 * s + rng.randrange(4), rng.randrange(len(HALF_GAMMA))))
    ops += [half_collar_op(i, j) for i, j in HALF_PANEL]
    for s in range((GLUED_BAND + 1) // 2):
        ops.append(glued_collar_op(
            min(2 * s + rng.randrange(2), GLUED_BAND - 1), rng.randrange(len(GLUED_GAMMA)),
            rng.randrange(len(GLUED_GAMMA)), rng.randrange(len(TWISTS))))
    ops += [glued_collar_op(i, 0, 0, k) for i, k in GLUED_PANEL]
    for _ in range(4):
        ops.append(standard_collar_op(rng.randrange(len(HALF_L))))
    rng.shuffle(ops)
    return ops


def collar_grid():
    """Every collar operation any seed can draw: the grid below the band,
    the panel over it, and the standard collars."""
    ops = [half_collar_op(i, j) for i in range(HALF_BAND) for j in range(len(HALF_GAMMA))]
    ops += [half_collar_op(i, j) for i, j in HALF_PANEL]
    ops += [
        glued_collar_op(i, j1, j2, k)
        for i in range(GLUED_BAND)
        for j1 in range(len(GLUED_GAMMA))
        for j2 in range(len(GLUED_GAMMA))
        for k in range(len(TWISTS))
    ]
    ops += [glued_collar_op(i, 0, 0, k) for i, k in GLUED_PANEL]
    ops += [standard_collar_op(i) for i in range(len(HALF_L))]
    return ops


# ---------------------------------------------------------------------------
# classify: strict-JSON surface configs
# ---------------------------------------------------------------------------


def la(a, b=0.0, c=0.0, n0=1.0, n1=2.0):
    return {"kind": "log_affine", "a": a, "b": b, "c": c, "n0": n0, "n1": n1}


def const(v):
    return {"kind": "constant", "value": v}


def lin(slope, intercept):
    return {"kind": "linear", "slope": slope, "intercept": intercept}


def pdecay(coef, base):
    return {"kind": "power_decay", "coef": coef, "base": base}


def prefix(values, tail):
    return {"kind": "prefix", "values": list(values), "tail": tail}


def alternating(even, odd):
    return {"kind": "alternating", "even": even, "odd": odd}


def flute(lengths, twists=None):
    cfg = {"type": "flute", "lengths": lengths}
    if twists is not None:
        cfg["twists"] = twists
    return cfg


def two_parameter(a, b):
    """The interleaved half-twist flute l_{2k} = a ln(k+1) + b ln k,
    l_{2k+1} = (a+b) ln(k+1), with l_1 = a ln(2) / 2."""
    even = {"kind": "log_affine", "log_terms": [[a, 1.0], [b, 0.0]]}
    odd = {"kind": "log_affine", "log_terms": [[a + b, 1.0]]}
    return flute(prefix([0.5 * a * math.log(2.0)], alternating(even, odd)), const(0.5))


TWIST_HYPS = ["not-pair-of-pants", "uniform-orthogeodesic-distance"]


def _twisted(cfg, twists):
    cfg = dict(cfg, twists=twists, use_twists=True, hypotheses_asserted=list(TWIST_HYPS))
    return cfg


def _bertrand_kind(p, q):
    """Parabolic iff sum n^-p (ln n)^-q diverges, else NotParabolic."""
    if p < 1.0 or (p == 1.0 and q <= 1.0):
        return "Parabolic"
    return "NotParabolic"


def _zero_twist(a, b, c):
    return flute(la(a, b, c), const(0.0)), {"kind": _bertrand_kind(a / 2.0, b / 2.0)}


def _half_twist(a, b, c):
    return flute(la(a, b, c), const(0.5)), {"kind": _bertrand_kind(a / 4.0, b / 4.0)}


def _two_parameter_rule(a, b):
    if a + b <= 4.0:
        return {"kind": "Parabolic"}
    if min(a, b) > 2.0:
        return {"kind": "NotParabolic", "reason": "Incomplete"}
    return {"kind": "Unknown"}


def _cells():
    """(name, count per pass, [(config, closed-form rule or None)]).

    A count of None makes the cell a panel: every item, once per pass.  The
    configs whose verdict runs the 200k-term sigma loop (0.04 to 0.15 s on a
    2-core machine, against about 1 ms for the rest) are split into cells of
    near-equal cost, so that the seed's picks barely move the cost of a pass:
    12 such operations, a fifteenth of a pass and most of its time.  Fewer
    would leave the tail percentile outside them (see ``run.TAIL_PCT``); more
    would lengthen the pass and cut the number of passes a run takes the
    median over.  Every pass carries recorded failures: one of the two
    overflowing alternating flutes and the power_decay panel.
    """
    zero = [_zero_twist(a, b, c) for a in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
            for b in (0.0, 1.0, 2.0, 3.0) for c in (0.1, 1.0)]
    half = [_half_twist(a, b, c) for a in (1.0, 2.0, 3.0, 3.5, 4.0, 5.0, 6.0)
            for b in (0.0, 2.0, 5.0) for c in (0.1, 1.0)]
    # half-twist verdicts that are not Parabolic run the 200k-term sigma loop
    half_div = [x for x in half if x[1]["kind"] == "Parabolic"]
    half_conv = [x for x in half if x[1]["kind"] != "Parabolic" and x[0]["lengths"]["b"] == 0]
    half_conv_loglog = [x for x in half if x[1]["kind"] != "Parabolic" and x[0]["lengths"]["b"]]
    steps = [0.25 * k for k in range(1, 19)]
    two = [(two_parameter(a, b), _two_parameter_rule(a, b)) for a in steps for b in steps]

    twisted_const = [
        (flute(la(a, b, 0.5), const(t)), None)
        for t in (0.125, 0.25, 0.375, -0.25, -0.375)
        for a in (1.0, 2.0, 3.0, 4.0, 6.0) for b in (0.0, 1.0)
    ]
    twisted_seq = [
        (flute(la(a, 0.0, 0.5), tw), None)
        for tw in (lin(0.01, 0.0), lin(0.01, 0.1), lin(0.005, 0.2), lin(0.002, 0.3))
        for a in (1.0, 2.0, 4.0, 8.0)
    ]
    other_fast = [
        (flute(lengths, const(t)), None)
        for lengths in (const(0.5), const(2.0), const(5.0),
                        pdecay(1.0, 1.5), pdecay(1.0, 2.0), pdecay(1.0, 3.0))
        for t in (0.0, 0.25, 0.5)
    ] + [
        (flute(lin(s, 1.0), const(t)), None)
        for s in (0.5, 1.0, 2.0) for t in (0.0, 0.25)
    ] + [
        (flute(prefix([1.0, 2.5], la(a)), const(t)), None)
        for a in (1.0, 3.0, 5.0) for t in (0.0, 0.25)
    ] + [
        (flute(prefix([1.0, 2.5], la(a)), const(0.5)), None) for a in (1.0, 3.0)
    ]
    # half twist with non-telescoping lengths whose series converges: sigma loop
    other_slow_linear = [(flute(lin(s, 1.0), const(0.5)), None) for s in (0.5, 1.0, 2.0)]
    other_slow_prefix = [
        (flute(prefix([1.0, 2.5], la(a)), const(0.5)), None) for a in (5.0, 6.0)
    ]
    alt = [
        (flute(prefix([1.0], alternating(la(a1, n0=1.0), la(a2, n0=1.0))), const(t)), None)
        for a1 in (1.0, 3.0, 5.0, 7.0) for a2 in (1.0, 3.0, 5.0, 7.0) for t in (0.0, 0.5)
    ]
    branches = lambda x: (x[0]["lengths"]["tail"]["even"]["a"], x[0]["lengths"]["tail"]["odd"]["a"])
    alt_slow = [x for x in alt
                if x[0]["twists"]["value"] == 0.5 and min(branches(x)) > 4.0]
    alt_fast = [x for x in alt if x not in alt_slow]
    # the sigma loop of the unmodified package overflows (exit 3) when the
    # two branches differ; kept in the draw as a recorded failure
    alt_slow_equal = [x for x in alt_slow if len(set(branches(x))) == 1]
    alt_slow_unequal = [x for x in alt_slow if len(set(branches(x))) == 2]

    ness_lengths = (la(1.0), la(2.0), la(3.0), la(4.0), const(1.0), lin(1.0, 1.0))
    loch = [
        (cfg, None)
        for lengths in ness_lengths for beta in (1.0, 2.0)
        for cfg in ({"type": "loch_ness", "lengths": lengths, "beta_bound": beta},
                    _twisted({"type": "loch_ness", "lengths": lengths, "beta_bound": beta},
                             const(0.5)))
    ]
    ladder = [
        (cfg, None)
        for lengths in ness_lengths for beta in (1.0, 2.0)
        for cfg in ({"type": "ladder", "lengths": lengths, "beta_bound": beta},
                    _twisted({"type": "ladder", "lengths": lengths, "beta_bound": beta},
                             const(0.5)))
    ]
    bounded = [
        (cfg, None)
        for a in (1.0, 2.0, 4.0) for p in (0.0, 0.5, 1.0)
        for cfg in ({"type": "bounded_boundary", "lengths": la(a), "count_exponent": p},
                    _twisted({"type": "bounded_boundary", "lengths": la(a),
                              "count_exponent": p}, const(0.25)))
    ]
    bi = []
    for a in (1.0, 3.0):
        for neg in (None, la(2.0), la(5.0)):
            base = {"type": "bi_infinite_flute", "lengths": la(a)}
            if neg is not None:
                base["lengths_neg"] = neg
            bi += [(base, None), (_twisted(base, const(0.5)), None),
                   (_twisted(base, lin(0.01, 0.0)), None)]
    cantor = [
        ({"type": "cantor_tree", "level_lengths": pdecay(coef, base)}, None)
        for coef in (0.5, 1.0, 2.0) for base in (1.5, 2.0, 3.0)
    ] + [({"type": "cantor_tree", "level_lengths": const(1.0)}, None)]
    cover = [
        ({"type": "cover", "rank": 1, "L": la(a), "tau": tau}, None)
        for a in (1.0, 2.0, 3.0) for tau in (const(0.0), const(0.25), lin(0.01, 0.0))
    ] + [
        ({"type": "cover", "rank": 2, "config": "disjoint-pair", "L": L, "tau": const(0.0)}, None)
        for L in (la(0.0, b=2.0), la(1.0), la(3.0))
    ] + [
        ({"type": "cover", "rank": 2, "config": "intersecting-pair", "eps": eps, "ell": ell}, None)
        for eps in (const(0.5), la(0.1, c=0.5)) for ell in (lin(2.0, 0.0), la(1.0, c=1.0))
    ] + [
        ({"type": "cover", "rank": 3, "L": L}, None) for L in (const(1.0), la(2.0))
    ]
    # power_decay as a twist or a collar width: the unmodified package
    # overflows in coef * n / base**n far out (exit 3); kept in every pass as
    # recorded failures
    power_decay_fail = [
        (flute(la(2.0), pdecay(0.5, 2.0)), None),
        (_twisted({"type": "bi_infinite_flute", "lengths": la(3.0)}, pdecay(1.0, 2.0)), None),
        ({"type": "cover", "rank": 1, "L": la(2.0), "tau": pdecay(1.0, 2.0)}, None),
        ({"type": "cover", "rank": 2, "config": "intersecting-pair",
          "eps": pdecay(0.5, 1.5), "ell": lin(2.0, 0.0)}, None),
    ]
    return [
        ("flute-zero-twist", 28, zero),
        ("flute-half-twist-diverges", 12, half_div),
        ("flute-half-twist-sigma-loop", 2, half_conv),
        ("flute-half-twist-sigma-loop-loglog", 6, half_conv_loglog),
        ("flute-two-parameter", 28, two),
        ("flute-const-twist", 16, twisted_const),
        ("flute-twist-sequence", 12, twisted_seq),
        ("flute-other-lengths", 12, other_fast),
        ("flute-other-lengths-sigma-loop", 1, other_slow_linear),
        ("flute-other-lengths-sigma-loop-prefix", 1, other_slow_prefix),
        ("flute-alternating", 8, alt_fast),
        ("flute-alternating-sigma-loop", 1, alt_slow_equal),
        ("flute-alternating-sigma-loop-unequal", 1, alt_slow_unequal),
        ("loch_ness", 8, loch),
        ("ladder", 8, ladder),
        ("bounded_boundary", 8, bounded),
        ("bi_infinite_flute", 8, bi),
        ("cantor_tree", 6, cantor),
        ("cover", 10, cover),
        ("power-decay-twist-or-width", None, power_decay_fail),
    ]


def config_key(cfg):
    return json.dumps(cfg, sort_keys=True)


def _classify_op(cell, cfg, rule):
    return {"key": config_key(cfg), "family": cell, "config": cfg, "rule": rule}


def classify_grid():
    return [_classify_op(name, cfg, rule)
            for name, _, items in _cells() for cfg, rule in items]


def classify_pass(rng):
    ops = []
    for name, count, items in _cells():
        if count is None:
            picks = items
        else:
            picks = [items[rng.randrange(len(items))] for _ in range(count)]
        ops += [_classify_op(name, cfg, rule) for cfg, rule in picks]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle: domain configs, closed forms and generation-time sandwiches
# ---------------------------------------------------------------------------

# Target unknown counts of the h/2 solve: four levels from 1e3 to 2e4, every
# shape at every level.  Work grows like unknowns^1.5, so the top level sets
# the length of a pass: 2 to 3 s on a 2-core machine, so that a 35-s run
# takes the median over about twelve passes.
ORACLE_SHAPES = ("rectangle", "annular_sector", "comb", "half_collar",
                 "glued_collar", "annulus")
ORACLE_LEVELS = tuple(1e3 * 50.0 ** (j / 4) for j in range(4))


def _jitter(rng, value, rel=0.03):
    return value * math.exp(rng.uniform(-rel, rel))


def _oracle_config(shape, j, target, rng):
    """A config for `shape` at level `j` whose h/2 solve has about `target`
    unknowns.

    The shape parameters sweep their range across the four levels and the
    seed jitters them by a few percent: the cost per unknown depends on the
    shape parameters, and a free draw would reorder the latencies between
    seeds.  Predicate shapes keep at least 24 mesh cells across the inner
    radius, and the sector as many across its inner arc, so that the
    criterion-02 tolerances apply (criterion 02 itself solves at h = 1/256;
    with 14 cells across the arc of the 0.6-rad sector the error reached the
    1% tolerance on 1 seed in 120).  At that floor the annulus and the sector
    are sized by their radii, so the annulus is jittered by only 0.5% and the
    sector keeps its area theta (r2^2 - 1) and its mesh.  The collar strips
    are not jittered: whether their oracle interval meets the sandwich is
    recorded per strip in the reference table (see `record.py`).
    """
    if shape == "rectangle":
        h = 1.0 / 16
        aspect = _jitter(rng, 3.0 ** (j / 2.0 - 1.0))        # 1/3 .. 1.7
        cells = target / 4.0
        w = max(2, round(math.sqrt(cells * aspect)))
        hh = max(2, round(cells / w))
        return {"shape": shape, "width": w * h, "height": hh * h, "h": h}
    if shape == "annulus":
        r2 = _jitter(rng, 1.5 + 0.375 * j, 0.005)            # 1.5 .. 2.6
        k = max(24, round(math.sqrt(target / (4 * math.pi * (r2 * r2 - 1)))))
        return {"shape": shape, "r1": 1.0, "r2": r2, "h": 1.0 / k}
    if shape == "annular_sector":
        r2, theta = 2.0 + 0.5 * j, 0.6 + 0.55 * j            # 2 .. 3.5, 0.6 .. 2.25
        floor = max(24, math.ceil(24 / theta))
        jittered = _jitter(rng, theta)
        r2, theta = math.sqrt(1.0 + theta * (r2 * r2 - 1.0) / jittered), jittered
        k = max(floor, round(math.sqrt(target / (2 * theta * (r2 * r2 - 1)))))
        return {"shape": shape, "r1": 1.0, "r2": r2, "theta": theta, "h": 1.0 / k}
    if shape == "comb":
        eps = _jitter(rng, (0.45, 0.35, 0.25, 0.18)[j])
        spacing = 1.0 / math.ceil(1.0 / (eps * eps))
        h = min(max(math.sqrt(4.0 * eps / target), spacing / 8.0), spacing / 3.2)
        return {"shape": shape, "epsilon": eps, "h": h}
    l_alpha = (1.5, 2.6, 3.7, 4.85)[j]
    gamma = lambda offset: "inf" if offset is None else collar_width(0.5 * l_alpha) + offset
    if shape == "half_collar":
        return {"shape": shape, "l_alpha": l_alpha,
                "l_gamma": gamma((None, 1.0, None, 0.3)[j])}
    return {"shape": shape, "l_alpha": l_alpha,
            "l_gamma": gamma((None, 0.5, None, 2.0)[j]),
            "l_gamma2": gamma((None, None, 3.0, 0.5)[j]),
            "twist": (0.5, 0.25, -0.125, 0.0)[j]}


def _strip_setup(cfg, target):
    """Mesh and sandwich interval for a collar strip, from the package's own
    graphs (the sandwich is computed here so the timed operation is the
    oracle alone)."""
    from hypcollar import collar_modulus as cm
    from hypcollar import graph_modulus as gm

    inf = lambda v: math.inf if v == "inf" else v
    if cfg["shape"] == "half_collar":
        pair = cm.nonstandard_half_collar_graphs(
            cm.HalfCollarSpec(cfg["l_alpha"], inf(cfg["l_gamma"])))
    else:
        pair = cm.glued_collar_graphs(cm.GluedCollarSpec(
            cfg["l_alpha"], inf(cfg["l_gamma"]), inf(cfg["l_gamma2"]), cfg["twist"]))
    n = 2048
    gaps = [pair.f(pair.x1 + pair.period * i / n) - pair.g(pair.x1 + pair.period * i / n)
            for i in range(n)]
    area = pair.period * sum(gaps) / n
    # never coarser than strip_domain's own default, the mesh of criterion 04
    h = min(2.0 * math.sqrt(area / target), min(gaps) / 4.0, pair.period / 64.0)
    sb = gm.sandwich_bounds(pair, 1.0 / cfg["l_alpha"])
    return dict(cfg, h=h), {"sandwich": [sb.lower, sb.upper]}


STRIPS = ("half_collar", "glued_collar")


def _oracle_op(shape, j, rng):
    if shape in STRIPS:
        target = ORACLE_LEVELS[j]
        cfg, expect = _strip_setup(_oracle_config(shape, j, target, rng), target)
    else:
        target = _jitter(rng, ORACLE_LEVELS[j], 0.01)
        cfg = _oracle_config(shape, j, target, rng)
        if shape == "rectangle":
            expect = {"exact": cfg["width"] / cfg["height"], "rtol": 5e-3}
        elif shape == "annulus":
            expect = {"exact": 2 * math.pi / math.log(cfg["r2"] / cfg["r1"]), "rtol": 1e-2}
        elif shape == "annular_sector":
            expect = {"exact": math.log(cfg["r2"] / cfg["r1"]) / cfg["theta"], "rtol": 1e-2}
        else:
            expect = {"at_least": 1.0 / cfg["epsilon"]}
    return {"key": "oracle:%d:%s" % (j, shape), "family": shape, "config": cfg,
            "target_unknowns": target, **expect}


def oracle_pass(rng):
    """Every shape at every level, and a second draw of every shape at the
    three lowest levels: they cost little, and they fill the middle of the
    latency distribution, where op_p50_s is read."""
    ops = [_oracle_op(shape, j, rng)
           for j in range(len(ORACLE_LEVELS)) for shape in ORACLE_SHAPES]
    ops += [dict(_oracle_op(shape, j, rng), key="oracle:%d:%s:2" % (j, shape))
            for j in range(3) for shape in ORACLE_SHAPES if shape not in STRIPS]
    rng.shuffle(ops)
    return ops


PASSES = {"oracle": oracle_pass, "collar": collar_pass, "classify": classify_pass}


def generate(workload, seed):
    """The seed's pass for `workload`: a list of operation dicts."""
    return PASSES[workload](random.Random("%s:%d" % (workload, seed)))


def write_configs(ops, directory):
    """Write each operation's config file and fill in its CLI argv."""
    for n, op in enumerate(ops):
        if "config" in op:
            path = os.path.join(directory, "op%03d.json" % n)
            with open(path, "w") as fh:
                json.dump(op["config"], fh)
            command = "oracle" if "target_unknowns" in op else "classify"
            op["argv"] = [command, "--config", path]
    return ops
