"""Command-line interface: classify, collar, sweep, oracle, verify.

Configs are strict JSON: unknown keys are rejected with the offending path.
Exit codes: 0 success, 1 a failed verify check, 2 malformed config,
3 numeric failure, 4 geometric hypothesis violation, 5 mesh-resolution
refusal.
"""

import argparse
import csv
import json
import math
import os
import sys

# One BLAS thread unless the user asked for more: threading the oracle's
# small banded Cholesky solves and dot products costs more than it saves.
# Set before numpy first loads, which is on the first command that uses it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import _lazy
from .classifier import (
    classify_exhaustion,
    sweep_scaled,
    sweep_two_parameter,
)
from .hypgeom import (
    HypothesisError,
    ResolutionError,
    in_float_range,
    standard_half_collar_lambda,
)
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
)

# the bounds and the oracle run on the first command that uses them:
# classify, sweep and collar --standard never do
collar_modulus = _lazy.lazy_import(__package__ + ".collar_modulus")
graph_modulus = _lazy.lazy_import(__package__ + ".graph_modulus")
extremal_oracle = _lazy.lazy_import(__package__ + ".extremal_oracle")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_HYPOTHESIS = 4
EXIT_RESOLUTION = 5


class ConfigError(ValueError):
    pass


def _check_keys(obj, allowed, path):
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(
            "unknown key(s) %s at %s" % (", ".join(sorted(extra)), path or "top level")
        )


def _required(obj, key, path):
    """obj[key], or a ConfigError naming the missing key and where."""
    if key not in obj:
        raise ConfigError(
            "missing required key %r at %s" % (key, path or "top level")
        )
    return obj[key]


class _LongInteger:
    """A JSON integer of more digits than int() converts from text (the
    interpreter's limit, 4300 by default): past the float range."""

    def __init__(self, digits):
        self.digits = digits

    def __float__(self):
        raise OverflowError("integer of %d digits" % self.digits)

    def __repr__(self):
        return "<integer of %d digits>" % self.digits


def _integer(text):
    """A JSON integer, or a _LongInteger where int() refuses its digits."""
    try:
        return int(text)
    except ValueError:
        return _LongInteger(len(text))


def _number(value, path, allow_inf=False):
    """The number at path as a float.  NaN and an integer past the float
    range are refused everywhere; an infinity, written as JSON Infinity or
    as the string "inf", is refused unless allow_inf is set."""
    if isinstance(value, bool):
        raise ConfigError("expected a number at %s" % path)
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        value = math.inf
    if not isinstance(value, (int, float, _LongInteger)):
        raise ConfigError("expected a number at %s, got %r" % (path, value))
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError("number at %s is beyond the float range" % path) from None
    if math.isnan(value):
        raise ConfigError("expected a number at %s, got nan" % path)
    if math.isinf(value) and not allow_inf:
        raise ConfigError("'%r' is not allowed at %s" % (value, path))
    return value


def _list(value, path):
    if not isinstance(value, list):
        raise ConfigError("expected a list at %s, got %r" % (path, value))
    return value


def _numbers(cfg, key):
    """The numbers of the list cfg[key]; errors name the index."""
    return [_number(v, "%s[%d]" % (key, i)) for i, v in enumerate(cfg[key])]


def _pair(value, path):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(
            "expected a [coefficient, shift] pair at %s, got %r" % (path, value)
        )
    return _number(value[0], path), _number(value[1], path)


def parse_sequence(obj, path):
    """Parse a sequence spec from strict JSON."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("sequence spec at %s must be an object with 'kind'" % path)
    kind = obj["kind"]
    if kind == "constant":
        _check_keys(obj, {"kind", "value"}, path)
        return Constant(_number(_required(obj, "value", path), path + ".value"))
    if kind == "linear":
        _check_keys(obj, {"kind", "slope", "intercept"}, path)
        return Linear(
            _number(_required(obj, "slope", path), path + ".slope"),
            _number(obj.get("intercept", 0.0), path + ".intercept"),
        )
    if kind == "log_affine":
        _check_keys(
            obj, {"kind", "a", "b", "c", "n0", "n1", "log_terms"}, path
        )
        if "log_terms" in obj:
            if "a" in obj or "n0" in obj:
                raise ConfigError(
                    "give either log_terms or a/n0 at %s, not both" % path
                )
            terms = tuple(
                _pair(t, "%s.log_terms[%d]" % (path, i))
                for i, t in enumerate(_list(obj["log_terms"], path + ".log_terms"))
            )
        else:
            a = _number(obj.get("a", 0.0), path + ".a")
            n0 = _number(obj.get("n0", 0.0), path + ".n0")
            terms = ((a, n0),) if a else ()
        return LogAffine(
            log_terms=terms,
            loglog_coef=_number(obj.get("b", 0.0), path + ".b"),
            loglog_shift=_number(obj.get("n1", 1.0), path + ".n1"),
            const=_number(obj.get("c", 0.0), path + ".c"),
        )
    if kind == "alternating":
        _check_keys(obj, {"kind", "even", "odd"}, path)
        even = parse_sequence(_required(obj, "even", path), path + ".even")
        odd = parse_sequence(_required(obj, "odd", path), path + ".odd")
        if not isinstance(even, LogAffine) or not isinstance(odd, LogAffine):
            raise ConfigError("alternating branches must be log_affine at %s" % path)
        return AlternatingLogAffine(even=even, odd=odd)
    if kind == "prefix":
        _check_keys(obj, {"kind", "values", "tail"}, path)
        values = tuple(
            _number(v, "%s.values[%d]" % (path, i))
            for i, v in enumerate(
                _list(_required(obj, "values", path), path + ".values")
            )
        )
        return ExplicitPrefixThenTail(
            values=values,
            tail=parse_sequence(_required(obj, "tail", path), path + ".tail"),
        )
    if kind == "power_decay":
        _check_keys(obj, {"kind", "coef", "base"}, path)
        coef = _number(_required(obj, "coef", path), path + ".coef")
        base = _number(_required(obj, "base", path), path + ".base")
        # the one constructor here that checks its values
        try:
            return ScaledPowerDecay(coef, base)
        except SpecError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from None
    raise ConfigError("unknown sequence kind %r at %s" % (kind, path))


def _sequence(cfg, key, *default):
    """The sequence spec at cfg[key]; an absent key gives the default, or a
    ConfigError if there is none.  A null is not a spec."""
    if default and key not in cfg:
        return default[0]
    return parse_sequence(_required(cfg, key, ""), key)


_UNTWISTED = Constant(0.0)


def _one_end(cfg):
    """The lengths and twists of a surface with one flute-like end; no twist
    unless given."""
    return _sequence(cfg, "lengths"), _sequence(cfg, "twists", _UNTWISTED)


def _bi_infinite_flute(cfg):
    """The negative end takes the positive end's lengths and twists unless
    given its own."""
    lengths = _sequence(cfg, "lengths")
    lengths_neg = _sequence(cfg, "lengths_neg", lengths)
    twists = _sequence(cfg, "twists", _UNTWISTED)
    return BiInfiniteFlute(lengths, lengths_neg, twists,
                           _sequence(cfg, "twists_neg", twists))


def _handles(cfg):
    """The Loch Ness monster and the ladder: one or two boundary curves per
    level, with a bound on the curves that cut off the handles."""
    return BoundedBoundary(
        *_one_end(cfg), beta_bound=_number(cfg.get("beta_bound", 1.0), "beta_bound"))


def _cover(cfg):
    """A cover reads its configuration only at rank 2; at rank 1 it can only
    be "single", and at rank 3 or more it is not given."""
    rank = _required(cfg, "rank", "")
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise ConfigError("rank must be an integer, got %r" % (rank,))
    _number(rank, "rank")  # the cover series takes rank - 1 as a float
    config = cfg.get("config", "single")
    if not isinstance(config, str):
        raise ConfigError("config must be a string, got %r" % (config,))
    if rank >= 3 and "config" in cfg:
        raise ConfigError("config is read only at rank 2, not at rank %d" % rank)
    if rank == 1 and config != "single":
        raise ConfigError("config at rank 1 must be 'single', got %r" % config)
    return AbelianCover(
        rank=rank,
        config=config,
        L=_sequence(cfg, "L", None),
        tau=_sequence(cfg, "tau", _UNTWISTED),
        eps=_sequence(cfg, "eps", None),
        ell=_sequence(cfg, "ell", None),
    )


# the keys of one flute-like end, and the options of the twisted
# exhaustion criterion
_ONE_END = {"lengths", "twists"}
_TWIST_OPTIONS = {"use_twists", "hypotheses_asserted"}

# each surface type: the config keys it reads besides "type", and its builder
_SURFACES = {
    "flute": (_ONE_END, lambda cfg: FluteSpec(*_one_end(cfg))),
    "bi_infinite_flute": (_ONE_END | {"lengths_neg", "twists_neg"} | _TWIST_OPTIONS,
                          _bi_infinite_flute),
    "loch_ness": (_ONE_END | {"beta_bound"} | _TWIST_OPTIONS, _handles),
    "ladder": (_ONE_END | {"beta_bound"} | _TWIST_OPTIONS, _handles),
    "cantor_tree": ({"level_lengths"},
                    lambda cfg: CantorTree(_sequence(cfg, "level_lengths"))),
    "bounded_boundary": (
        _ONE_END | {"count_exponent"} | _TWIST_OPTIONS,
        lambda cfg: BoundedBoundary(*_one_end(cfg), count_exponent=_number(
            cfg.get("count_exponent", 0.0), "count_exponent"))),
    "cover": ({"rank", "config", "L", "tau", "eps", "ell"}, _cover),
}


def parse_surface(cfg):
    """Parse a classify config into an exhaustion spec plus options; each
    surface type takes only its own keys."""
    t = cfg.get("type")
    if not isinstance(t, str) or t not in _SURFACES:
        raise ConfigError("unknown surface type %r" % (t,))
    keys, build = _SURFACES[t]
    _check_keys(cfg, keys | {"type"}, "")
    use_twists = cfg.get("use_twists", False)
    hyps = cfg.get("hypotheses_asserted", [])
    if not isinstance(use_twists, bool):
        raise ConfigError("use_twists must be a boolean")
    if not (isinstance(hyps, list) and all(isinstance(h, str) for h in hyps)):
        raise ConfigError("hypotheses_asserted must be a list of strings")
    return build(cfg), use_twists, tuple(hyps)


def _strict(data):
    """data with each infinite float written "inf" or "-inf", as configs
    write it: strict JSON has no infinity."""
    if isinstance(data, float) and math.isinf(data):
        return "inf" if data > 0 else "-inf"
    if isinstance(data, dict):
        return {key: _strict(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_strict(value) for value in data]
    return data


def _emit(data, output=None):
    text = json.dumps(_strict(data), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path):
    """The JSON object in the config file at path; an integer too long for
    int() is kept for _number to refuse by its path."""
    with open(path) as fh:
        try:
            cfg = json.load(fh, parse_int=_integer)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def cmd_classify(args):
    spec, use_twists, hyps = parse_surface(_load_config(args.config))
    verdict = classify_exhaustion(
        spec, use_twists=use_twists, hypotheses_asserted=hyps
    )
    _emit(verdict.as_dict(), args.output)
    return EXIT_OK


def cmd_collar(args):
    l_alpha = args.l_alpha
    if args.standard:
        data = {
            "kind": "standard-half-collar",
            "l_alpha": l_alpha,
            "lambda": standard_half_collar_lambda(l_alpha),
        }
        _emit(data, args.output)
        return EXIT_OK
    if args.l_gamma is None:
        raise ConfigError("nonstandard collars need --l-gamma")
    if args.l_gamma2 is not None or args.twist is not None:
        if args.l_gamma2 is None or args.twist is None:
            raise ConfigError("glued collars need both --l-gamma2 and --twist")
        spec = collar_modulus.GluedCollarSpec(
            l_alpha=l_alpha,
            l_gamma=args.l_gamma,
            l_gamma2=args.l_gamma2,
            twist=args.twist,
        )
        bounds = collar_modulus.glued_collar_lambda(spec)
        data = {
            "kind": "glued-collar",
            "l_alpha": l_alpha,
            "twist": spec.twist,
            "lambda_lower": bounds.lower,
            "lambda_upper": bounds.upper,
            "lambda_geometric_mean": bounds.geometric_mean,
            "analytic_proxy": in_float_range(
                "the glued collar's analytic proxy",
                lambda: 1.0 / collar_modulus.glued_collar_proxy(spec), **vars(spec)),
            "standard_lambda": standard_half_collar_lambda(l_alpha),
        }
        _emit(data, args.output)
        return EXIT_OK
    spec = collar_modulus.HalfCollarSpec(l_alpha=l_alpha, l_gamma=args.l_gamma)
    bounds = collar_modulus.nonstandard_half_collar_lambda(spec)
    data = {
        "kind": "nonstandard-half-collar",
        "l_alpha": l_alpha,
        "l_gamma": args.l_gamma,
        "lambda_lower": bounds.lower,
        "lambda_upper": bounds.upper,
        "lambda_geometric_mean": bounds.geometric_mean,
        "standard_lambda": standard_half_collar_lambda(l_alpha),
    }
    _emit(data, args.output)
    return EXIT_OK


# each sweep family: the lists of parameter values it reads besides
# "family", and its sweep
_SWEEPS = {
    "two-parameter": (("a", "b"), sweep_two_parameter),
    "scaled": (("s",), sweep_scaled),
}


def cmd_sweep(args):
    cfg = _load_config(args.config)
    family = cfg.get("family")
    if not isinstance(family, str) or family not in _SWEEPS:
        raise ConfigError("unknown sweep family %r" % (family,))
    keys, sweep = _SWEEPS[family]
    _check_keys(cfg, {"family", *keys}, "")
    for key in keys:
        if not isinstance(cfg.get(key), list):
            raise ConfigError("%s sweep needs a list %r" % (family, key))
    rows = sweep(*(_numbers(cfg, key) for key in keys))
    fields = [*keys, "kind", "reason", "criterion"]
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


# each oracle shape: the config keys it reads besides "shape" and "h"
_SHAPES = {
    "rectangle": {"width", "height"},
    "annulus": {"r1", "r2"},
    "annular_sector": {"r1", "r2", "theta"},
    "comb": {"epsilon"},
    "half_collar": {"l_alpha", "l_gamma"},
    "glued_collar": {"l_alpha", "l_gamma", "l_gamma2", "twist"},
}


def _oracle_domain(cfg):
    """The domain of an oracle config; each shape takes only its own keys."""
    shape = cfg.get("shape")
    if not isinstance(shape, str) or shape not in _SHAPES:
        raise ConfigError("unknown oracle shape %r" % (shape,))
    _check_keys(cfg, _SHAPES[shape] | {"shape", "h"}, "")
    h = None
    if "h" in cfg:
        h = _number(cfg["h"], "h")
        if not h > 0:
            raise ConfigError("h must be a positive mesh size, got %r" % h)

    def num(key, allow_inf=False):
        return _number(_required(cfg, key, ""), key, allow_inf=allow_inf)

    eo, cm = extremal_oracle, collar_modulus
    if shape == "rectangle":
        return eo.rectangle_domain(num("width"), num("height"), h or 1.0 / 128)
    if shape == "annulus":
        return eo.annulus_domain(num("r1"), num("r2"), h or 1.0 / 128)
    if shape == "annular_sector":
        return eo.annular_sector_domain(num("r1"), num("r2"), num("theta"),
                                        h or 1.0 / 128)
    if shape == "comb":
        return eo.comb_domain(num("epsilon"), h=h)
    if shape == "half_collar":
        spec = cm.HalfCollarSpec(num("l_alpha"), num("l_gamma", allow_inf=True))
        return eo.strip_domain(cm.nonstandard_half_collar_graphs(spec), h=h)
    spec = cm.GluedCollarSpec(  # the last shape, glued_collar
        num("l_alpha"),
        num("l_gamma", allow_inf=True),
        num("l_gamma2", allow_inf=True),
        num("twist"),
    )
    return eo.strip_domain(cm.glued_collar_graphs(spec), h=h)


def cmd_oracle(args):
    dom = _oracle_domain(_load_config(args.config))
    est = extremal_oracle.discrete_modulus(dom)
    _emit(
        {
            "domain": dom.name,
            "modulus": est.value,
            "meshes": list(est.meshes),
            "raw_values": list(est.raw_values),
            "error_bar": est.error_bar,
            "extrapolated": True,
        },
        args.output,
    )
    return EXIT_OK


# Oracle self-checks.  Each returns rows (name, value, target, ok); the
# verify suites run them on coarse meshes and the acceptance criteria on
# their own.


def _closed_form(name, value, target, tol):
    """A row that passes when value / target and its reciprocal are both
    within tol of 1, so that a modulus and its reciprocal check alike."""
    r = value / target
    return name, value, target, max(abs(r - 1.0), abs(1.0 / r - 1.0)) < tol


def calibration_checks(h):
    """Oracle moduli at mesh h of the 3 x 1 rectangle (3), the annulus
    1 < r < e (2 pi) and its quarter sector, whose radial sides are joined
    with modulus ln(e) / (pi / 2)."""
    eo = extremal_oracle
    rect = eo.discrete_modulus(eo.rectangle_domain(3.0, 1.0, h)).value
    ann = eo.discrete_modulus(eo.annulus_domain(1.0, math.e, h)).value
    sector = eo.discrete_modulus(
        eo.annular_sector_domain(1.0, math.e, math.pi / 2, h)).value
    return [
        _closed_form("rectangle-3x1", rect, 3.0, 5e-3),
        _closed_form("annulus-e", ann, 2 * math.pi, 1e-2),
        _closed_form("sector-2/pi", sector, 2 / math.pi, 1e-2),
    ]


def standard_collar_checks():
    """The standard half-collar of l in {1, 2, 4} is conformally a periodic
    strip of height lambda(l): the oracle's reciprocal modulus of that strip,
    at mesh lambda / 64, against lambda."""
    rows = []
    for l in (1.0, 2.0, 4.0):
        lam = standard_half_collar_lambda(l)
        strip = extremal_oracle.strip_domain(graph_modulus.constant_pair(lam),
                                             h=lam / 64)
        est = extremal_oracle.discrete_modulus(strip)
        rows.append(_closed_form("standard-collar-l=%g" % l, 1.0 / est.value,
                                 lam, 2e-2))
    return rows


def comb_checks(epsilons):
    """Ratio of the comb's vertical-segment modulus, 1/eps, to its oracle
    modulus at each epsilon.  The vertical segments are a subfamily of the
    connecting family, so the ratio is below 1; a row passes when its ratio
    is below 1 and below the previous row's."""
    rows, prev = [], math.inf
    for eps in epsilons:
        est = extremal_oracle.discrete_modulus(extremal_oracle.comb_domain(eps))
        ratio = (1.0 / eps) / est.value
        rows.append(("comb-eps=%g" % eps, ratio, "< 1 and decreasing",
                     ratio < min(1.0, prev)))
        prev = ratio
    return rows


def sandwich_checks(specs, inside):
    """Oracle modulus of each collar spec's strip against the sandwich
    bounds of its pair at delta = 1 / l_alpha; a row passes when
    inside(estimate, bounds)."""
    rows = []
    for spec in specs:
        if isinstance(spec, collar_modulus.GluedCollarSpec):
            pair = collar_modulus.glued_collar_graphs(spec)
            name = "glued-collar-l=%g-t=%g" % (spec.l_alpha, spec.twist)
        else:
            pair = collar_modulus.nonstandard_half_collar_graphs(spec)
            name = "half-collar-l=%g-gamma=%s" % (spec.l_alpha, spec.l_gamma)
        sb = graph_modulus.sandwich_bounds(pair, 1.0 / spec.l_alpha)
        est = extremal_oracle.discrete_modulus(extremal_oracle.strip_domain(pair))
        rows.append((name, est.value, "[%g, %g]" % (sb.lower, sb.upper),
                     inside(est, sb)))
    return rows


def cmd_verify(args):
    suites = {
        "calibration": lambda: calibration_checks(1.0 / 64),
        "standard-collar": standard_collar_checks,
        "comb": lambda: comb_checks((0.2, 0.1)),
        "sandwich": lambda: sandwich_checks(
            [collar_modulus.HalfCollarSpec(4.0, l_gamma)
             for l_gamma in (math.inf, 1.0)],
            lambda est, sb: sb.lower <= est.value <= sb.upper,
        ),
    }
    if args.suite not in suites:
        raise ConfigError(
            "unknown suite %r (choose from %s)"
            % (args.suite, ", ".join(sorted(suites)))
        )
    checks = suites[args.suite]()
    report = {
        "suite": args.suite,
        "checks": [
            {"name": n, "value": v, "target": t, "ok": ok}
            for (n, v, t, ok) in checks
        ],
        "ok": all(ok for (_, _, _, ok) in checks),
    }
    _emit(report, args.output)
    return EXIT_OK if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypcollar",
        description="Collar moduli and parabolicity tests for flute-type "
        "hyperbolic surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a surface config")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_classify)

    def length(value):
        if value.strip().lower() in ("inf", "infinity"):
            return math.inf
        try:
            return float(value)
        except ValueError:
            raise argparse.ArgumentTypeError("not a length: %r" % value)

    p = sub.add_parser("collar", help="collar extremal distances")
    p.add_argument("--l-alpha", type=length, required=True)
    p.add_argument("--l-gamma", type=length)
    p.add_argument("--l-gamma2", type=length)
    p.add_argument("--twist", type=float)
    p.add_argument("--standard", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_collar)

    p = sub.add_parser("sweep", help="classify a parameter grid to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="discrete modulus of a domain")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print("hypothesis violation: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ResolutionError as exc:
        print("mesh refusal: %s" % exc, file=sys.stderr)
        return EXIT_RESOLUTION
    # ConfigError and SpecError among the ValueErrors; an OSError is a
    # config or output path that cannot be opened
    except (ValueError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # OracleError and QuadratureError among them
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
