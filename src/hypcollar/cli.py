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
import sys

from .classifier import (
    classify_exhaustion,
    sweep_scaled,
    sweep_two_parameter,
)
from .collar_modulus import (
    GluedCollarSpec,
    HalfCollarSpec,
    glued_collar_lambda,
    nonstandard_half_collar_lambda,
)
from .extremal_oracle import (
    OracleError,
    ResolutionError,
    annular_sector_domain,
    annulus_domain,
    comb_domain,
    comb_vertical_modulus,
    discrete_modulus,
    rectangle_domain,
    strip_domain,
)
from .graph_modulus import QuadratureError, constant_pair, sandwich_bounds
from .hypgeom import HypothesisError, standard_half_collar_lambda
from .surfaces import (
    AbelianCover,
    AlternatingLogAffine,
    BiInfiniteFlute,
    BoundedBoundary,
    CantorTree,
    Constant,
    ExplicitPrefixThenTail,
    Flute,
    FluteSpec,
    Ladder,
    Linear,
    LochNess,
    LogAffine,
    ScaledPowerDecay,
    SpecError,
)
from . import collar_modulus

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


def _number(value, path, allow_inf=False):
    if isinstance(value, bool):
        raise ConfigError("expected a number at %s" % path)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        if allow_inf:
            return math.inf
        raise ConfigError("'inf' is not allowed at %s" % path)
    raise ConfigError("expected a number at %s, got %r" % (path, value))


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


def _twist_spec(obj, path):
    if obj is None:
        return Constant(0.0)
    return parse_sequence(obj, path)


def parse_surface(cfg):
    """Parse a classify config into an exhaustion spec plus options."""
    _check_keys(
        cfg,
        {"type", "lengths", "twists", "beta_bound", "count_exponent",
         "lengths_neg", "twists_neg", "level_lengths", "rank", "config",
         "L", "tau", "eps", "ell", "use_twists", "hypotheses_asserted"},
        "",
    )
    t = cfg.get("type")
    use_twists = cfg.get("use_twists", False)
    hyps = cfg.get("hypotheses_asserted", [])
    if not isinstance(use_twists, bool):
        raise ConfigError("use_twists must be a boolean")
    if not (isinstance(hyps, list) and all(isinstance(h, str) for h in hyps)):
        raise ConfigError("hypotheses_asserted must be a list of strings")

    def sequence(key):
        return parse_sequence(_required(cfg, key, ""), key)

    if t == "flute":
        spec = Flute(
            FluteSpec(
                lengths=sequence("lengths"),
                twists=_twist_spec(cfg.get("twists"), "twists"),
            )
        )
    elif t == "bi_infinite_flute":
        spec = BiInfiniteFlute(
            lengths_pos=sequence("lengths"),
            lengths_neg=parse_sequence(cfg["lengths_neg"], "lengths_neg")
            if "lengths_neg" in cfg
            else None,
            twists_pos=_twist_spec(cfg.get("twists"), "twists"),
            twists_neg=_twist_spec(cfg["twists_neg"], "twists_neg")
            if "twists_neg" in cfg
            else None,
        )
    elif t == "loch_ness":
        spec = LochNess(
            lengths=sequence("lengths"),
            twists=_twist_spec(cfg.get("twists"), "twists"),
            beta_bound=_number(cfg.get("beta_bound", 1.0), "beta_bound"),
        )
    elif t == "ladder":
        spec = Ladder(
            lengths=sequence("lengths"),
            twists=_twist_spec(cfg.get("twists"), "twists"),
            beta_bound=_number(cfg.get("beta_bound", 1.0), "beta_bound"),
        )
    elif t == "cantor_tree":
        spec = CantorTree(sequence("level_lengths"))
    elif t == "bounded_boundary":
        spec = BoundedBoundary(
            lengths=sequence("lengths"),
            twists=_twist_spec(cfg.get("twists"), "twists"),
            count_exponent=_number(cfg.get("count_exponent", 0.0), "count_exponent"),
        )
    elif t == "cover":
        rank = _required(cfg, "rank", "")
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ConfigError("rank must be an integer, got %r" % (rank,))
        spec = AbelianCover(
            rank=rank,
            config=cfg.get("config", "single"),
            L=parse_sequence(cfg["L"], "L") if "L" in cfg else None,
            tau=_twist_spec(cfg.get("tau"), "tau"),
            eps=parse_sequence(cfg["eps"], "eps") if "eps" in cfg else None,
            ell=parse_sequence(cfg["ell"], "ell") if "ell" in cfg else None,
        )
    else:
        raise ConfigError("unknown surface type %r" % (t,))
    return spec, use_twists, tuple(hyps)


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
    """The JSON object in the config file at path."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
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
        spec = GluedCollarSpec(
            l_alpha=l_alpha,
            l_gamma=args.l_gamma,
            l_gamma2=args.l_gamma2,
            twist=args.twist,
        )
        res = glued_collar_lambda(spec)
        data = {
            "kind": "glued-collar",
            "l_alpha": l_alpha,
            "twist": spec.twist,
            "lambda_lower": res.bounds.lower,
            "lambda_upper": res.bounds.upper,
            "lambda_geometric_mean": res.bounds.geometric_mean,
            "analytic_proxy": res.proxy,
            "standard_lambda": standard_half_collar_lambda(l_alpha),
        }
        _emit(data, args.output)
        return EXIT_OK
    spec = HalfCollarSpec(l_alpha=l_alpha, l_gamma=args.l_gamma)
    bounds = nonstandard_half_collar_lambda(spec)
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


def cmd_sweep(args):
    cfg = _load_config(args.config)
    _check_keys(cfg, {"family", "a", "b", "s"}, "")
    family = cfg.get("family")
    if family == "two-parameter":
        for key in ("a", "b"):
            if key not in cfg or not isinstance(cfg[key], list):
                raise ConfigError("two-parameter sweep needs lists 'a' and 'b'")
        rows = sweep_two_parameter(_numbers(cfg, "a"), _numbers(cfg, "b"))
        fields = ["a", "b", "kind", "reason", "criterion"]
    elif family == "scaled":
        if "s" not in cfg or not isinstance(cfg["s"], list):
            raise ConfigError("scaled sweep needs a list 's'")
        rows = sweep_scaled(_numbers(cfg, "s"))
        fields = ["s", "kind", "reason", "criterion"]
    else:
        raise ConfigError("unknown sweep family %r" % (family,))
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


def _oracle_domain(cfg):
    _check_keys(
        cfg,
        {"shape", "width", "height", "h", "r1", "r2", "theta", "epsilon",
         "l_alpha", "l_gamma", "l_gamma2", "twist"},
        "",
    )
    shape = cfg.get("shape")
    h = None
    if "h" in cfg:
        h = _number(cfg["h"], "h")
        if not 0 < h < math.inf:
            raise ConfigError("h must be a positive mesh size, got %r" % h)

    def num(key, allow_inf=False):
        return _number(_required(cfg, key, ""), key, allow_inf=allow_inf)

    if shape == "rectangle":
        return rectangle_domain(
            num("width"),
            num("height"),
            h or 1.0 / 128,
        )
    if shape == "annulus":
        return annulus_domain(num("r1"), num("r2"), h or 1.0 / 128)
    if shape == "annular_sector":
        return annular_sector_domain(
            num("r1"),
            num("r2"),
            num("theta"),
            h or 1.0 / 128,
        )
    if shape == "comb":
        return comb_domain(num("epsilon"), h=h)
    if shape == "half_collar":
        spec = HalfCollarSpec(
            num("l_alpha"),
            num("l_gamma", allow_inf=True),
        )
        return strip_domain(
            collar_modulus.nonstandard_half_collar_graphs(spec), h=h
        )
    if shape == "glued_collar":
        spec = GluedCollarSpec(
            num("l_alpha"),
            num("l_gamma", allow_inf=True),
            num("l_gamma2", allow_inf=True),
            num("twist"),
        )
        return strip_domain(collar_modulus.glued_collar_graphs(spec), h=h)
    raise ConfigError("unknown oracle shape %r" % (shape,))


def cmd_oracle(args):
    dom = _oracle_domain(_load_config(args.config))
    est = discrete_modulus(dom)
    _emit(
        {
            "domain": dom.name,
            "modulus": est.value,
            "meshes": list(est.meshes),
            "raw_values": list(est.raw_values),
            "error_bar": est.error_bar,
            "extrapolated": est.extrapolated,
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
    rect = discrete_modulus(rectangle_domain(3.0, 1.0, h)).value
    ann = discrete_modulus(annulus_domain(1.0, math.e, h)).value
    sector = discrete_modulus(
        annular_sector_domain(1.0, math.e, math.pi / 2, h)).value
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
        est = discrete_modulus(strip_domain(constant_pair(lam), h=lam / 64))
        rows.append(_closed_form("standard-collar-l=%g" % l, 1.0 / est.value,
                                 lam, 2e-2))
    return rows


def comb_checks(epsilons):
    """Ratio of the comb's vertical-segment modulus to its oracle modulus at
    each epsilon.  The vertical segments are a subfamily of the connecting
    family, so the ratio is below 1; a row passes when its ratio is below 1
    and below the previous row's."""
    rows, prev = [], math.inf
    for eps in epsilons:
        est = discrete_modulus(comb_domain(eps))
        ratio = comb_vertical_modulus(eps) / est.value
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
        if isinstance(spec, GluedCollarSpec):
            pair = collar_modulus.glued_collar_graphs(spec)
            name = "glued-collar-l=%g-t=%g" % (spec.l_alpha, spec.twist)
        else:
            pair = collar_modulus.nonstandard_half_collar_graphs(spec)
            name = "half-collar-l=%g-gamma=%s" % (spec.l_alpha, spec.l_gamma)
        sb = sandwich_bounds(pair, 1.0 / spec.l_alpha)
        est = discrete_modulus(strip_domain(pair))
        rows.append((name, est.value, "[%g, %g]" % (sb.lower, sb.upper),
                     inside(est, sb)))
    return rows


def cmd_verify(args):
    suites = {
        "calibration": lambda: calibration_checks(1.0 / 64),
        "standard-collar": standard_collar_checks,
        "comb": lambda: comb_checks((0.2, 0.1)),
        "sandwich": lambda: sandwich_checks(
            [HalfCollarSpec(4.0, l_gamma) for l_gamma in (math.inf, 1.0)],
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
    except (ConfigError, SpecError, FileNotFoundError, KeyError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        if isinstance(exc, HypothesisError):
            print("hypothesis violation: %s" % exc, file=sys.stderr)
            return EXIT_HYPOTHESIS
        if isinstance(exc, ResolutionError):
            print("mesh refusal: %s" % exc, file=sys.stderr)
            return EXIT_RESOLUTION
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (OracleError, QuadratureError, ArithmeticError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
