"""Output checkers.  Each takes an operation, its exit code and its stdout and
returns one of ``"ok"``, ``"known-failure"`` (the exit code recorded for this
operation in the reference table) or ``"fail"``, with a note."""

import json
import math

# frozen bands of hypcollar.calibration, imported by the caller
BAND_NAMES = ("HALF_COLLAR_EXP_BAND_LOWER", "HALF_COLLAR_EXP_BAND_UPPER",
              "HALF_COLLAR_GM_BAND", "HALF_COLLAR_WIDE_BAND",
              "GLUED_HALF_TWIST_BAND_LOWER", "GLUED_HALF_TWIST_BAND_UPPER",
              "TWIST_GAIN_K")
COLLAR_RTOL = 1e-6
COLLAR_FIELDS = ("lambda_lower", "lambda_upper", "lambda_geometric_mean",
                 "analytic_proxy", "standard_lambda", "lambda")


def _reject_constant(name):
    raise ValueError("non-strict JSON constant %s" % name)


def parse_output(text):
    """(data, strict): the parsed stdout and whether it is strict JSON."""
    try:
        return json.loads(text, parse_constant=_reject_constant), True
    except ValueError:
        return json.loads(text), False


def standard_lambda(l):
    """arctan(1 / sinh(l/2)) / l, the standard half-collar extremal distance."""
    return math.atan(1.0 / math.sinh(0.5 * l)) / l


def check_oracle(op, rc, data, reference=None):
    """Closed forms at the criterion-02 tolerances, the comb's 1/eps, and for
    the collar strips the criterion-04 overlap with the sandwich (a miss the
    reference table records for that strip is a known failure)."""
    if rc != 0:
        return "fail", "exit %d" % rc
    m, bar = data["modulus"], data["error_bar"]
    if not (math.isfinite(m) and math.isfinite(bar) and len(data["meshes"]) == 2):
        return "fail", "not a two-mesh estimate"
    if "exact" in op:
        err = abs(m / op["exact"] - 1.0)
        if not err < op["rtol"]:
            return "fail", "modulus %.6g vs closed form %.6g (rel %.2g)" % (m, op["exact"], err)
    elif "at_least" in op:
        if not m >= op["at_least"]:
            return "fail", "comb modulus %.6g below 1/eps = %.6g" % (m, op["at_least"])
    else:
        lo, hi = op["sandwich"]
        if not (m + bar >= lo and m - bar <= hi):
            known = reference is not None and not reference[op["key"]]["sandwich_met"]
            return ("known-failure" if known else "fail",
                    "%.6g +- %.3g misses sandwich [%.6g, %.6g]" % (m, bar, lo, hi))
    return "ok", ""


def _bands(op, data, bands):
    """Frozen calibration bands, on the domains they were fitted on."""
    l = op["l_alpha"]
    if op["family"] == "half" and op["gamma_inf"] and 2.0 <= l <= 20.0:
        e = math.exp(0.5 * l)
        for band, value in (("HALF_COLLAR_EXP_BAND_LOWER", data["lambda_lower"] * e),
                            ("HALF_COLLAR_EXP_BAND_UPPER", data["lambda_upper"] * e),
                            ("HALF_COLLAR_GM_BAND", data["lambda_geometric_mean"] * e),
                            ("HALF_COLLAR_WIDE_BAND", data["lambda_geometric_mean"] * e)):
            lo, hi = bands[band]
            if not lo <= value <= hi:
                return "%s: %.4g outside [%g, %g]" % (band, value, lo, hi)
    if op["family"] == "glued" and op["gamma_inf"]:
        if op["twist"] == 0.5 and 4.0 <= l <= 16.0:
            e = math.exp(0.25 * l)
            for band, value in (("GLUED_HALF_TWIST_BAND_LOWER", data["lambda_lower"] * e),
                                ("GLUED_HALF_TWIST_BAND_UPPER", data["lambda_upper"] * e)):
                lo, hi = bands[band]
                if not lo <= value <= hi:
                    return "%s: %.4g outside [%g, %g]" % (band, value, lo, hi)
        if abs(op["twist"]) in (0.0, 0.25, 0.5) and 8.0 <= l <= 16.0:
            gain = data["lambda_lower"] / (2.0 * standard_lambda(l))
            floor = l * math.exp(0.5 * abs(op["twist"]) * l) / bands["TWIST_GAIN_K"]
            if not gain >= floor:
                return "TWIST_GAIN_K: gain %.4g below %.4g" % (gain, floor)
    return None


def check_collar(op, rc, data, reference, bands):
    ref = reference[op["key"]]
    if rc != 0:
        if rc == ref["exit"]:
            return "known-failure", "exit %d, as recorded" % rc
        return "fail", "exit %d, recorded %d" % (rc, ref["exit"])
    if op["family"] == "standard":
        if not math.isclose(data["lambda"], standard_lambda(op["l_alpha"]), rel_tol=1e-12):
            return "fail", "standard lambda off the closed form"
    else:
        if not data["lambda_lower"] <= data["lambda_upper"]:
            return "fail", "lambda_lower > lambda_upper"
        problem = _bands(op, data, bands)
        if problem:
            return "fail", problem
    if ref["exit"] == 0:
        for field in COLLAR_FIELDS:
            if field in ref and not math.isclose(data[field], ref[field], rel_tol=COLLAR_RTOL):
                return "fail", "%s %.10g vs recorded %.10g" % (field, data[field], ref[field])
    return "ok", ""


def check_classify(op, rc, data, reference):
    ref = reference[op["key"]]
    if rc != 0:
        if rc == ref["exit"]:
            return "known-failure", "exit %d, as recorded" % rc
        return "fail", "exit %d, recorded %d" % (rc, ref["exit"])
    rule = op.get("rule")
    if rule:
        for field, want in rule.items():
            if data[field] != want:
                return "fail", "%s %s, closed form says %s" % (field, data[field], want)
        return "ok", ""
    want = ref.get("kind")
    if data["kind"] != want:
        return "fail", "kind %s, recorded %s" % (data["kind"], want)
    return "ok", ""


def check(workload, op, rc, text, reference, bands):
    """Check one operation.  Returns (status, note, data, strict)."""
    data, strict = None, True
    if rc == 0:
        try:
            data, strict = parse_output(text)
        except ValueError as exc:
            return "fail", "unparseable output: %s" % exc, None, False
    try:
        if workload == "oracle":
            status, note = check_oracle(op, rc, data, reference["oracle"])
        elif workload == "collar":
            status, note = check_collar(op, rc, data, reference["collar"], bands)
        else:
            status, note = check_classify(op, rc, data, reference["classify"])
    except (KeyError, TypeError) as exc:
        status, note = "fail", "malformed output: %r" % (exc,)
    return status, note, data, strict
