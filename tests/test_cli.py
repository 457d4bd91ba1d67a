import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

import hypcollar
from hypcollar import cli


def run(argv):
    return cli.main(argv)


def _reject_constant(name):
    raise ValueError("non-strict JSON constant %s" % name)


def strict_json(text):
    """Parse CLI output, refusing the non-standard Infinity and NaN."""
    return json.loads(text, parse_constant=_reject_constant)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_classify_zero_twist_flute(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "type": "flute",
            "lengths": {"kind": "log_affine", "a": 2.0, "n0": 1.0},
        },
    )
    assert run(["classify", "--config", cfg]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["kind"] == "Parabolic"
    assert out["criterion"] == "zero-twist-series"
    assert out["series"]["method"] == "bertrand-exact"


def test_classify_output_file(tmp_path):
    cfg = write_config(
        tmp_path,
        {"type": "cantor_tree",
         "level_lengths": {"kind": "power_decay", "coef": 0.5, "base": 2.0}},
    )
    out_path = tmp_path / "verdict.json"
    assert run(["classify", "--config", cfg, "--output", str(out_path)]) == 0
    data = strict_json(out_path.read_text())
    assert data["kind"] == "Parabolic"


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"type": "flute",
         "lengths": {"kind": "constant", "value": 1.0},
         "bogus": 1},
    )
    assert run(["classify", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


_CONST1 = {"kind": "constant", "value": 1.0}


@pytest.mark.parametrize("config, key", [
    # each type refuses a key that only another type reads
    ({"type": "flute", "lengths": _CONST1, "use_twists": True}, "use_twists"),
    ({"type": "flute", "lengths": _CONST1, "beta_bound": 2}, "beta_bound"),
    ({"type": "bi_infinite_flute", "lengths": _CONST1, "beta_bound": 2.0},
     "beta_bound"),
    ({"type": "loch_ness", "lengths": _CONST1, "count_exponent": 1.0},
     "count_exponent"),
    ({"type": "ladder", "lengths": _CONST1, "lengths_neg": _CONST1}, "lengths_neg"),
    ({"type": "cantor_tree", "level_lengths": _CONST1,
      "hypotheses_asserted": []}, "hypotheses_asserted"),
    ({"type": "bounded_boundary", "lengths": _CONST1, "beta_bound": 1.0},
     "beta_bound"),
    ({"type": "cover", "rank": 1, "L": _CONST1, "twists": _CONST1}, "twists"),
    ({"type": "flute", "lengths": _CONST1, "beta_bound": 2, "rank": 7,
      "use_twists": True}, "beta_bound, rank, use_twists"),
], ids=lambda v: v["type"] if isinstance(v, dict) else v)
def test_each_surface_type_takes_only_its_own_keys(tmp_path, capsys, config, key):
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err == (
        "config error: unknown key(s) %s at top level\n" % key)


@pytest.mark.parametrize("config, key", [
    ({"type": "flute", "lengths": _CONST1, "twists": None}, "twists"),
    ({"type": "bi_infinite_flute", "lengths": _CONST1, "twists_neg": None},
     "twists_neg"),
    ({"type": "bi_infinite_flute", "lengths": _CONST1, "lengths_neg": None},
     "lengths_neg"),
    ({"type": "cover", "rank": 1, "L": _CONST1, "tau": None}, "tau"),
], ids=lambda v: v["type"] if isinstance(v, dict) else v)
def test_a_null_sequence_spec_is_refused_with_its_path(tmp_path, capsys, config,
                                                       key):
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err == (
        "config error: sequence spec at %s must be an object with 'kind'\n" % key)


@pytest.mark.parametrize("twists_neg, kind", [
    # an absent twists_neg is the twists: p = 3 / 4 at both ends
    ("absent", "Parabolic"),
    # an untwisted negative end has p = 3 / 2, and it dominates
    ({"kind": "constant", "value": 0.0}, "Unknown"),
])
def test_bi_infinite_twists_neg_defaults_to_the_twists(tmp_path, capsys,
                                                       twists_neg, kind):
    config = {"type": "bi_infinite_flute",
              "lengths": {"kind": "log_affine", "a": 3.0, "n0": 1.0},
              "twists": {"kind": "constant", "value": 0.5}, "use_twists": True,
              "hypotheses_asserted": ["not-pair-of-pants",
                                      "uniform-orthogeodesic-distance"]}
    if twists_neg != "absent":
        config["twists_neg"] = twists_neg
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 0
    assert strict_json(capsys.readouterr().out)["kind"] == kind


def test_nested_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"type": "flute",
         "lengths": {"kind": "constant", "value": 1.0, "slope": 2.0}},
    )
    assert run(["classify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "slope" in err and "lengths" in err


def test_invalid_twist_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"type": "flute",
         "lengths": {"kind": "constant", "value": 1.0},
         "twists": {"kind": "constant", "value": 0.7}},
    )
    assert run(["classify", "--config", cfg]) == 2


_LOG2 = {"kind": "log_affine", "a": 2.0, "n0": 1.0}
_TWIST_07 = {"kind": "constant", "value": 0.7}


@pytest.mark.parametrize("config, field", [
    ({"type": "flute", "lengths": _LOG2, "twists": _TWIST_07}, "twists"),
    ({"type": "loch_ness", "lengths": _LOG2, "twists": _TWIST_07}, "twists"),
    ({"type": "ladder", "lengths": _LOG2, "twists": _TWIST_07}, "twists"),
    ({"type": "bounded_boundary", "lengths": _LOG2, "twists": _TWIST_07}, "twists"),
    # the positive side of a bi-infinite flute reads the config key twists
    pytest.param({"type": "bi_infinite_flute", "lengths": _LOG2, "twists": _TWIST_07},
                 "twists", id="config4-twists_pos"),
    ({"type": "bi_infinite_flute", "lengths": _LOG2, "twists_neg": _TWIST_07},
     "twists_neg"),
    ({"type": "cover", "rank": 1, "L": _LOG2, "tau": _TWIST_07}, "tau"),
])
def test_every_twist_out_of_range_is_config_error(tmp_path, capsys, config,
                                                   field):
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert "%s term 1: twist must lie in (-1/2, 1/2]" % field in err


_NEGATIVE_AT_2 = {"kind": "linear", "slope": -3.0, "intercept": 4.0}
_LOG_BELOW_0 = {"kind": "log_affine", "a": 1.0, "n0": -3.0}
_ALTERNATING = {"kind": "alternating", "even": _LOG2, "odd": _LOG2}


@pytest.mark.parametrize("config, message", [
    ({"type": "flute", "lengths": _NEGATIVE_AT_2},
     "lengths term 2 is not a positive float: -2.0"),
    ({"type": "bi_infinite_flute", "lengths": _LOG2, "lengths_neg": _LOG_BELOW_0},
     "lengths_neg: log argument nonpositive at n = 1"),
    ({"type": "cantor_tree", "level_lengths": _ALTERNATING},
     "level_lengths: alternating specs start at n = 2; supply a prefix for n = 1"),
    ({"type": "cover", "rank": 1, "L": _NEGATIVE_AT_2},
     "L term 2 is not a positive float: -2.0"),
    ({"type": "cover", "rank": 2, "config": "intersecting-pair",
      "eps": _LOG_BELOW_0, "ell": _LOG2},
     "eps: log argument nonpositive at n = 1"),
    ({"type": "cover", "rank": 2, "config": "intersecting-pair",
      "eps": _LOG2, "ell": _ALTERNATING},
     "ell: alternating specs start at n = 2; supply a prefix for n = 1"),
])
def test_every_length_error_names_its_field(tmp_path, capsys, config, message):
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


_POWER_DECAY_BASE_05 = {"kind": "power_decay", "coef": 1, "base": 0.5}


@pytest.mark.parametrize("lengths, message", [
    ({"kind": "constant", "value": "1"}, "expected a number at lengths.value, got '1'"),
    ({"kind": "linear", "intercept": 1.0}, "missing required key 'slope' at lengths"),
    ({"kind": "log_affine", "log_terms": [[1.0]]},
     "expected a [coefficient, shift] pair at lengths.log_terms[0], got [1.0]"),
    ({"kind": "alternating", "even": _LOG2, "odd": {"kind": "constant", "value": 1.0}},
     "alternating branches must be log_affine at lengths"),
    ({"kind": "prefix", "values": [1.0, None], "tail": _LOG2},
     "expected a number at lengths.values[1], got None"),
    (_POWER_DECAY_BASE_05, "lengths: need coef > 0 and base > 1"),
    ({"kind": "prefix", "values": [1.0], "tail": _POWER_DECAY_BASE_05},
     "lengths.tail: need coef > 0 and base > 1"),
    ({"kind": "power_decay", "coef": 0, "base": 2.0}, "lengths: need coef > 0 and base > 1"),
])
def test_every_sequence_kind_names_the_path_of_a_bad_value(tmp_path, capsys, lengths,
                                                           message):
    cfg = write_config(tmp_path, {"type": "flute", "lengths": lengths})
    assert run(["classify", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


def test_missing_config_file(capsys):
    assert run(["classify", "--config", "/nonexistent/nope.json"]) == 2


@pytest.mark.parametrize("argv", [
    ["classify", "--config", "{dir}"],
    ["collar", "--l-alpha", "2", "--standard", "--output", "{dir}"],
], ids=["config", "output"])
def test_a_directory_as_a_path_is_a_config_error(tmp_path, capsys, argv):
    # an IsADirectoryError once ended in a traceback with exit 1
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    assert capsys.readouterr() == (
        "", "config error: [Errno 21] Is a directory: %r\n" % str(tmp_path))


@pytest.mark.parametrize("config, message", [
    # these once exited 0, with p=nan, with p=inf, and with a NaN handle
    # bound read as one below 1.5
    ({"type": "bounded_boundary", "lengths": _CONST1,
      "count_exponent": float("nan")}, "expected a number at count_exponent, got nan"),
    ({"type": "bounded_boundary", "lengths": _CONST1,
      "count_exponent": float("inf")}, "'inf' is not allowed at count_exponent"),
    ({"type": "loch_ness", "lengths": _CONST1, "beta_bound": float("nan")},
     "expected a number at beta_bound, got nan"),
], ids=["count_exponent-nan", "count_exponent-inf", "beta_bound-nan"])
def test_nan_and_infinity_are_config_errors_that_name_their_key(tmp_path, capsys,
                                                                config, message):
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr() == ("", "config error: %s\n" % message)


@pytest.mark.parametrize("key", ["count_exponent", "beta_bound"])
def test_an_integer_past_the_float_range_is_a_config_error(tmp_path, capsys, key):
    # it once exited 3 with "int too large to convert to float", naming no
    # field; the float literal 1e400 is an infinity, refused as such
    config = {"type": "bounded_boundary" if key == "count_exponent" else "loch_ness",
              "lengths": _CONST1, key: 10 ** 400}
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr() == (
        "", "config error: number at %s is beyond the float range\n" % key)
    config[key] = 1e400
    assert run(["classify", "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr() == (
        "", "config error: 'inf' is not allowed at %s\n" % key)
    # past the interpreter's limit on the digits that int() converts, it
    # once exited 2 with "Exceeds the limit (4300 digits)", naming no field
    config[key] = "digits"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(config).replace('"digits"', "1" + "0" * 5000))
    assert run(["classify", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "config error: number at %s is beyond the float range\n" % key)


@pytest.mark.parametrize("rank, config, message", [
    # these once exited 0: the rank never read the configuration
    (3, [1, "junk"], "config must be a string, got [1, 'junk']"),
    (3, "single", "config is read only at rank 2, not at rank 3"),
    (1, "intersecting-pair", "config at rank 1 must be 'single', got 'intersecting-pair'"),
    (1, "disjoint-pair", "config at rank 1 must be 'single', got 'disjoint-pair'"),
    (2, 2, "config must be a string, got 2"),
], ids=["rank3-list", "rank3-single", "rank1-intersecting", "rank1-disjoint",
        "rank2-number"])
def test_a_cover_config_that_its_rank_never_reads_is_refused(tmp_path, capsys, rank,
                                                             config, message):
    cover = {"type": "cover", "rank": rank, "config": config,
             "L": {"kind": "constant", "value": 2.0},
             "eps": {"kind": "constant", "value": 0.5},
             "ell": {"kind": "linear", "slope": 1.0, "intercept": 1.0}}
    assert run(["classify", "--config", write_config(tmp_path, cover)]) == 2
    assert capsys.readouterr() == ("", "config error: %s\n" % message)
    # the same cover reads as before without the key, and at rank 1 with
    # "single"
    del cover["config"]
    assert run(["classify", "--config", write_config(tmp_path, cover)]) == 0
    if rank == 1:
        cover["config"] = "single"
        assert run(["classify", "--config", write_config(tmp_path, cover)]) == 0


@pytest.mark.parametrize("value, allow_inf, want", [
    (2, False, 2.0),
    (float("inf"), True, float("inf")),
    (" Infinity", True, float("inf")),
    (float("-inf"), True, float("-inf")),
    (float("inf"), False, "'inf' is not allowed at x"),
    ("inf", False, "'inf' is not allowed at x"),
    (float("-inf"), False, "'-inf' is not allowed at x"),
    (float("nan"), True, "expected a number at x, got nan"),
    ("nan", True, "expected a number at x, got 'nan'"),
    (True, True, "expected a number at x"),
    (10 ** 400, True, "number at x is beyond the float range"),
])
def test_number_refuses_nan_and_an_infinity_unless_allowed(value, allow_inf, want):
    if isinstance(want, str):
        with pytest.raises(cli.ConfigError, match="^%s$" % re.escape(want)):
            cli._number(value, "x", allow_inf)
    else:
        assert cli._number(value, "x", allow_inf) == want


@pytest.mark.parametrize("command", ["classify", "sweep", "oracle"])
def test_invalid_json(command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run([command, "--config", str(path)]) == 2
    assert "config error: invalid JSON: " in capsys.readouterr().err
    path.write_text("[1]")
    assert run([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def test_twisted_criterion_needs_hypotheses(tmp_path, capsys):
    base = {
        "type": "ladder",
        "lengths": {"kind": "constant", "value": 1.0},
        "twists": {"kind": "constant", "value": 0.5},
        "use_twists": True,
    }
    cfg = write_config(tmp_path, base)
    assert run(["classify", "--config", cfg]) == 4
    base["hypotheses_asserted"] = [
        "not-pair-of-pants", "uniform-orthogeodesic-distance",
    ]
    cfg = write_config(tmp_path, base, name="asserted.json")
    assert run(["classify", "--config", cfg]) == 0


def test_hypotheses_asserted_must_be_a_list(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"type": "ladder",
         "lengths": {"kind": "constant", "value": 1.0},
         "twists": {"kind": "constant", "value": 0.5},
         "use_twists": True,
         "hypotheses_asserted": "abc"},
    )
    assert run(["classify", "--config", cfg]) == 2
    assert "hypotheses_asserted must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [2.7, 2.0, True, "2"])
def test_cover_rank_must_be_an_integer(tmp_path, capsys, rank):
    cfg = write_config(
        tmp_path,
        {"type": "cover", "rank": rank, "config": "disjoint-pair",
         "L": {"kind": "constant", "value": 1.0}},
    )
    assert run(["classify", "--config", cfg]) == 2
    assert "rank must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [10 ** 400, -10 ** 400])
def test_a_cover_rank_past_the_float_range_is_a_config_error(tmp_path, capsys, rank):
    # 10^400 once exited 3 with "int too large to convert to float", naming
    # no field
    cfg = write_config(tmp_path, {"type": "cover", "rank": rank,
                                  "L": {"kind": "constant", "value": 2.0}})
    assert run(["classify", "--config", cfg]) == 2
    assert capsys.readouterr() == (
        "", "config error: number at rank is beyond the float range\n")


@pytest.mark.parametrize("command, config, message", [
    ("classify", {"type": "flute"}, "missing required key 'lengths' at top level"),
    ("classify", {"type": "flute", "lengths": {"kind": "constant"}},
     "missing required key 'value' at lengths"),
    ("classify", {"type": "flute", "lengths": {
        "kind": "prefix", "values": [1.0],
        "tail": {"kind": "alternating", "even": {"kind": "log_affine", "a": 1.0}}}},
     "missing required key 'odd' at lengths.tail"),
    ("classify", {"type": "cover", "L": {"kind": "constant", "value": 1.0}},
     "missing required key 'rank' at top level"),
    ("oracle", {"shape": "rectangle", "width": 2.0},
     "missing required key 'height' at top level"),
])
def test_missing_key_named_with_its_path(tmp_path, capsys, command, config,
                                         message):
    cfg = write_config(tmp_path, config)
    assert run([command, "--config", cfg]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("lengths, message", [
    ({"kind": "log_affine", "log_terms": [1.0]},
     "pair at lengths.log_terms[0]"),
    ({"kind": "log_affine", "log_terms": [[1.0, 1.0], [2.0, 0.0, 3.0]]},
     "pair at lengths.log_terms[1]"),
    ({"kind": "log_affine", "log_terms": 5}, "list at lengths.log_terms"),
    ({"kind": "prefix", "values": 5, "tail": {"kind": "constant", "value": 1.0}},
     "list at lengths.values"),
    ({"kind": "prefix", "values": [1.0, "x"],
      "tail": {"kind": "constant", "value": 1.0}}, "at lengths.values[1]"),
])
def test_malformed_lists_named_with_their_path(tmp_path, capsys, lengths,
                                               message):
    cfg = write_config(tmp_path, {"type": "flute", "lengths": lengths})
    assert run(["classify", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("lengths", [
    {"kind": "log_affine", "a": -1.0, "c": 10.0},
    {"kind": "linear", "slope": -1.0, "intercept": 100.0},
])
def test_lengths_negative_far_out_are_config_errors(tmp_path, capsys, lengths):
    for cfg in ({"type": "flute", "lengths": lengths},
                {"type": "cover", "rank": 1, "L": lengths}):
        assert run(["classify", "--config", write_config(tmp_path, cfg)]) == 2
        assert "turn negative" in capsys.readouterr().err



def _cancelling(shift):
    """ln((n+2)^2 / ((n+1)(n+shift))): about 1/n^2 - (shift-3)/n far out,
    so it turns negative for every shift above 3."""
    return {"kind": "log_affine", "log_terms": [[-1, shift], [2, 2], [-1, 1]]}


def test_cancelling_log_lengths_that_turn_negative_are_config_errors(
        tmp_path, capsys):
    # the shift is 3 + 4.4e-16: positive far past any window of terms, then
    # negative from about n = 2e15
    for cfg, field in (({"type": "cover", "rank": 4,
                         "L": _cancelling(3.0000000000000004)}, "L"),
                       ({"type": "flute",
                         "lengths": _cancelling(3.0000000000000004)}, "lengths")):
        assert run(["classify", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: %s: log-affine lengths with a negative leading "
            "coefficient turn negative" % field)
    for cfg in ({"type": "cover", "rank": 4, "L": _cancelling(2.9999999999999996)},
                {"type": "flute", "lengths": _cancelling(2.9999999999999996)}):
        assert run(["classify", "--config", write_config(tmp_path, cfg)]) == 0

def test_cancelling_log_lengths_decay_like_a_power(tmp_path, capsys):
    # l_n = ln((n+2)/(n+1)) ~ 1/n, so the rank-3 terms n^-2 / l_n ~ 1/n
    cfg = write_config(tmp_path, {
        "type": "cover", "rank": 3,
        "L": {"kind": "log_affine", "log_terms": [[1, 2], [-1, 1]]}})
    assert run(["classify", "--config", cfg]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["kind"] == "Parabolic"
    assert out["series"]["verdict"] == "diverges"
    assert out["series"]["detail"] == "p=1 q=0 r=0"


def test_a_warning_fails_a_test():
    # pyproject.toml's filterwarnings turns every warning into an error, so
    # no test needs its own filter to hold the package to "no warning"
    with pytest.raises(UserWarning, match="^x$"):
        warnings.warn("x")


def _fresh_python(script, *argv):
    """Run `script` in a fresh interpreter that imports this checkout's
    package, with every warning an error; the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypcollar.__file__)))
    return subprocess.run([sys.executable, "-W", "error", "-c", script, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def test_classify_and_collar_load_no_scipy(tmp_path):
    # numpy counts as loaded once one of its submodules is: the package
    # itself sits in sys.modules as a lazy module until its first use
    nested = write_config(tmp_path, {"type": "flute", "lengths": {
        "kind": "prefix", "values": [1.0], "tail": {
            "kind": "prefix", "values": [2.0],
            "tail": {"kind": "log_affine", "a": 3.0, "n0": 1.0}}}}, "nested.json")
    sweep = write_config(tmp_path, {"family": "two-parameter", "a": [1.0, 3.0],
                                    "b": [1.0, 3.0]}, "sweep.json")
    script = (
        "import sys\n"
        "numpy = lambda: any(m.startswith('numpy.') for m in sys.modules)\n"
        "from hypcollar import cli\n"
        "loaded = [numpy()]\n"
        "assert cli.main(['classify', '--config', sys.argv[1]]) == 0\n"
        "loaded.append(numpy())\n"
        "assert cli.main(['sweep', '--config', sys.argv[2]]) == 0\n"
        "loaded.append(numpy())\n"
        "assert cli.main(['collar', '--l-alpha', '4', '--standard']) == 0\n"
        "loaded.append(numpy())\n"
        "assert cli.main(['collar', '--l-alpha', '4', '--l-gamma', '1']) == 0\n"
        "loaded.append(numpy())\n"
        "assert cli.main(['collar', '--l-alpha', '8', '--l-gamma', 'inf',\n"
        "                 '--l-gamma2', 'inf', '--twist', '0.5']) == 0\n"
        "print(loaded)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _fresh_python(script, nested, sweep)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[False, False, False, False, True]", "[]"]
    assert '"method": "bertrand-exact"' in proc.stdout


# Which of the lazy layers have run: any attribute access runs a lazy module,
# vars() included, so each is inspected by its type alone.
_RAN = (
    "import sys, types\n"
    "from hypcollar import cli\n"
    "LAYERS = ('collar_modulus', 'graph_modulus', 'extremal_oracle')\n"
    "def ran():\n"
    "    return [type(sys.modules['hypcollar.' + name]) is types.ModuleType\n"
    "            for name in LAYERS]\n"
)


def test_each_command_runs_only_the_layers_it_uses(tmp_path):
    log3 = {"kind": "log_affine", "a": 3.0, "n0": 1.0}
    nested = write_config(tmp_path, {"type": "flute", "lengths": {
        "kind": "prefix", "values": [1.0], "tail": log3}}, "nested.json")
    twice = write_config(tmp_path, {"type": "flute", "lengths": {
        "kind": "prefix", "values": [1.0], "tail": {
            "kind": "prefix", "values": [2.0], "tail": log3}}}, "twice.json")
    sweep = write_config(tmp_path, {"family": "two-parameter", "a": [1.0, 3.0],
                                    "b": [1.0, 3.0]}, "sweep.json")
    rect = write_config(tmp_path, {"shape": "rectangle", "width": 2.0,
                                   "height": 1.0, "h": 0.0625}, "rect.json")
    script = _RAN + (
        "import hypcollar\n"
        "for name in LAYERS:  # bound on the package, as an import binds them\n"
        "    assert getattr(hypcollar, name) is sys.modules['hypcollar.' + name]\n"
        "runs = [ran()]\n"
        "for argv in (['classify', '--config', sys.argv[1]],\n"
        "             ['classify', '--config', sys.argv[4]],\n"
        "             ['sweep', '--config', sys.argv[2]],\n"
        "             ['collar', '--l-alpha', '4', '--standard'],\n"
        "             ['collar', '--l-alpha', '4', '--l-gamma', '1'],\n"
        "             ['oracle', '--config', sys.argv[3]]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    runs.append(ran())\n"
        "print(runs)\n"
    )
    proc = _fresh_python(script, nested, sweep, rect, twice)
    assert proc.returncode == 0, proc.stderr
    none, bounds, every = [False] * 3, [True, True, False], [True] * 3
    assert proc.stdout.splitlines()[-1] == str(
        [none, none, none, none, none, bounds, every])


def test_error_paths_keep_their_exit_codes_without_the_oracle(tmp_path):
    log = lambda a: {"kind": "log_affine", "a": a, "n0": 1.0}
    configs = [
        write_config(tmp_path, {"type": "flute"}, "missing.json"),
        write_config(tmp_path, {
            "type": "ladder", "lengths": {"kind": "constant", "value": 1.0},
            "twists": {"kind": "constant", "value": 0.5}, "use_twists": True,
        }, "unasserted.json"),
        write_config(tmp_path, {
            "type": "flute", "twists": {"kind": "constant", "value": 0.5},
            "lengths": {"kind": "prefix", "values": [1.0], "tail": {
                "kind": "alternating", "even": log(7.0), "odd": log(5.0)}},
        }, "alt75.json"),
        write_config(tmp_path, {"shape": "comb", "epsilon": 0.1, "h": 0.05},
                     "coarse_comb.json"),
    ]
    script = _RAN + (
        "codes = []\n"
        "for argv in (['classify', '--config', sys.argv[1]],\n"
        "             ['classify', '--config', sys.argv[2]],\n"
        "             ['classify', '--config', sys.argv[3]],\n"
        "             ['collar', '--l-alpha', '-1', '--standard'],\n"
        "             ['collar', '--l-alpha', '-1', '--l-gamma', '1'],\n"
        "             ['collar', '--l-alpha', '1.5', '--l-gamma', '0.3'],\n"
        "             ['collar', '--l-alpha', '2000', '--l-gamma', 'inf']):\n"
        "    codes.append(cli.main(argv))\n"
        "print(codes, ran()[2])\n"
        "print(cli.main(['oracle', '--config', sys.argv[4]]), ran()[2])\n"
    )
    proc = _fresh_python(script, *configs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[2, 4, 3, 2, 2, 4, 3] False", "5 True"]
    assert [line.split(":")[0] for line in proc.stderr.splitlines()] == [
        "config error", "hypothesis violation", "numeric failure", "config error",
        "config error", "hypothesis violation", "numeric failure", "mesh refusal"]

def test_collar_standard(capsys):
    assert run(["collar", "--l-alpha", "2", "--standard"]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["lambda"] == pytest.approx(0.3525134217776191, rel=1e-12)


_STANDARD_REFUSAL = (
    "numeric failure: the standard half-collar's lambda at l_alpha = %g "
    "cannot be computed within the range of normal floats\n")


@pytest.mark.parametrize("l_alpha", ["1403", "1404", "1430", "1500", "1e300"])
def test_collar_standard_past_the_least_normal_float_is_refused(capsys,
                                                                l_alpha):
    # lambda ~ 2 e^{-l/2} / l is subnormal past l_alpha = 1403.685, and 0.0
    # from about 1490 on
    rc = run(["collar", "--l-alpha", l_alpha, "--standard"])
    out, err = capsys.readouterr()
    if l_alpha == "1403":
        assert (rc, err) == (0, "")
        assert strict_json(out)["lambda"] >= sys.float_info.min
        return
    assert (rc, out, err) == (3, "", _STANDARD_REFUSAL % float(l_alpha))


@pytest.mark.parametrize("l_alpha", ["1e-300", "1e-310", "1e-320"])
def test_collar_standard_past_the_largest_float_is_refused(capsys, l_alpha):
    # lambda ~ (pi/2) / l passes the largest float below l_alpha = 8.7e-309,
    # where it would print as "inf"
    rc = run(["collar", "--l-alpha", l_alpha, "--standard"])
    out, err = capsys.readouterr()
    if l_alpha == "1e-300":
        assert (rc, err) == (0, "")
        assert strict_json(out)["lambda"] == pytest.approx(0.5 * math.pi / 1e-300)
        return
    assert (rc, out, err) == (3, "", _STANDARD_REFUSAL % float(l_alpha))


def test_collar_nonstandard(capsys):
    assert run(["collar", "--l-alpha", "8", "--l-gamma", "inf"]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["l_gamma"] == "inf"
    assert 0 < out["lambda_lower"] <= out["lambda_upper"]
    assert out["lambda_upper"] > out["standard_lambda"]


def test_collar_hypothesis_violation_exit_4(capsys):
    # opposite boundary inside the standard collar of alpha
    assert run(["collar", "--l-alpha", "1.5", "--l-gamma", "0.3"]) == 4
    assert "hypothesis" in capsys.readouterr().err


def test_collar_glued(capsys):
    assert run([
        "collar", "--l-alpha", "8", "--l-gamma", "inf",
        "--l-gamma2", "inf", "--twist", "0.5",
    ]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["kind"] == "glued-collar"
    assert 0 < out["lambda_lower"] <= out["lambda_upper"]
    assert out["analytic_proxy"] > 0


def test_oracle_eta_underflow_is_numeric_failure(tmp_path, capsys):
    # eta = 2 tanh(l_gamma) e^{-l_alpha/2} underflows to 0 at l_alpha = 2000
    config = write_config(tmp_path, {"shape": "half_collar", "l_alpha": 2000,
                                     "l_gamma": "inf"})
    assert run(["oracle", "--config", config]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "underflow" in err


@pytest.mark.parametrize("l_alpha", ["1403", "1408", "1430", "1500", "2000"])
def test_half_collar_past_the_float_range_is_one_refusal(capsys, l_alpha):
    # one message past the limit, whether the quadrature's sums, cosh r(eta)
    # or eta itself would leave the float range
    assert run(["collar", "--l-alpha", l_alpha, "--l-gamma", "inf"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numeric failure: half-collar bounds at l_alpha = %s, "
                   "l_gamma = inf cannot be computed within the range of "
                   "normal floats\n" % l_alpha)


@pytest.mark.parametrize("twist, limit", [("0", 1404.25), ("0.5", 1419.56)])
@pytest.mark.parametrize("l_alpha", ["1405", "1410", "1421", "2000"])
def test_glued_collar_past_the_float_range_is_one_refusal(capsys, l_alpha,
                                                          twist, limit):
    # at twist 0 the quadrature's sums would overflow (a numpy warning at
    # 1405, a division at 1410); at twist 1/2 the integrand stays small, and
    # the bounds hold until e^{l/2} overflows in the envelope's closed forms
    from hypcollar import collar_modulus as cm

    rc = run(["collar", "--l-alpha", l_alpha, "--l-gamma", "inf",
              "--l-gamma2", "inf", "--twist", twist])
    if float(l_alpha) <= limit:
        bounds = cm.glued_collar_lambda(cm.GluedCollarSpec(
            float(l_alpha), math.inf, math.inf, float(twist)))
    out, err = capsys.readouterr()
    if float(l_alpha) <= limit:
        assert 0.0 < bounds.lower <= bounds.upper
        # the output's standard_lambda is past the least normal float
        assert (rc, out, err) == (3, "", _STANDARD_REFUSAL % float(l_alpha))
        return
    assert (rc, out) == (3, "")
    assert err == ("numeric failure: glued-collar bounds at l_alpha = %s, "
                   "l_gamma = inf, l_gamma2 = inf, twist = %s cannot be "
                   "computed within the range of normal floats\n"
                   % (l_alpha, twist))


@pytest.mark.parametrize("argv, err", [
    (["--l-gamma", "1e-320"],
     "half-collar bounds at l_alpha = 2000, l_gamma = 9.99989e-321 cannot be "
     "computed within the range of normal floats"),
    (["--l-gamma", "1e-300", "--l-gamma2", "inf", "--twist", "0"],
     "glued-collar bounds at l_alpha = 2000, l_gamma = 1e-300, l_gamma2 = "
     "inf, twist = 0 cannot be computed within the range of normal floats"),
], ids=["half-collar", "glued-collar"])
def test_a_tiny_l_gamma_past_the_float_range_names_no_unadmitted_limit(
        capsys, argv, err):
    # the collar constraint admits l_gamma = 1e-320 only from l_alpha 1475.04
    # on, and 1e-300 from 1382.94 on: the refusal names the collar, and no
    # l_alpha limit that the constraint would rule out
    assert run(["collar", "--l-alpha", "2000"] + argv) == 3
    assert capsys.readouterr() == ("", "numeric failure: %s\n" % err)


@pytest.mark.parametrize("l_alpha", ["1389", "1389.25", "1391.75", "1392"])
def test_glued_collar_proxy_past_the_float_range_is_one_refusal(capsys,
                                                                l_alpha):
    # at l_gamma = 1e-6 the printed proxy 1/e^{r(eta_1)} is normal at 1389,
    # subnormal from 1389.25 on, and its e^{r(eta_1)} overflows at 1392, all
    # below the l_alpha at which the bounds leave the float range
    rc = run(["collar", "--l-alpha", l_alpha, "--l-gamma", "1e-6",
              "--l-gamma2", "inf", "--twist", "0"])
    out, err = capsys.readouterr()
    if l_alpha == "1389":
        assert (rc, err) == (0, "")
        assert strict_json(out)["analytic_proxy"] >= sys.float_info.min
        return
    assert (rc, out) == (3, "")
    assert err == ("numeric failure: the glued collar's analytic proxy at "
                   "l_alpha = %s, l_gamma = 1e-06, l_gamma2 = inf, twist = 0 "
                   "cannot be computed within the range of normal floats\n"
                   % l_alpha)


@pytest.mark.parametrize("argv", [
    ["--l-alpha", l, "--l-gamma", "inf"] for l in ("1", "8", "80", "745", "1000")
] + [["--l-alpha", "80", "--l-gamma", "inf", "--l-gamma2", "inf", "--twist", "0.5"]])
def test_collar_bounds_raise_no_warning(capsys, argv):
    # inside the float range every printed number is a normal float, and
    # no numpy warning is raised on the way
    rc = run(["collar"] + argv)
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    data = strict_json(out)
    assert (sys.float_info.min <= data["lambda_lower"] <= data["lambda_upper"]
            < math.inf)
    assert data["standard_lambda"] >= sys.float_info.min


@pytest.mark.parametrize("h, code", [(0.125, 5), (0.117, 0)])
def test_a_strip_gap_under_3_mesh_cells_is_refused(tmp_path, capsys, h, code):
    # the least gap of the l_alpha = 2 half-collar is 0.353: 3 cells of
    # 0.117 but not of 0.125, which divides the period
    cfg = write_config(tmp_path, {"shape": "half_collar", "l_alpha": 2.0,
                                  "l_gamma": "inf", "h": h})
    assert run(["oracle", "--config", cfg]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        assert strict_json(out)["meshes"][0] == pytest.approx(1.0 / 9)
        return
    assert out == ""
    assert err == ("mesh refusal: gap 0.353 is thinner than 3 mesh cells "
                   "(h = 0.125); need h <= 0.118\n")


@pytest.mark.parametrize("l_alpha", [80, 200, 1000])
def test_half_collar_oracle_gap_is_read_from_the_offsets(tmp_path, capsys,
                                                         l_alpha):
    # f - g rounds to 0 near x = 0, where the mesh it gave divided by zero;
    # F + G does not, and its mesh needs a lattice past the solver's indices
    cfg = write_config(tmp_path, {"shape": "half_collar", "l_alpha": l_alpha,
                                  "l_gamma": "inf"})
    assert run(["oracle", "--config", cfg]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"mesh refusal: h = \S+ needs a lattice of about \S+ "
                        r"nodes at mesh \S+, past the \d+ that the solver's "
                        r"int32 indices allow; coarsen the mesh\n", err)


@pytest.mark.parametrize("kind", [["--standard"], ["--l-gamma", "inf"]])
def test_collar_infinite_l_alpha_names_l_alpha(capsys, kind):
    assert run(["collar", "--l-alpha", "1e400"] + kind) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: l_alpha must be finite")


def test_collar_glued_needs_both_flags(capsys):
    assert run([
        "collar", "--l-alpha", "8", "--l-gamma", "inf", "--l-gamma2", "inf",
    ]) == 2


def test_oracle_rectangle(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"shape": "rectangle", "width": 2.0, "height": 1.0, "h": 0.0625},
    )
    assert run(["oracle", "--config", cfg]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["modulus"] == pytest.approx(2.0, rel=1e-6)
    assert out["extrapolated"] is True


def test_oracle_mesh_refusal_exit_5(tmp_path, capsys):
    cfg = write_config(tmp_path, {"shape": "comb", "epsilon": 0.1, "h": 0.05})
    assert run(["oracle", "--config", cfg]) == 5
    assert "refusal" in capsys.readouterr().err


@pytest.mark.parametrize("width, height, side", [
    (3.03, 1.0, "width 3.03"),
    (3.0, 1.03, "height 1.03"),
])
def test_oracle_rectangle_side_the_mesh_does_not_divide_exit_5(
        tmp_path, capsys, width, height, side):
    # the lattice would solve a 3.0 x 1 rectangle, or one with no electrode b
    cfg = write_config(tmp_path, {"shape": "rectangle", "width": width,
                                  "height": height, "h": 0.0625})
    assert run(["oracle", "--config", cfg]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "mesh refusal: mesh h = 0.0625 does not divide the %s\n" % side)


def test_oracle_comb_whose_mesh_divides_neither_side_exits_0(tmp_path,
                                                              capsys):
    # the lattice pads the comb by 2h, so where h divides neither eps nor 1
    # the top electrode keeps its lattice nodes (the benchmark's comb of
    # seed 4001)
    cfg = write_config(tmp_path, {"shape": "comb",
                                  "epsilon": 0.45511480400657883,
                                  "h": 0.042542284403658905})
    assert run(["oracle", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert strict_json(out)["modulus"] >= 1.0 / 0.45511480400657883


@pytest.mark.parametrize("side", ["width", "height"])
@pytest.mark.parametrize("length, message", [
    (0.0, "%s must be positive and finite, got 0.0"),
    (-1.0, "%s must be positive and finite, got -1.0"),
    # a JSON Infinity or NaN is refused as a config number
    (float("inf"), "'inf' is not allowed at %s"),
    (float("nan"), "expected a number at %s, got nan"),
], ids=["0.0", "-1.0", "inf", "nan"])
def test_oracle_rectangle_side_not_positive_is_config_error(tmp_path, capsys,
                                                            side, length, message):
    # a side of 0 once solved a single column of nodes (modulus -1.67e-16),
    # and a negative one failed with no interior nodes
    cfg = dict({"shape": "rectangle", "width": 1.0, "height": 1.0, "h": 0.0625},
               **{side: length})
    assert run(["oracle", "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: %s\n" % (message % side)


@pytest.mark.parametrize("shape", [
    {"shape": "rectangle", "width": 1.0, "height": 1.0},
    {"shape": "annulus", "r1": 1.0, "r2": 2.0},
    {"shape": "annular_sector", "r1": 1.0, "r2": 2.0, "theta": 1.0},
    {"shape": "comb", "epsilon": 0.2},
    {"shape": "half_collar", "l_alpha": 2.0, "l_gamma": "inf"},
    {"shape": "glued_collar", "l_alpha": 2.0, "l_gamma": "inf",
     "l_gamma2": "inf", "twist": 0.5},
], ids=lambda cfg: cfg["shape"])
@pytest.mark.parametrize("h, code, message", [
    (0, 2, "config error: h must be a positive mesh size, got 0.0"),
    (-0.5, 2, "config error: h must be a positive mesh size, got -0.5"),
    (float("nan"), 2, "config error: expected a number at h, got nan"),
    (float("inf"), 2, "config error: 'inf' is not allowed at h"),
    # a lattice past the int32 indices of the solver, refused before any of
    # its arrays is allocated
    (1e-9, 5, "mesh refusal: h = 1e-09 needs a lattice of about"),
])
def test_oracle_mesh_size_is_checked_for_every_shape(tmp_path, capsys, shape, h,
                                                     code, message):
    cfg = write_config(tmp_path, dict(shape, h=h))
    assert run(["oracle", "--config", cfg]) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("shape", [
    {"shape": "annulus", "r1": 1.0, "r2": 2.0},
    {"shape": "annular_sector", "r1": 1.0, "r2": 2.0, "theta": 1.0},
    # these once exited 3 with "cannot convert float infinity to integer"
    {"shape": "rectangle", "width": 1.0, "height": 1.0},
    {"shape": "half_collar", "l_alpha": 2.0, "l_gamma": "inf"},
], ids=lambda cfg: cfg["shape"])
def test_a_mesh_whose_quotient_overflows_is_a_mesh_refusal(tmp_path, capsys,
                                                           shape):
    # r2 / h, side / h or period / h is past the float range, where the
    # builders lay their bbox on multiples of h, check that h divides each
    # side or snap h to the period: the lattice is refused as one past the
    # solver's indices
    cfg = write_config(tmp_path, dict(shape, h=1e-320))
    assert run(["oracle", "--config", cfg]) == 5
    assert "needs a lattice of about inf nodes" in capsys.readouterr().err


def test_oracle_lattice_past_memory_is_a_mesh_refusal(tmp_path):
    # 4e8 nodes at h/2, inside the int32 limit; under a 1 GiB address-space
    # limit the lattice's first array cannot be allocated
    import resource

    limit = 2**30
    cfg = write_config(tmp_path, {"shape": "rectangle", "width": 1,
                                  "height": 1, "h": 1e-4})
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypcollar.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hypcollar.cli", "oracle",
         "--config", cfg],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr == (
        "mesh refusal: h = 0.0001 needs a lattice of about 4e+08 nodes at mesh "
        "5e-05, more than fits in memory; coarsen the mesh\n")


def test_oracle_refine_key_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, {"shape": "rectangle", "width": 2.0,
                                  "height": 1.0, "refine": False})
    assert run(["oracle", "--config", cfg]) == 2
    assert "unknown key(s) refine" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    ("oracle", {"shape": "rectangle", "width": 1.0, "height": 1.0, "epsilon": 0.3},
     "epsilon"),
    ("oracle", {"shape": "annulus", "r1": 1.0, "r2": 2.0, "theta": 1.0}, "theta"),
    ("oracle", {"shape": "annular_sector", "r1": 1.0, "r2": 2.0, "theta": 1.0,
                "width": 1.0}, "width"),
    ("oracle", {"shape": "comb", "epsilon": 0.2, "r1": 5}, "r1"),
    ("oracle", {"shape": "half_collar", "l_alpha": 2.0, "l_gamma": "inf",
                "twist": 0.5}, "twist"),
    ("oracle", {"shape": "glued_collar", "l_alpha": 2.0, "l_gamma": "inf",
                "l_gamma2": "inf", "twist": 0.5, "height": 1.0}, "height"),
    ("sweep", {"family": "two-parameter", "a": [1.0], "b": [1.0], "s": [1.0]}, "s"),
    ("sweep", {"family": "scaled", "s": [1.0], "a": ["junk"]}, "a"),
], ids=lambda v: v.get("shape", v.get("family")) if isinstance(v, dict) else v)
def test_each_oracle_shape_and_sweep_family_takes_only_its_own_keys(
        tmp_path, capsys, command, config, key):
    # a key that only another shape or family reads was once ignored
    assert run([command, "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr() == (
        "", "config error: unknown key(s) %s at top level\n" % key)


@pytest.mark.parametrize("command, config, message", [
    ("oracle", {"shape": "disc", "radius": 1.0}, "unknown oracle shape 'disc'"),
    ("sweep", {"family": "linear", "t": [1.0]}, "unknown sweep family 'linear'"),
])
def test_an_unknown_shape_or_family_is_reported_before_unknown_keys(
        tmp_path, capsys, command, config, message):
    assert run([command, "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message


def test_comb_rows_need_a_ratio_below_one(monkeypatch):
    # the vertical segments are a subfamily of the connecting family, so an
    # oracle value below 1/eps fails a row even when it has no predecessor
    from hypcollar import extremal_oracle as eo

    monkeypatch.setattr(eo, "discrete_modulus", lambda dom: eo.ModulusEstimate(
        value=4.0, meshes=(dom.h,), raw_values=(4.0,), error_bar=0.0,
        unknowns=(0,), iterations=(0,)))
    (row,) = cli.comb_checks((0.2,))
    assert row[1] == pytest.approx(1.25)
    assert row[2] == "< 1 and decreasing"
    assert not row[3]


def test_sweep_csv_deterministic(tmp_path):
    cfg = write_config(
        tmp_path, {"family": "scaled", "s": [1.0, 1.5, 2.5]}
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["sweep", "--config", cfg, "--output", str(out1)]) == 0
    assert run(["sweep", "--config", cfg, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "s,kind,reason,criterion"
    assert len(lines) == 4
    assert lines[1].startswith("1.0,Parabolic")
    assert lines[3].startswith("2.5,NotParabolic,Incomplete")


def test_sweep_two_parameter_grid(tmp_path):
    cfg = write_config(
        tmp_path, {"family": "two-parameter", "a": [1.0, 3.0], "b": [1.0, 3.0]}
    )
    out = tmp_path / "grid.csv"
    assert run(["sweep", "--config", cfg, "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_sweep_unknown_family(tmp_path, capsys):
    cfg = write_config(tmp_path, {"family": "nonsense"})
    assert run(["sweep", "--config", cfg]) == 2


@pytest.mark.parametrize("data, message", [
    ({"family": "two-parameter", "a": [1.0, "x"], "b": [1.0]},
     "expected a number at a[1]"),
    ({"family": "two-parameter", "a": [1.0], "b": [True]},
     "expected a number at b[0]"),
    ({"family": "scaled", "s": [1.0, 2.0, None]}, "expected a number at s[2]"),
    ({"family": "scaled", "s": [-1]}, "s[0] = -1.0: need s > 0"),
    # each list is named
    ({"family": "two-parameter", "a": [1.0]}, "two-parameter sweep needs a list 'b'"),
    ({"family": "scaled", "s": 2.0}, "scaled sweep needs a list 's'"),
    ({"family": "scaled", "s": [1.0, 0]}, "s[1] = 0.0: need s > 0"),
    # 2 s overflows, and the lengths turn to nan
    ({"family": "scaled", "s": [1e308]}, "s[0] = 1e+308: lengths term 2 is"),
    ({"family": "two-parameter", "a": [1.0, -1.0], "b": [1.0]},
     "a[1] = -1.0, b[0] = 1.0: need a > 0 and b > 0"),
])
def test_sweep_number_errors_name_the_index(tmp_path, capsys, data, message):
    assert run(["sweep", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith("config error: " + message)


def test_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("suite", ["calibration", "standard-collar", "comb",
                                   "sandwich"])
def test_each_verify_suite_passes(capsys, suite):
    assert run(["verify", "--suite", suite]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = strict_json(out)
    assert report["suite"] == suite and report["ok"] is True
    assert all(check["ok"] for check in report["checks"])
