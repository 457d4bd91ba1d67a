import json
import os
import subprocess
import sys

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


def _fresh_python(script, *argv):
    """Run `script` in a fresh interpreter that imports this checkout's
    package; the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypcollar.__file__)))
    return subprocess.run([sys.executable, "-c", script, *argv],
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
    nested = write_config(tmp_path, {"type": "flute", "lengths": {
        "kind": "prefix", "values": [1.0],
        "tail": {"kind": "log_affine", "a": 3.0, "n0": 1.0}}}, "nested.json")
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
        "             ['sweep', '--config', sys.argv[2]],\n"
        "             ['collar', '--l-alpha', '4', '--standard'],\n"
        "             ['collar', '--l-alpha', '4', '--l-gamma', '1'],\n"
        "             ['oracle', '--config', sys.argv[3]]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    runs.append(ran())\n"
        "print(runs)\n"
    )
    proc = _fresh_python(script, nested, sweep, rect)
    assert proc.returncode == 0, proc.stderr
    none, bounds, every = [False] * 3, [True, True, False], [True] * 3
    assert proc.stdout.splitlines()[-1] == str(
        [none, none, none, none, bounds, every])


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


def test_collar_eta_underflow_is_numeric_failure(capsys):
    # eta = 2 tanh(l_gamma) e^{-l_alpha/2} underflows to 0 at l_alpha = 2000
    assert run(["collar", "--l-alpha", "2000", "--l-gamma", "inf"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "underflow" in err


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
    (float("nan"), 2, "config error: h must be a positive mesh size, got nan"),
    (float("inf"), 2, "config error: h must be a positive mesh size, got inf"),
    # a lattice past the int32 indices of the solver, refused before any of
    # its arrays is allocated
    (1e-9, 5, "mesh refusal: h = 1e-09 needs a lattice of about"),
])
def test_oracle_mesh_size_is_checked_for_every_shape(tmp_path, capsys, shape, h,
                                                     code, message):
    cfg = write_config(tmp_path, dict(shape, h=h))
    assert run(["oracle", "--config", cfg]) == code
    assert capsys.readouterr().err.startswith(message)


def test_oracle_lattice_past_memory_is_a_mesh_refusal(tmp_path):
    # 4e8 nodes at h/2, inside the int32 limit; under a 1 GiB address-space
    # limit the lattice's first array cannot be allocated
    import resource

    limit = 2**30
    cfg = write_config(tmp_path, {"shape": "rectangle", "width": 1,
                                  "height": 1, "h": 1e-4})
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypcollar.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hypcollar.cli", "oracle", "--config", cfg],
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


def test_comb_rows_need_a_ratio_below_one(monkeypatch):
    # the vertical segments are a subfamily of the connecting family, so an
    # oracle value below 1/eps fails a row even when it has no predecessor
    from hypcollar import extremal_oracle as eo

    monkeypatch.setattr(eo, "discrete_modulus", lambda dom: eo.ModulusEstimate(
        value=4.0, meshes=(dom.h,), raw_values=(4.0,), error_bar=0.0,
        extrapolated=False, unknowns=(0,), iterations=(0,)))
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
