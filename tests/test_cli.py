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


def test_missing_config_file(capsys):
    assert run(["classify", "--config", "/nonexistent/nope.json"]) == 2


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["classify", "--config", str(path)]) == 2


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


def test_classify_and_collar_load_no_scipy(tmp_path):
    cfg = write_config(
        tmp_path,
        {"type": "flute",
         "lengths": {"kind": "log_affine", "a": 4.0, "n0": 1.0},
         "twists": {"kind": "constant", "value": 0.5}},
    )
    script = (
        "import sys\n"
        "from hypcollar import cli\n"
        "assert cli.main(['classify', '--config', sys.argv[1]]) == 0\n"
        "assert cli.main(['collar', '--l-alpha', '4', '--l-gamma', '1']) == 0\n"
        "assert cli.main(['collar', '--l-alpha', '8', '--l-gamma', 'inf',\n"
        "                 '--l-gamma2', 'inf', '--twist', '0.5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(hypcollar.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, cfg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


def test_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "nonsense"]) == 2
