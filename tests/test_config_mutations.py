"""Mutated classify, sweep and oracle configs: whatever is dropped, added or
replaced, `cli.main` exits with a documented code and raises nothing, and a
config error names a key of the config."""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from hypcollar import cli

_HYPS = ["not-pair-of-pants", "uniform-orthogeodesic-distance"]


def _log(a, **more):
    return dict({"kind": "log_affine", "a": a, "n0": 1.0}, **more)


def _const(value):
    return {"kind": "constant", "value": value}


def _linear(slope, intercept):
    return {"kind": "linear", "slope": slope, "intercept": intercept}


def _prefix(values, tail):
    return {"kind": "prefix", "values": values, "tail": tail}


# one valid config per surface type, per sequence kind and per sweep family.
# The only half-twist flute has telescoping lengths, so that no mutation
# reaches the 200k-term sigma run
_CONFIGS = [
    ("classify", {"type": "flute", "lengths": _log(3.0, b=1.0, c=0.5, n1=2.0),
                  "twists": _const(0.25)}),
    ("classify", {"type": "flute", "lengths": _linear(1.0, 0.5),
                  "twists": _linear(0.0, 0.0)}),
    ("classify", {"type": "flute", "twists": _const(0.5), "lengths": _prefix(
        [0.3], {"kind": "alternating",
                "even": {"kind": "log_affine", "log_terms": [[1.0, 1.0], [2.0, 0.0]]},
                "odd": {"kind": "log_affine", "log_terms": [[1.0, 1.0], [2.0, 1.0]]}})}),
    ("classify", {"type": "bi_infinite_flute", "lengths": _log(3.0),
                  "lengths_neg": _linear(1.0, 1.0), "twists": _const(0.5),
                  "twists_neg": _const(0.0), "use_twists": True,
                  "hypotheses_asserted": _HYPS}),
    ("classify", {"type": "loch_ness", "lengths": _log(2.5), "twists": _const(0.25),
                  "beta_bound": 1.0}),
    ("classify", {"type": "ladder", "lengths": _prefix([1.0, 2.0], _log(4.0)),
                  "twists": _linear(0.001, 0.1), "beta_bound": 2.0,
                  "use_twists": True, "hypotheses_asserted": _HYPS}),
    ("classify", {"type": "cantor_tree",
                  "level_lengths": {"kind": "power_decay", "coef": 0.5, "base": 3.0}}),
    ("classify", {"type": "bounded_boundary", "lengths": _linear(1.0, 1.0),
                  "twists": _const(0.1), "count_exponent": 1.0}),
    ("classify", {"type": "cover", "rank": 1, "L": _log(2.0), "tau": _const(0.25)}),
    ("classify", {"type": "cover", "rank": 2, "config": "disjoint-pair",
                  "L": _const(2.0)}),
    ("classify", {"type": "cover", "rank": 2, "config": "intersecting-pair",
                  "eps": _const(0.5), "ell": _linear(1.0, 1.0)}),
    ("classify", {"type": "cover", "rank": 3, "L": _log(1.0, c=1.0)}),
    ("sweep", {"family": "two-parameter", "a": [1.0, 3.0], "b": [1.0, 2.0]}),
    ("sweep", {"family": "scaled", "s": [0.5, 1.0, 2.0]}),
    # one per oracle shape, each small enough that the default mesh, taken
    # when h is dropped (1/128 for the closed-form shapes), solves in well
    # under a second
    ("oracle", {"shape": "rectangle", "width": 0.5, "height": 0.25, "h": 0.0625}),
    ("oracle", {"shape": "annulus", "r1": 0.25, "r2": 0.5, "h": 0.0625}),
    ("oracle", {"shape": "annular_sector", "r1": 0.25, "r2": 0.5, "theta": 1.0,
                "h": 0.0625}),
    ("oracle", {"shape": "comb", "epsilon": 0.45, "h": 0.05}),
    ("oracle", {"shape": "half_collar", "l_alpha": 1.5, "l_gamma": "inf",
                "h": 0.05}),
    ("oracle", {"shape": "glued_collar", "l_alpha": 1.5, "l_gamma": 2.0,
                "l_gamma2": "inf", "twist": 0.25, "h": 0.05}),
]

_REPLACEMENTS = [None, "x", [1.0], {"kind": "constant"}, True,
                 float("nan"), float("inf")]


def _paths(node, path=()):
    """The path (dict keys and list indices) of every value inside node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _mutated(draw):
    """A base config after one to three mutations, each of which drops a
    key, adds a foreign key, or replaces a value at any depth: the command,
    the mutated config and the base config."""
    command, base = draw(st.sampled_from(_CONFIGS))
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(config))
        dicts = [p for p in [()] + paths if isinstance(_at(config, p), dict)]
        action = draw(st.sampled_from(["drop", "add", "replace"]))
        if action == "add":
            _at(config, draw(st.sampled_from(dicts)))["foreign"] = 1.0
        elif action == "drop":
            dicts = [p for p in dicts if _at(config, p)]
            if dicts:
                d = _at(config, draw(st.sampled_from(dicts)))
                del d[draw(st.sampled_from(sorted(d)))]
        elif paths:
            path = draw(st.sampled_from(paths))
            _at(config, path[:-1])[path[-1]] = copy.deepcopy(
                draw(st.sampled_from(_REPLACEMENTS)))
    return command, config, base


def _keys(node):
    """The dict keys at every depth of node."""
    return {path[-1] for path in _paths(node) if isinstance(path[-1], str)}


def _main(command, config, directory):
    """cli.main on the config written as JSON (NaN and Infinity as their
    JSON extensions): the exit code and stderr."""
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@pytest.mark.parametrize("command, config", _CONFIGS,
                         ids=lambda v: v.get("type", v.get("family", v.get("shape")))
                         if isinstance(v, dict) else v)
def test_every_base_config_is_valid(directory, command, config):
    assert _main(command, config, directory) == (0, "")


@settings(max_examples=300, deadline=None)
@given(mutation=_mutated())
def test_a_mutated_config_exits_with_a_documented_code(directory, mutation):
    command, config, base = mutation
    code, err = _main(command, config, directory)
    assert code in (0, 2, 3, 4, 5), (code, err)
    if code == 2:
        assert err.startswith("config error: ")
        # a key of the mutated config, or one that the mutation dropped
        assert any(re.search(r"\b%s\b" % re.escape(key), err)
                   for key in _keys(config) | _keys(base)), err
