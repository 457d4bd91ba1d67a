"""Modules loaded on first attribute access: numpy, and the package layers
that only some commands use.

The series classifier works in plain floats on its exact paths, so
`hypcollar classify` and `sweep` need numpy only for the partial-sum
heuristic and the sigma build; the bounds and the oracle load it on their
first computation.  Every module that uses numpy imports it from here.  The
CLI takes `collar_modulus`, `graph_modulus` and `extremal_oracle` from
`lazy_import` too, so that `classify`, `sweep` and `collar --standard` never
run them.
"""

import importlib.util
import sys
import types


def lazy_import(name):
    """The module `name`: the loaded one if it is in sys.modules, else one
    that the stdlib LazyLoader executes on its first attribute access.  Once
    loaded it is a plain module, and attribute access costs nothing extra.
    A submodule is bound on its package, as an import binds it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


def loaded(module):
    """Whether `module` has run (or is running): a lazy module stops being
    one at its first attribute access, and this check makes none."""
    return type(module) is types.ModuleType


numpy = lazy_import("numpy")
