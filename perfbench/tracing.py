"""Span tracer for the hypcollar modules, and the `-X importtime` parser.

The tracer wraps every public function of each package module under every
module attribute that refers to it (``vertical_modulus``, for example, is
also imported into ``collar_modulus`` by name).  Spans (name, module, start,
end, parent, operation id) are kept in memory and written out at the end of
the run.  Counters that would cost too much as spans (integrand and graph
evaluations, CG iterations) are plain integer counters.
"""

import dataclasses
import functools
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

LAYERS = ("cli", "surfaces", "classifier", "hypgeom", "graph_modulus",
          "collar_modulus", "extremal_oracle")
MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.spans = []       # [name, module, start, end, parent, op_id]
        self.stack = []
        self.op_id = None
        self.counts = Counter()
        self.evals = {"quad": 0, "graph": 0}
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, name, module):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, module, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def _wrap(self, module, name, fn):
        tracer = self
        full = "%s.%s" % (module, name)
        post = _POST.get(full)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if full == "graph_modulus.adaptive_simpson":
                args = (tracer._counted(args[0], "quad"),) + args[1:]
            elif full == "surfaces.sigma_sequence":
                tracer.counts["surfaces.sigma_terms"] += (
                    args[1] if len(args) > 1 else kwargs["n_max"])
            tracer._open(full, module)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if (module == "extremal_oracle" and type(exc).__name__ == "ResolutionError"
                        and not tracer._inside_parent("extremal_oracle")):
                    tracer.counts["extremal_oracle.refusals"] += 1
                raise
            finally:
                tracer._close()
            return post(tracer, result) if post else result

        setattr(wrapper, MARK, True)
        return wrapper

    def _inside_parent(self, module):
        return any(self.spans[i][1] == module for i in self.stack[:-1])

    def _counted(self, fn, kind):
        evals = self.evals

        def counted(x):
            evals[kind] += 1
            return fn(x)

        return counted

    def _wrap_cg(self, cg):
        tracer = self

        @functools.wraps(cg)
        def wrapper(A, b, *args, callback=None, **kwargs):
            iters = 0

            def cb(xk):
                nonlocal iters
                iters += 1
                if callback is not None:
                    callback(xk)

            tracer._open("extremal_oracle.cg", "scipy")
            try:
                return cg(A, b, *args, callback=cb, **kwargs)
            finally:
                tracer._close()
                tracer.counts["extremal_oracle.solves"] += 1
                tracer.counts["extremal_oracle.unknowns"] += len(b)
                tracer.counts["extremal_oracle.cg_iters"] += iters

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = {name: sys.modules["%s.%s" % (package, name)] for name in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[obj] = self._wrap(layer, name, obj)
        eo = modules["extremal_oracle"]
        wrapped[eo.cg] = self._wrap_cg(eo.cg)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                try:
                    replacement = wrapped.get(obj)
                except TypeError:  # unhashable attribute
                    continue
                if replacement is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, replacement)

    def uninstall(self):
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches = []

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        """Per-span duration and self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, module, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[0], s[1], s[3] - s[2], s[3] - s[2] - c) for s, c in zip(self.spans, child)]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, module, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "module": module, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def _count_graphs(tracer, pair):
    return dataclasses.replace(pair, f=tracer._counted(pair.f, "graph"),
                               g=tracer._counted(pair.g, "graph"))


_POST = {
    "collar_modulus.%s" % name: _count_graphs
    for name in ("nonstandard_half_collar_graphs", "half_collar_envelope",
                 "glued_collar_graphs", "glued_collar_envelope")
}


def installed_wrappers(package):
    """Names of package attributes that are tracer wrappers (should be none
    outside a traced pass)."""
    found = []
    for layer in LAYERS:
        mod = sys.modules.get("%s.%s" % (package, layer))
        for name, obj in vars(mod or object()).items():
            if getattr(obj, MARK, False):
                found.append("%s.%s" % (layer, name))
    return found


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass."""
    calls = Counter()
    total = Counter()
    self_s = Counter()
    for name, module, dur, own in tracer.self_times():
        calls[name] += 1
        calls[module] += 1
        total[name] += dur
        self_s[module] += own
    c = tracer.counts
    return {
        "cli.calls": calls["cli.main"],
        "cli.self_s": self_s["cli"],
        "surfaces.sigma_sequence.calls": calls["surfaces.sigma_sequence"],
        "surfaces.sigma_terms": c["surfaces.sigma_terms"],
        "surfaces.sigma_sequence_s": total["surfaces.sigma_sequence"],
        "surfaces.validate_lengths_s": total["surfaces.validate_lengths"],
        "surfaces.is_concave_s": total["surfaces.is_concave"],
        "classifier.classify_exhaustion.calls": calls["classifier.classify_exhaustion"],
        "classifier.self_s": self_s["classifier"],
        "classifier.classify_series.calls": calls["classifier.classify_series"],
        "classifier.sigma.calls": calls["classifier.classify_sigma_series"],
        "classifier.sigma_s": total["classifier.classify_sigma_series"],
        "hypgeom.calls": calls["hypgeom"],
        "hypgeom.self_s": self_s["hypgeom"],
        "graph_modulus.sandwich_bounds.calls": calls["graph_modulus.sandwich_bounds"],
        "graph_modulus.vertical_modulus_s": total["graph_modulus.vertical_modulus"],
        "graph_modulus.area_between_s": total["graph_modulus.area_between"],
        "graph_modulus.rectangle_deviation_s": total["graph_modulus.rectangle_deviation"],
        "graph_modulus.self_s": self_s["graph_modulus"],
        "graph_modulus.adaptive_simpson.calls": calls["graph_modulus.adaptive_simpson"],
        "graph_modulus.quad_evals": tracer.evals["quad"],
        "collar_modulus.calls": calls["collar_modulus"],
        "collar_modulus.self_s": self_s["collar_modulus"],
        "collar_modulus.graph_evals": tracer.evals["graph"],
        "extremal_oracle.discrete_modulus.calls": calls["extremal_oracle.discrete_modulus"],
        "extremal_oracle.solves": c["extremal_oracle.solves"],
        "extremal_oracle.unknowns": c["extremal_oracle.unknowns"],
        "extremal_oracle.cg_iters": c["extremal_oracle.cg_iters"],
        "extremal_oracle.cg_s": total["extremal_oracle.cg"],
        "extremal_oracle.self_s": self_s["extremal_oracle"],
        "extremal_oracle.strip_domain_s": total["extremal_oracle.strip_domain"],
        "extremal_oracle.refusals": c["extremal_oracle.refusals"],
    }


IMPORT_TARGETS = {
    "import.total_s": "hypcollar.cli",
    "import.numpy_s": "numpy",
    "import.scipy.sparse.linalg_s": "scipy.sparse.linalg",
    "import.scipy.ndimage_s": "scipy.ndimage",
}

_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def parse_importtime(text):
    """Cumulative seconds per module from `python -X importtime` stderr.

    A module appears only where it is first imported, and its cumulative
    time includes everything it imported.  A package that was loaded through
    a lazy attribute (``from scipy import ndimage``) may have no line of its
    own; it then gets the summed cumulative times of its outermost
    submodule lines.
    """
    lines = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            lines.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    cumulative = {}
    for _, name, seconds in lines:
        cumulative.setdefault(name, seconds)
    for target in IMPORT_TARGETS.values():
        if target not in cumulative:
            subs = [(depth, seconds) for depth, name, seconds in lines
                    if name.startswith(target + ".")]
            if subs:
                top = min(depth for depth, _ in subs)
                cumulative[target] = sum(seconds for depth, seconds in subs if depth == top)
    return cumulative


def import_metrics(src_dir, runs=3):
    """Median cumulative import times of `import hypcollar.cli`, each run in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    samples = {name: [] for name in IMPORT_TARGETS}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypcollar.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        parsed = parse_importtime(proc.stderr)
        for name, module in IMPORT_TARGETS.items():
            samples[name].append(parsed.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}
