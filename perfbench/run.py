#!/usr/bin/env python3
"""hypcollar benchmark.

    python3 perfbench/run.py --workload {oracle,collar,classify} --seed N \
        --seconds S --trace {0,1}

One process, one client, closed loop: each operation is a call of
``hypcollar.cli.main(argv)`` in this process, on CLI flags or on config files
that the seeded generator in ``workloads.py`` writes, and the next call
starts only when the previous one has returned.  The interpreter start and
the package import are paid once, in ``setup_s``, measured in fresh
processes before and after the timed loop.  Operations run in whole passes
over the seed's list, so every run measures the same mix: at least three
passes, and more while the next is predicted to end within ``--seconds``.

Host speed.  On a shared 2-core host the processor runs this process up to
1.8 times slower for seconds to minutes at a time, whatever the program
does; process CPU time rises with wall time, so the slowdown is in the
processor, not in waiting.  Two fixed pieces of reference work, one of each
kind the package does (``reference_seconds``), are therefore timed right
before every operation and around every set-up sample.  A sample's host
slowdown is the mean, over the two pieces, of their time then over their
nominal time (``NOMINAL_REFERENCE_S``); an operation's latency is the
median over the passes of its time divided by that slowdown: the time it
takes on a host that runs the reference work in its nominal time.  The
reported times are these host-corrected ones; the raw figures (each
operation's fastest pass, the fastest set-up) and the run's fastest
reference times are printed and kept in the result file beside them.
``ops_per_s`` is the number of operations in a pass over the sum of their
corrected latencies.  Every output is checked after the timed loop
(``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and the same pass with every public function of the package
wrapped (``tracing.py``), checks that both passes print identical outputs,
and prints the per-layer metrics.  The last line of stdout is the JSON
result; a copy with the environment record goes to ``perfbench/out/``.
BLAS threads are pinned to 1 before numpy is imported.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 6
# Nominal seconds of the two pieces of reference work (loop, solver step):
# about their fastest in a `classify` or `collar` run on a 2-core x86-64 VM
# (Python 3.11, numpy 2.4, 2000 MHz).  In an `oracle` run, after the large
# solves, their fastest was 10-25% slower than in the other workloads on the
# same host, so oracle times read lower than its wall times.  Only the ratio
# of the measured reference times to these matters: the times of every run
# are scaled to one fixed speed.
NOMINAL_REFERENCE_S = (1.3e-4, 4.5e-4)
MIN_PASSES = 3
# Latencies are per-operation medians over the passes of a run, so the sample
# count is the length of a pass; the tail percentile of each workload is the
# highest with at least ten operations of a pass beyond it.
TAIL_PCT = {"oracle": 72, "collar": 67, "classify": 94}

cli = None


def import_package():
    """Import hypcollar.cli from this checkout's src/ (never an installed copy)."""
    global cli
    if not os.path.isfile(os.path.join(SRC, "hypcollar", "cli.py")):
        raise SystemExit("perfbench: no src/hypcollar/cli.py under %s" % ROOT)
    sys.path.insert(0, SRC)
    import hypcollar.cli

    if not os.path.abspath(hypcollar.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported hypcollar from %s" % hypcollar.cli.__file__)
    cli = hypcollar.cli
    return cli


def run_op(argv):
    """One operation: (exit code, stdout, stderr, seconds).  Exit code -1 means
    main raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an operation that raises is a failed operation
            rc = -1
            err.write("raised %r" % (exc,))
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


@functools.lru_cache(maxsize=None)
def reference_system(n=40):
    """The 2-D Laplacian on an n x n grid and a right-hand side."""
    import numpy
    import scipy.sparse

    t = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = scipy.sparse.identity(n)
    return (scipy.sparse.kron(eye, t) + scipy.sparse.kron(t, eye)).tocsr(), numpy.ones(n * n)


def reference_seconds(repeat=1):
    """(loop seconds, solver seconds): the fastest of `repeat` timings of two
    fixed pieces of work.  The loop (about 0.13 ms) does float arithmetic,
    calls, list and dict work in the interpreter, as the classifier and the
    bounds do; the solver step (about 0.45 ms) runs 15 scipy CG iterations
    on a 1600-unknown Laplacian, as the oracle does."""
    import scipy.sparse.linalg

    matrix, rhs = reference_system()
    loop = solver = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        acc, xs = 0.0, []
        for i in range(1, 400):
            x = math.log(i + 1.0) * 0.5 + math.sqrt(i)
            xs.append(x)
            acc += x / (1.0 + len(xs))
        acc += sum({k: v for k, v in enumerate(xs[:50])}.values())
        middle = time.perf_counter()
        scipy.sparse.linalg.cg(matrix, rhs, maxiter=15)
        end = time.perf_counter()
        loop, solver = min(loop, middle - start), min(solver, end - middle)
    return loop, solver


def run_passes(ops, seconds, passes=None, tracer=None):
    """Closed loop over whole passes: exactly `passes` of them, or at least
    MIN_PASSES and then more while the next is predicted to end within
    `seconds`.  Each record is (op index, exit code, stdout, stderr, seconds,
    reference seconds timed just before the operation).  Returns (records,
    wall seconds, passes run)."""
    records = []
    done = 0
    start = time.perf_counter()
    while True:
        # the harness's own objects (reference table, records so far) go to
        # the permanent generation, so the collector scans what the package
        # allocates and not what the benchmark keeps
        gc.collect()
        gc.freeze()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(records)
            ref = reference_seconds()
            records.append((i,) + run_op(op["argv"]) + (ref,))
        done += 1
        wall = time.perf_counter() - start
        if passes is not None:
            if done >= passes:
                break
        elif done >= MIN_PASSES and wall * (done + 1) / done > seconds:
            break
    return records, wall, done


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def calibration_bands():
    from hypcollar import calibration

    return {name: getattr(calibration, name) for name in checks.BAND_NAMES}


def setup(workload, seed, run_dir):
    ops = workloads.write_configs(workloads.generate(workload, seed), run_dir)
    return ops, load_reference(), calibration_bands()


def setup_probe(workload, seed):
    """(seconds, reference seconds): the time a fresh interpreter takes to
    import hypcollar.cli and generate the workload, measured inside a child
    process, and the means of the reference times taken just before and just
    after it."""
    before = reference_seconds(repeat=5)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True)
    after = reference_seconds(repeat=5)
    return float(proc.stdout.split()[-1]), tuple(0.5 * (b + a) for b, a in zip(before, after))


def git_commit():
    """The commit of the checkout, or "unknown" outside a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def sloc():
    """Non-blank, non-comment source lines of each layer module."""
    counts = {}
    for layer in tracing.LAYERS:
        with open(os.path.join(SRC, "hypcollar", layer + ".py")) as fh:
            counts[layer] = sum(1 for line in fh
                                if line.strip() and not line.strip().startswith("#"))
    return counts


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "sloc": sloc(),
    }


def check_records(workload, ops, records, reference, bands):
    """Check every record; returns a list of (status, note, data, strict)."""
    return [checks.check(workload, ops[rec[0]], rec[1], rec[2], reference, bands)
            for rec in records]


def quality(workload, ops, records, results):
    """Workload-specific summaries of the outputs (0 where not applicable)."""
    good = [(ops[r[0]], res[2]) for r, res in zip(records, results)
            if res[0] == "ok" and res[2] is not None]
    q = {"result.oracle_relbar_p50": 0.0, "result.bounds_ratio_p50": 0.0,
         "result.exact_frac": 0.0}
    if workload == "oracle" and good:
        q["result.oracle_relbar_p50"] = statistics.median(
            d["error_bar"] / d["modulus"] for _, d in good)
    if workload == "collar":
        ratios = [d["lambda_upper"] / d["lambda_lower"] for op, d in good
                  if op["family"] != "standard"]
        q["result.bounds_ratio_p50"] = statistics.median(ratios) if ratios else 0.0
    if workload == "classify" and good:
        exact = sum(1 for _, d in good
                    if (d.get("series") or {}).get("method") == "bertrand-exact")
        q["result.exact_frac"] = exact / len(good)
    return q


def corrected(samples):
    """Host-corrected time from (seconds, reference seconds) samples: the
    median over the samples of the time divided by the host slowdown at that
    moment, the mean ratio of the reference times to their nominal ones."""
    return statistics.median(
        sec / statistics.fmean(r / n for r, n in zip(refs, NOMINAL_REFERENCE_S))
        for sec, refs in samples)


def summarise(workload, n_ops, records, results):
    """End-to-end metrics from each operation's host-corrected latency."""
    by_op = [[] for _ in range(n_ops)]
    for rec in records:
        by_op[rec[0]].append((rec[4], rec[5]))
    fastest = tuple(map(min, zip(*(rec[5] for rec in records))))
    lat = [corrected(v) for v in by_op]
    raw = [min(sec for sec, _ in v) for v in by_op]
    failed = sum(1 for res in results if res[0] != "ok")
    known = sum(1 for res in results if res[0] == "known-failure")
    tail, beyond = percentile(lat, TAIL_PCT[workload])
    metrics = {
        "ops_per_s": n_ops / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "ok_frac": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops": len(records), "ops_per_pass": n_ops, "fail_frac": failed / len(records),
        "known_failures": known, "tail_percentile": "p%d" % TAIL_PCT[workload],
        "tail_beyond": beyond, "latency_s": lat, "fastest_reference_s": fastest,
        "raw": {"ops_per_s": n_ops / sum(raw), "op_p50_s": statistics.median(raw),
                "op_tail_s": percentile(raw, TAIL_PCT[workload])[0]},
        "raw_latency_s": raw,
    }
    return metrics, notes


def metric_units():
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def traced_metrics(workload, records_u, records_t, results_t, tracer):
    m = tracing.layer_metrics(tracer)
    m.update(tracing.import_metrics(SRC))
    m["cli.nonstrict_json_outputs"] = sum(1 for res in results_t if not res[3])
    sigma_used = sum(1 for res in results_t
                     if res[2] and res[2].get("criterion") == "half-twist-incompleteness")
    calls = m["classifier.sigma.calls"]
    m["classifier.sigma_used_frac"] = sigma_used / calls if calls else 0.0
    split = {"partial-sum": 0.0, "bertrand-exact": 0.0}
    if workload == "classify":
        for rec, res in zip(records_t, results_t):
            method = ((res[2] or {}).get("series") or {}).get("method")
            if method in split:
                split[method] += rec[4]
    m["classifier.partial_sum_op_s"] = split["partial-sum"]
    m["classifier.exact_op_s"] = split["bertrand-exact"]
    for layer, lines in sloc().items():
        m["%s.sloc" % layer] = lines
    # host-corrected operation times, so that a host slowdown during one of
    # the two passes does not read as tracing overhead
    total = lambda records: sum(corrected([(rec[4], rec[5])]) for rec in records)
    m["trace.overhead_frac"] = total(records_t) / total(records_u) - 1.0
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_package()
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="configs-", dir=OUT)
    try:
        ops, reference, bands = setup(args.workload, args.seed, run_dir)
        setup_here = time.perf_counter() - _T0
        if args.setup_probe:
            print(repr(setup_here))
            return 0
        units = metric_units()
        probes = []
        run_op(["collar", "--l-alpha", "1.0", "--standard"])  # warm lazy imports

        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        identical = True
        if args.trace == 0:
            # half of the set-up samples before the timed loop and half after
            # it, so that they do not hang on one moment
            probe = lambda: setup_probe(args.workload, args.seed)
            probes += [probe() for _ in range(SETUP_SAMPLES // 2)]
            records, wall, passes = run_passes(ops, args.seconds)
            probes += [probe() for _ in range(SETUP_SAMPLES - len(probes))]
            results = check_records(args.workload, ops, records, reference, bands)
            metrics, notes = summarise(args.workload, len(ops), records, results)
            setup_s = corrected(probes)
            notes["raw"]["setup_s"] = min(sec for sec, _ in probes)
            metrics = dict(setup_s=setup_s, **metrics)
            wrappers = tracing.installed_wrappers("hypcollar")
            notes["untraced_wrappers"] = wrappers
            extra = quality(args.workload, ops, records, results)
        else:
            records_u, wall_u, _ = run_passes(ops, args.seconds, passes=1)
            tracer = tracing.Tracer()
            tracer.install("hypcollar")
            try:
                records_t, wall_t, _ = run_passes(ops, args.seconds, passes=1, tracer=tracer)
            finally:
                tracer.uninstall()
            wrappers = tracing.installed_wrappers("hypcollar")
            records = records_u + records_t
            results = check_records(args.workload, ops, records, reference, bands)
            identical = [r[:3] for r in records_u] == [r[:3] for r in records_t]
            _, notes = summarise(args.workload, len(ops), records, results)
            wall, passes = wall_u + wall_t, 2
            notes["untraced_wrappers"] = wrappers
            extra = quality(args.workload, ops, records_u, results[:len(records_u)])
            metrics = traced_metrics(args.workload, records_u, records_t,
                                     results[len(records_u):], tracer)
            metrics.update(extra)
            metrics["result.fail_frac"] = notes["fail_frac"]
            tracer.write_spans(os.path.join(OUT, "spans-%s.jsonl" % tag))
            notes["spans"] = len(tracer.spans)
            notes["traced_outputs_identical"] = identical

        failures = [(ops[r[0]]["key"], res[0], res[1])
                    for r, res in zip(records, results) if res[0] != "ok"]
        correct = identical and not wrappers and all(s != "fail" for _, s, _ in failures)
        failed = sum(1 for res in results if res[0] != "ok")
        env = environment()
        notes.update(passes=passes, wall_s=wall)
        report(args, metrics, units, notes, extra, failures, env)
        result = {
            "correct": correct,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
            json.dump(dict(result, notes=notes, failures=failures, environment=env,
                           setup_samples=probes), fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, metrics, units, notes, extra, failures, env):
    print("hypcollar benchmark: workload %s, seed %d, trace %d; one client, closed loop"
          % (args.workload, args.seed, args.trace))
    print("  %d operations in %d pass(es), %.2f s" % (notes["ops"], notes["passes"],
                                                      notes["wall_s"]))
    for name, value in metrics.items():
        line = "  %-42s %.6g %s" % (name, value, units[name])
        if name == "op_p50_s":
            line += "  (n=%d operations, each its host-corrected median over the passes)" % (
                notes["ops_per_pass"])
        elif name == "op_tail_s":
            line += "  (%s, %d samples beyond, n=%d)" % (
                notes["tail_percentile"], notes["tail_beyond"], notes["ops_per_pass"])
        elif name == "setup_s":
            line += "  (host-corrected median of %d fresh-process set-ups)" % SETUP_SAMPLES
        print(line)
    if args.trace == 0:
        print("  uncorrected: %s; fastest reference loop %.4g ms, solver %.4g ms" % (
            (", ".join("%s %.6g" % kv for kv in sorted(notes["raw"].items())),)
            + tuple(1e3 * f for f in notes["fastest_reference_s"])))
    print("  %-42s %.6g ratio  (%d known seed-state failures)" % (
        "fail_frac", notes["fail_frac"], notes["known_failures"]))
    applies = {"oracle": "result.oracle_relbar_p50", "collar": "result.bounds_ratio_p50",
               "classify": "result.exact_frac"}[args.workload]
    for name, value in extra.items():
        shown = "%.6g ratio" % value if name == applies else "n/a on this workload"
        print("  %-42s %s" % (name[len("result."):], shown))
    print("  no layer queues work, so no wait times are reported")
    for key, status, note in failures[:20]:
        print("  %s %s: %s" % (status, key[:80], note))
    print("environment: %s" % json.dumps(env, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
