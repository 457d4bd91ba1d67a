#!/usr/bin/env python3
"""Self-tests of the benchmark (not of the package).

    python3 perfbench/selftest.py

Checks that the generators are seeded, that the reference table covers every
draw, that each checker rejects a perturbed output, that the host-speed
correction removes a host slowdown but not a slower operation, that untraced
runs carry no wrapper, and that traced runs repeat their counts exactly and
print the same outputs as untraced ones.
"""

import copy
import json
import math
import os
import shutil
import tempfile
import unittest

import checks
import run
import tracing
import workloads

run.import_package()
REFERENCE = run.load_reference()
BANDS = run.calibration_bands()


def first(ops, **match):
    return next(op for op in ops if all(op.get(k) == v for k, v in match.items()))


class Generators(unittest.TestCase):
    def test_deterministic_per_seed_and_distinct_across_seeds(self):
        for workload in workloads.WORKLOADS:
            a = workloads.generate(workload, 7)
            self.assertEqual(a, workloads.generate(workload, 7), workload)
            self.assertNotEqual(a, workloads.generate(workload, 8), workload)

    def test_reference_table_covers_every_draw(self):
        for seed in range(40):
            for op in workloads.generate("collar", seed):
                self.assertIn(op["key"], REFERENCE["collar"])
            for op in workloads.generate("classify", seed):
                self.assertIn(op["key"], REFERENCE["classify"])

    def test_pass_mix_is_fixed(self):
        for workload in ("collar", "classify"):
            mixes = {tuple(sorted(op["family"] for op in workloads.generate(workload, s)))
                     for s in range(5)}
            self.assertEqual(len(mixes), 1, workload)


class Checkers(unittest.TestCase):
    def assertStatus(self, workload, op, rc, data, want):
        text = json.dumps(data) if data is not None else ""
        status = checks.check(workload, op, rc, text, REFERENCE, BANDS)[0]
        self.assertEqual(status, want, (op.get("key"), data))

    def test_oracle_rejects_a_modulus_off_by_five_percent(self):
        ops = workloads.generate("oracle", 3)
        for family in workloads.ORACLE_SHAPES:
            op = first(ops, family=family)
            if "exact" in op:
                good = op["exact"]
            elif "at_least" in op:
                good = op["at_least"] * 1.2
            else:
                good = math.sqrt(op["sandwich"][0] * op["sandwich"][1])
            out = {"modulus": good, "error_bar": 1e-3 * good, "meshes": [0.1, 0.05]}
            self.assertStatus("oracle", op, 0, out, "ok")
            if "exact" in op:
                bad = good * 1.05
            elif "at_least" in op:
                bad = op["at_least"] * 0.95
            else:
                bad = op["sandwich"][1] * 1.05
            recorded_miss = not REFERENCE["oracle"].get(op["key"], {}).get("sandwich_met", True)
            self.assertStatus("oracle", op, 0, dict(out, modulus=bad),
                              "known-failure" if recorded_miss else "fail")
            self.assertStatus("oracle", op, 3, None, "fail")

    def test_oracle_strip_misses_are_recorded_per_strip(self):
        ops = workloads.generate("oracle", 3)
        misses = [op for op in ops if op["family"] in workloads.STRIPS
                  and not REFERENCE["oracle"][op["key"]]["sandwich_met"]]
        self.assertEqual([op["key"] for op in misses], ["oracle:3:half_collar"])
        met = first(ops, key="oracle:2:half_collar")
        out = {"modulus": met["sandwich"][0] * 0.9, "error_bar": 1e-6, "meshes": [0.1, 0.05]}
        self.assertStatus("oracle", met, 0, out, "fail")
        miss = dict(out, modulus=misses[0]["sandwich"][0] * 0.9)
        self.assertStatus("oracle", misses[0], 0, miss, "known-failure")

    def test_collar_rejects_drift_and_unrecorded_failures(self):
        grid = {op["key"]: op for op in workloads.collar_grid()}
        for prefix in ("half:", "glued:", "std:"):
            key = next(k for k, v in REFERENCE["collar"].items()
                       if k.startswith(prefix) and v["exit"] == 0)
            op, ref = grid[key], REFERENCE["collar"][key]
            out = {k: v for k, v in ref.items() if k != "exit"}
            self.assertStatus("collar", op, 0, out, "ok")
            field = "lambda" if prefix == "std:" else "lambda_lower"
            self.assertStatus("collar", op, 0, dict(out, **{field: out[field] * 1.05}), "fail")
            if prefix != "std:":
                swapped = dict(out, lambda_lower=out["lambda_upper"],
                               lambda_upper=out["lambda_lower"])
                self.assertStatus("collar", op, 0, swapped, "fail")
            self.assertStatus("collar", op, 3, None, "fail")
        key = next(k for k, v in REFERENCE["collar"].items() if v["exit"] == 3)
        self.assertStatus("collar", grid[key], 3, None, "known-failure")
        self.assertStatus("collar", grid[key], 2, None, "fail")

    def test_classify_rejects_a_flipped_kind(self):
        flip = {"Parabolic": "NotParabolic", "NotParabolic": "Parabolic",
                "Unknown": "Parabolic"}
        grid = workloads.classify_grid()
        for op in (next(o for o in grid if o["rule"]), next(o for o in grid if not o["rule"])):
            kind = (op["rule"] or REFERENCE["classify"][op["key"]])["kind"]
            out = {"kind": kind, "reason": (op["rule"] or {}).get("reason")}
            self.assertStatus("classify", op, 0, out, "ok")
            self.assertStatus("classify", op, 0, dict(out, kind=flip[kind]), "fail")

    def test_closed_form_rules_agree_with_the_recorded_table(self):
        for op in workloads.classify_grid():
            if op["rule"]:
                self.assertEqual(op["rule"]["kind"], REFERENCE["classify"][op["key"]]["kind"],
                                 op["key"])


class Tracing(unittest.TestCase):
    COUNTS = ("graph_modulus.quad_evals", "collar_modulus.graph_evals",
              "extremal_oracle.cg_iters", "extremal_oracle.unknowns", "surfaces.sigma_terms")

    def setUp(self):
        self.tmp = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def small_ops(self):
        """A cheap slice of every workload that still reaches every layer."""
        oracle = sorted(workloads.generate("oracle", 1), key=lambda o: o["target_unknowns"])
        classify = workloads.generate("classify", 1)
        slow = [op for op in classify if op["family"] == "flute-half-twist-sigma-loop"][:1]
        collar = [next(op for op in workloads.generate("collar", 1)
                       if op["family"] == family and op["l_alpha"] < 40)
                  for family in ("half", "glued")]
        ops = oracle[:6] + collar + classify[:12] + slow
        return workloads.write_configs(copy.deepcopy(ops), self.tmp)

    def traced(self, ops):
        tracer = tracing.Tracer()
        tracer.install("hypcollar")
        try:
            records, _, _ = run.run_passes(ops, 1, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        return records, tracing.layer_metrics(tracer)

    def test_untraced_runs_install_no_wrapper(self):
        self.assertEqual(tracing.installed_wrappers("hypcollar"), [])
        tracer = tracing.Tracer()
        tracer.install("hypcollar")
        try:
            wrapped = tracing.installed_wrappers("hypcollar")
            self.assertIn("collar_modulus.vertical_modulus", wrapped)
            self.assertIn("cli.classify_exhaustion", wrapped)
            self.assertIn("extremal_oracle.cg", wrapped)
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.installed_wrappers("hypcollar"), [])

    def test_counts_repeat_and_outputs_match_untraced(self):
        ops = self.small_ops()
        plain, _, _ = run.run_passes(ops, 1, passes=1)
        first_records, first = self.traced(ops)
        second_records, second = self.traced(ops)
        for name in self.COUNTS:
            self.assertGreater(first[name], 0, name)
            self.assertEqual(first[name], second[name], name)
        outputs = [r[:3] for r in plain]
        self.assertEqual(outputs, [r[:3] for r in first_records])
        self.assertEqual(outputs, [r[:3] for r in second_records])


class HostCorrection(unittest.TestCase):
    def test_a_slow_host_moment_does_not_move_the_corrected_time(self):
        # the same 2-ms operation, once on a host running at half speed
        nominal = run.NOMINAL_REFERENCE_S
        slow = tuple(2.0 * r for r in nominal)
        samples = [(0.002, nominal), (0.004, slow), (0.002, nominal)]
        self.assertAlmostEqual(run.corrected(samples), 0.002)

    def test_a_slower_operation_shows_in_full(self):
        nominal = run.NOMINAL_REFERENCE_S
        slow = tuple(2.0 * r for r in nominal)
        samples = [(0.0024, nominal), (0.0048, slow), (0.0024, nominal)]
        self.assertAlmostEqual(run.corrected(samples) / 0.002, 1.2)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, tmp, True)
        ops = workloads.write_configs(workloads.generate("classify", 1)[:3], tmp)
        records_u, _, _ = run.run_passes(ops, 1, passes=1)
        tracer = tracing.Tracer()
        tracer.install("hypcollar")
        try:
            records_t, _, _ = run.run_passes(ops, 1, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        results = run.check_records("classify", ops, records_t, REFERENCE, BANDS)
        traced = run.traced_metrics("classify", records_u, records_t, results, tracer)
        traced.update(run.quality("classify", ops, records_t, results))
        traced["result.fail_frac"] = 0.0
        untraced, _ = run.summarise("classify", len(ops), records_u, results)
        untraced["setup_s"] = 1.0
        for key, metrics in (("end_to_end", untraced), ("per_layer", traced)):
            self.assertEqual(sorted(m["name"] for m in spec[key]), sorted(metrics), key)


class ImportTime(unittest.TestCase):
    def test_parser_takes_the_first_cumulative_time(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       120 |        340 |   numpy.core\n"
                "import time:        80 |       2500 | numpy\n"
                "import time:        10 |         10 |     numpy\n")
        parsed = tracing.parse_importtime(text)
        self.assertAlmostEqual(parsed["numpy.core"], 340e-6)
        self.assertAlmostEqual(parsed["numpy"], 2500e-6)

    def test_parser_sums_the_outermost_lines_of_a_lazy_package(self):
        text = ("import time:        50 |         50 |       scipy.ndimage._b\n"
                "import time:        40 |        100 |     scipy.ndimage._a\n"
                "import time:        30 |         30 |     scipy.ndimage.c\n"
                "import time:        20 |        400 |   hypcollar.graph_modulus\n")
        self.assertAlmostEqual(tracing.parse_importtime(text)["scipy.ndimage"], 130e-6)

if __name__ == "__main__":
    unittest.main()
