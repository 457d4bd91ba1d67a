#!/usr/bin/env python3
"""Record the reference table of the `collar` and `classify` workloads.

    python3 perfbench/record.py [collar] [classify] [oracle]

Runs every operation any seed can draw (the grids in ``workloads.py``)
through ``hypcollar.cli.main`` and writes ``perfbench/reference.json``: the
exit code and bounds of each collar operation, the exit code and verdict of
each classify config, and whether the oracle interval of each collar strip
of the `oracle` workload meets its sandwich.  The checkers compare later runs against this
table, so re-record a section only when a change to the package is meant to
alter its outputs.  Prints the seconds each operation took.
"""

import json
import os
import shutil
import sys
import tempfile

import checks
import run
import workloads

def record_collar():
    table = {}
    for op in workloads.collar_grid():
        rc, out, err, seconds = run.run_op(op["argv"])
        entry = {"exit": rc}
        if rc == 0:
            data = json.loads(out)
            entry.update((k, data[k]) for k in checks.COLLAR_FIELDS if k in data)
        table[op["key"]] = entry
        print("%.4f %s exit=%d %s" % (seconds, op["key"], rc, err.strip()[:60]), flush=True)
    return table


def record_classify():
    table = {}
    tmp = tempfile.mkdtemp()
    try:
        for op in workloads.write_configs(workloads.classify_grid(), tmp):
            rc, out, err, seconds = run.run_op(op["argv"])
            entry = {"exit": rc}
            if rc == 0:
                data = json.loads(out)
                entry.update(kind=data["kind"], criterion=data["criterion"],
                             method=(data["series"] or {}).get("method"))
            table[op["key"]] = entry
            print("%.4f %s exit=%d %s %s" % (seconds, op["family"], rc,
                                            entry.get("kind", err.strip()[:60]), op["key"]),
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return table


def record_oracle():
    """Strips only: the other oracle shapes are checked against closed forms."""
    table = {}
    tmp = tempfile.mkdtemp()
    try:
        ops = [op for op in workloads.generate("oracle", 0) if op["family"] in workloads.STRIPS]
        for op in workloads.write_configs(ops, tmp):
            rc, out, err, seconds = run.run_op(op["argv"])
            status, note = checks.check_oracle(op, rc, json.loads(out) if rc == 0 else None)
            table[op["key"]] = {"exit": rc, "sandwich_met": status == "ok"}
            print("%.4f %s exit=%d %s %s" % (seconds, op["key"], rc, status, note), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return table


def main(argv):
    sections = argv or ["collar", "classify", "oracle"]
    run.import_package()
    table = {}
    if os.path.exists(run.REFERENCE):
        table = run.load_reference()
    for section in sections:
        table[section] = {"collar": record_collar, "classify": record_classify,
                          "oracle": record_oracle}[section]()
        with open(run.REFERENCE, "w") as fh:
            json.dump(table, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
