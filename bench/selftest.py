"""Self-test of the benchmark harness on the small default/8 input.

Usage: ``python3 bench/selftest.py`` (about half a minute).  Runs the
hidden workload ``selftest-default-b8`` (two-tetrahedron S3, vertex-link
seed, default moves, budget 8: V=126, E=161, rank 36) and asserts that

* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  emitted, with its unit, and the run checks out correct;
* two traced runs report identical counts;
* a corrupted reference digest makes the run report ``fail_rate`` > 0.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run as bench_run
from run import EXACT_UNITS, HERE, ROOT

WORKLOAD = "selftest-default-b8"


def run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD, "--seed", "7", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run.py {} failed ({}):\n{}".format(args, proc.returncode, proc.stderr))
    return lines[:-1], json.loads(lines[-1])


def expect(ok, message, failures):
    print("{} {}".format("ok  " if ok else "FAIL", message))
    if not ok:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    lines, result = run("--seconds", "3", "--trace", "0")
    expect(result["correct"] and result["failed"] == 0, "untraced run is correct", failures)
    for m in spec["end_to_end"]:
        got = result["metrics"].get(m["name"])
        expect(got is not None and got["unit"] == m["unit"],
               "end-to-end {} emitted in {}".format(m["name"], m["unit"]), failures)
        expect(any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines),
               "end-to-end {} printed with its unit".format(m["name"]), failures)

    traced = [run("--seconds", "2", "--trace", "1")[1] for _ in range(2)]
    for m in spec["per_layer"]:
        got = [t["metrics"].get(m["name"]) for t in traced]
        expect(all(g is not None and g["unit"] == m["unit"] for g in got),
               "per-layer {} emitted in {}".format(m["name"], m["unit"]), failures)
        if m["unit"] in EXACT_UNITS and None not in got:
            expect(got[0]["value"] == got[1]["value"],
                   "per-layer {} repeats exactly ({})".format(m["name"], got[0]["value"]), failures)
    expect(all(t["correct"] for t in traced), "traced runs are correct", failures)

    workloads = bench_run.load_json(os.path.join(HERE, "workloads.json"))
    references = bench_run.load_json(os.path.join(HERE, "references.json"))
    references[WORKLOAD]["sha256"]["json"] = "0" * 64
    bad = bench_run.run_workload(WORKLOAD, workloads, references, 7, 1, False)
    expect(not bad["correct"] and bad["failed"] > 0 and bad["fail_rate"] > 0,
           "corrupted reference digest gives fail_rate {}/{} > 0".format(bad["failed"], bad["attempted"]),
           failures)

    print("{} of the self-test checks failed".format(len(failures)) if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
