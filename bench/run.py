"""cansurf benchmark: time to a verified generator set, end to end and per layer.

Usage::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A workload (``bench/workloads.json``) closes a seed surface under a move
set within a weight budget, emits generators with the JSON, DOT and
loops exports, and then, in a second process as ``cansurf replay`` would
be, replays every loop of the written loops file in an order drawn
from ``--seed``.  The
load is closed-loop with one client: each repetition starts after the
previous one has exited, and every process is a fresh interpreter.
Repetitions continue until ``--seconds`` would be exceeded (at least one
runs); every reported time is the median over them.

Every repetition is checked, untimed, against ``bench/references.json``:
exit codes, V, E and rank, the sha256 of each export, and each replayed
loop returning to the seed.  Workloads that share a reference must write
byte-identical exports whatever their worker count.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions (plus, for a pooled workload, untraced
serial builds) and reports the per-layer metrics; their counts must
repeat exactly between traced repetitions, or the run counts a failure.

Times are wall seconds scaled for the machine's speed at the moment
(see ``speed.py``).  The unscaled seconds of every repetition, with the
calibration times and speed factors that scale them, are kept in the
summary, and their medians are printed as ``# unscaled`` comment lines.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A summary with every sample and the machine's particulars goes to
``bench/out/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import speed
from spans import KIND_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
HARD_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("emit_s", "s"),
    ("replay_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics: name -> unit.  Counts, bytes and ratios of counts
# (unit "ratio") must repeat exactly between traced repetitions; times
# ("s") and the run-level ratios ("x") are medians.
PER_LAYER = {
    "triangulation.parse_s": "s",
    "triangulation.subdivide_s": "s",
    "surface.tet_geometry.calls": "count",
    "surface.tet_geometry.s": "s",
    "surface.validate.self_s": "s",
    "surface.parse.calls": "count",
    "surface.parse.s": "s",
    "surface.to_text.calls": "count",
    "surface.to_text.s": "s",
    "surface.constructions": "count",
    "moves.neighbors.calls": "count",
    "moves.neighbors.s": "s",
    "moves.neighbors.self_s": "s",
}
for _k in KIND_NAMES:
    PER_LAYER["moves.apply.calls." + _k] = "count"
    PER_LAYER["moves.apply.not_applicable." + _k] = "count"
    PER_LAYER["moves.apply.s." + _k] = "s"
    PER_LAYER["moves.accepted." + _k] = "count"
    PER_LAYER["moves.accept_ratio." + _k] = "ratio"
PER_LAYER.update({
    "moves.budget_rejected": "count",
    "moves.applies_per_edge": "ratio",
    "movegraph.build.self_s": "s",
    "movegraph.waves": "count",
    "movegraph.pool.tasks": "count",
    "movegraph.pool.payload_bytes": "bytes",
    "movegraph.pool.speedup": "x",
    "movegraph.generators_s": "s",
    "movegraph.export_json_s": "s",
    "movegraph.export_dot_s": "s",
    "movegraph.export_json_bytes": "bytes",
    "movegraph.replay.moves": "count",
    "movegraph.replay_s": "s",
    "trace.overhead_ratio": "x",
})
EXACT_UNITS = ("count", "bytes", "ratio")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message, n=1):
        self.attempted += n
        if not ok:
            self.failed += n
            self.messages.append(message)


# ---------------------------------------------------------------------------
# One process, one repetition


def run_process(spec, rep_dir, deadline):
    """Start ``pipeline.py`` for ``spec`` in a fresh interpreter; returns
    (start time, result or None)."""
    spec_path = os.path.join(rep_dir, "spec-{}.json".format(spec["role"]))
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "pipeline.py"), spec_path],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _out, err = proc.communicate()
        err += "\nkilled after the time limit"
    result_path = os.path.join(rep_dir, "result-{}.json".format(spec["role"]))
    if proc.returncode != 0 or not os.path.isfile(result_path):
        sys.stderr.write("{} process failed ({}):\n{}\n".format(
            spec["role"], proc.returncode, err[-2000:]))
        return started, None
    return started, load_json(result_path)


def run_rep(workload, seed, trace, workers, replay, rep_dir, deadline):
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    spec = {
        "workload": workload, "seed": seed, "trace": trace,
        "workers": workers, "out_dir": rep_dir, "role": "build",
    }
    rep = {"kind": "traced" if trace else ("plain" if replay else "serial"), "replay": None}
    t0, rep["build"] = run_process(spec, rep_dir, deadline)
    if replay and rep["build"] is not None:
        rep["replay_spawn"], rep["replay"] = run_process(dict(spec, role="replay"), rep_dir, deadline)
    wall = time.monotonic() - t0
    rep["build_spawn"] = t0
    rep["wall_s"] = wall
    if rep["build"] is None or (replay and rep["replay"] is None):
        return rep
    # Speed factors per phase, from the calibrations that follow (setup)
    # or bracket it; total_s leaves the calibrations out.
    bm = rep["build"]["marks"]
    cals = [bm["cal_setup"], bm["cal_build"], bm["cal_emit"]]
    rep["speed"] = {
        "setup": [speed.factor(bm["cal_setup"])],
        "build": speed.factor(bm["cal_setup"], bm["cal_build"]),
        "emit": speed.factor(bm["cal_build"], bm["cal_emit"]),
    }
    if replay:
        rm = rep["replay"]["marks"]
        rep["speed"]["setup"].append(speed.factor(rm["cal_setup"]))
        rep["speed"]["replay"] = speed.factor(rm["cal_setup"], rm["cal_replay"])
        cals += [rm["cal_setup"], rm["cal_replay"]]
        rep["speed"]["total"] = speed.REFERENCE_S / median(cals)
    rep["calibration_s"] = cals
    rep["total_s"] = wall - sum(cals)
    return rep


def check_rep(rep, reference, rep_dir, checks, label):
    build = rep["build"]
    checks.check(build is not None, "{}: build process failed".format(label))
    if build is None:
        return
    for key in ("vertices", "edges", "rank"):
        checks.check(
            build[key] == reference[key],
            "{}: {} {} != reference {}".format(label, key, build[key], reference[key]),
        )
    for fmt, filename in (("json", "graph.json"), ("dot", "graph.dot"), ("loops", "loops.txt")):
        digest = sha256_file(os.path.join(rep_dir, filename))
        checks.check(
            digest == reference["sha256"][fmt],
            "{}: {} export sha256 {} != reference".format(label, fmt, digest[:12]),
        )
    if rep["kind"] == "serial":
        return
    replayed = rep["replay"]
    checks.check(replayed is not None, "{}: replay process failed".format(label))
    if replayed is not None:
        checks.check(
            replayed["failures"] == 0,
            "{}: {} of {} replayed loops did not return to the seed".format(
                label, replayed["failures"], replayed["loops"]),
            n=replayed["loops"],
        )


# ---------------------------------------------------------------------------
# Metrics


def unscaled(rep):
    """Wall seconds of one repetition's phases, before speed scaling,
    with the calibration times and speed factors that scale them."""
    bm, rm = rep["build"]["marks"], rep["replay"]["marks"]
    return {
        "setup_s": [bm["setup_end"] - rep["build_spawn"], rm["setup_end"] - rep["replay_spawn"]],
        "build_s": bm["build_end"] - bm["build_start"],
        "emit_s": bm["emit_end"] - bm["emit_start"],
        "replay_s": rm["replay_end"] - rm["replay_start"],
        "total_s": rep["total_s"],
        "wall_s": rep["wall_s"],
        "calibration_s": rep["calibration_s"],
        "speed": rep["speed"],
    }


def end_to_end(rep):
    raw, k = unscaled(rep), rep["speed"]
    return {
        "setup_s": [k["setup"][0] * raw["setup_s"][0], k["setup"][1] * raw["setup_s"][1]],
        "build_s": k["build"] * raw["build_s"],
        "emit_s": k["emit"] * raw["emit_s"],
        "replay_s": k["replay"] * raw["replay_s"],
        "total_s": k["total"] * raw["total_s"],
        "peak_rss_mb": rep["build"]["peak_rss_mb"],
    }


def build_seconds(rep):
    marks = rep["build"]["marks"]
    return rep["speed"]["build"] * (marks["build_end"] - marks["build_start"])


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition (build and replay process)."""
    b, r = rep["build"], rep["replay"]
    S, R, C = b["spans"], r["spans"], b["counters"]
    k = rep["speed"]
    zero = [0, 0, 0, 0]

    def s(ns, phase="build"):
        return k[phase] * ns / 1e9

    def calls(name):
        return S.get(name, zero)[0] + R.get(name, zero)[0]

    def seconds(name, column):
        return s(S.get(name, zero)[column]) + s(R.get(name, zero)[column], "replay")

    out = {
        "triangulation.parse_s": k["setup"][0] * S["triangulation.parse"][1] / 1e9,
        "triangulation.subdivide_s": k["setup"][0] * S["triangulation.subdivide"][1] / 1e9,
        "surface.tet_geometry.calls": calls("surface.tet_geometry"),
        "surface.tet_geometry.s": seconds("surface.tet_geometry", 1),
        "surface.validate.self_s": seconds("surface.validate", 2),
        "surface.parse.calls": calls("surface.parse"),
        "surface.parse.s": seconds("surface.parse", 1),
        "surface.to_text.calls": calls("surface.to_text"),
        "surface.to_text.s": seconds("surface.to_text", 1),
        "surface.constructions": calls("surface.init"),
        "moves.neighbors.calls": S.get("moves.neighbors", zero)[0],
        "moves.neighbors.s": s(S.get("moves.neighbors", zero)[1]),
        "moves.neighbors.self_s": s(S.get("moves.neighbors", zero)[2]),
    }
    applied = accepted = 0
    for kind in KIND_NAMES:
        n, total, _self, not_applicable = S.get("moves.apply." + kind, zero)
        acc = C.get("moves.accepted." + kind, 0)
        applied += n
        accepted += acc
        out["moves.apply.calls." + kind] = n
        out["moves.apply.not_applicable." + kind] = not_applicable
        out["moves.apply.s." + kind] = s(total)
        out["moves.accepted." + kind] = acc
        out["moves.accept_ratio." + kind] = acc / n if n else 0.0
    out.update({
        "moves.budget_rejected": b["budget_rejected"],
        "moves.applies_per_edge": applied / accepted if accepted else 0.0,
        "movegraph.build.self_s": s(S["movegraph.build"][2]),
        "movegraph.waves": b["waves"],
        "movegraph.pool.tasks": C.get("movegraph.pool.tasks", 0),
        "movegraph.pool.payload_bytes": C.get("movegraph.pool.payload_bytes", 0),
        "movegraph.generators_s": s(S["movegraph.generators"][1], "emit"),
        "movegraph.export_json_s": s(S["movegraph.export_json"][1], "emit"),
        "movegraph.export_dot_s": s(S["movegraph.export_dot"][1], "emit"),
        "movegraph.export_json_bytes": b["export_json_bytes"],
        "movegraph.replay.moves": r["moves"],
        "movegraph.replay_s": s(R["movegraph.replay"][1], "replay"),
    })
    return out


def summarize_run(reps, trace, checks):
    """Metrics of a run: medians over repetitions, exact counts."""
    plain = [end_to_end(rep) for rep in reps if rep["kind"] == "plain"]
    samples = {name: [] for name, _unit in END_TO_END}
    for e in plain:
        for name, value in e.items():
            samples[name].extend(value if isinstance(value, list) else [value])
    if not trace:
        units = dict(END_TO_END)
        metrics = {n: {"value": median(v), "unit": units[n]} for n, v in samples.items()}
        return metrics, samples
    traced = [rep for rep in reps if rep["kind"] == "traced"]
    layers = [layer_metrics(rep) for rep in traced]
    exact = [n for n, unit in PER_LAYER.items() if unit in EXACT_UNITS]
    first = {n: layers[0][n] for n in exact}
    for i, other in enumerate(layers[1:], start=2):
        diff = sorted(n for n in exact if other[n] != first[n])
        checks.check(not diff, "traced repetition {} counts differ: {}".format(i, diff[:5]))
    layer_samples = {n: [m[n] for m in layers] for n in layers[0]}
    traced_total = [end_to_end(rep)["total_s"] for rep in traced]
    layer_samples["trace.overhead_ratio"] = [median(traced_total) / median(samples["total_s"])]
    serial = [rep for rep in reps if rep["kind"] == "serial"]
    if serial:
        serial_build = median([build_seconds(rep) for rep in serial])
        speedup = serial_build / median(samples["build_s"])
    else:
        speedup = 1.0
    layer_samples["movegraph.pool.speedup"] = [speedup]
    metrics = {}
    for n, unit in PER_LAYER.items():
        value = first[n] if n in first else median(layer_samples[n])
        metrics[n] = {"value": value, "unit": unit}
    return metrics, layer_samples


# ---------------------------------------------------------------------------


def run_workload(name, workloads, references, seed, seconds, trace):
    workload = workloads[name]
    reference = references[workload["reference"]]
    workers = workload["workers"]
    cycle = ["plain"]
    if trace:
        cycle.append("traced")
        if workers > 1:
            cycle.append("serial")
    meta = {
        "workload": name,
        "definition": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }
    run_dir = os.path.join(OUT, name)
    checks = Checks()
    reps = []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    while True:
        kind = cycle[len(reps) % len(cycle)]
        rep = run_rep(
            workload, seed, trace=(kind == "traced"),
            workers=1 if kind == "serial" else workers,
            replay=(kind != "serial"), rep_dir=os.path.join(run_dir, kind), deadline=deadline,
        )
        check_rep(rep, reference, os.path.join(run_dir, kind), checks,
                  "{} rep {}".format(name, len(reps) + 1))
        if rep["build"] is None or (kind != "serial" and rep["replay"] is None):
            break
        reps.append(rep)
        cycles, partial = divmod(len(reps), len(cycle))
        elapsed = time.monotonic() - start
        if not partial and elapsed + elapsed / cycles > seconds:
            break   # another cycle of the mean length would overrun
    complete = len(reps) >= len(cycle)
    metrics, samples = summarize_run(reps, trace, checks) if complete else ({}, {})
    raw = [unscaled(rep) for rep in reps if rep["kind"] == "plain"]
    raw_median = {
        n: median(x for r in raw for x in (r[n] if isinstance(r[n], list) else [r[n]]))
        for n in ("setup_s", "build_s", "emit_s", "replay_s", "total_s", "wall_s")
    } if raw else {}
    meta["repetitions"] = {k: sum(r["kind"] == k for r in reps) for k in cycle}
    meta["wall_s"] = time.monotonic() - start
    bench = {
        "meta": meta,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "fail_rate": checks.failed / checks.attempted if checks.attempted else 1.0,
        "failures": checks.messages[:50],
        "metrics": metrics,
        "samples": samples,
        "unscaled": {"median": raw_median, "repetitions": raw},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "BENCH_{}{}.json".format(name, "_trace" if trace else ""))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return bench


def print_bench(bench):
    meta = bench["meta"]
    print("# workload {} seed {} trace {}: {} repetitions in {:.1f}s, python {}, nproc {}, "
          "load {:.2f}".format(
              meta["workload"], meta["seed"], meta["trace"], meta["repetitions"],
              meta["wall_s"], meta["python"], meta["nproc"], meta["loadavg_1m_at_start"]))
    for message in bench["failures"]:
        print("# FAIL " + message)
    for n, m in bench["metrics"].items():
        print("{} {:.6g} {}".format(n, m["value"], m["unit"]))
    for n, value in bench["unscaled"]["median"].items():
        print("# unscaled {} {:.6g} s".format(n, value))
    print("fail_rate {:.6g} ratio".format(bench["fail_rate"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cansurf", "__init__.py")):
        sys.stderr.write("run.py: no cansurf sources under {}\n".format(os.path.join(ROOT, "src")))
        return 2
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    references = load_json(os.path.join(HERE, "references.json"))
    if args.workload == "all":
        names = [w["name"] for w in load_json(os.path.join(ROOT, "BENCHMARK.json"))["workloads"]]
    elif args.workload in workloads:
        names = [args.workload]
    else:
        sys.stderr.write("run.py: unknown workload {!r}\n".format(args.workload))
        return 2

    benches = []
    for name in names:
        bench = run_workload(name, workloads, references, args.seed, args.seconds, bool(args.trace))
        print_bench(bench)
        benches.append(bench)
    if len(benches) == 1:
        metrics = benches[0]["metrics"]
    else:
        metrics = {
            "{}/{}".format(b["meta"]["workload"], n): m
            for b in benches for n, m in b["metrics"].items()
        }
    status = 0 if all(b["metrics"] for b in benches) else 1
    print(json.dumps({
        "correct": all(b["correct"] for b in benches),
        "attempted": sum(b["attempted"] for b in benches),
        "failed": sum(b["failed"] for b in benches),
        "metrics": metrics,
    }, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
