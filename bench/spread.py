"""Spread of the end-to-end metrics across seeds, scaled and unscaled.

Usage::

    python3 bench/spread.py [--workload NAME ...|all] [--seeds 1-10] [--seconds 40] [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run after
another, and reports for every end-to-end metric the median over the
seeds and its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
same is reported for the unscaled wall seconds each run prints as
``# unscaled`` lines, which shows what the speed scaling of ``speed.py``
changes.  With ``--out`` every run's figures and the spreads are written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median, quantiles

from run import HERE, ROOT, load_json


def spread(values):
    q1, _q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run.py {} seed {} failed ({}):\n{}".format(
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        if line.startswith("# unscaled "):
            _hash, _word, name, value, _unit = line.split()
            raw[name] = float(value)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: m["value"] for n, m in result["metrics"].items()},
        "unscaled": raw,
    }


def summarize(runs, key):
    names = runs[0][key].keys()
    return {
        n: {"median": median(r[key][n] for r in runs),
            "spread": spread([r[key][n] for r in runs])}
        for n in names
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=["all"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] if args.workload == ["all"] else args.workload
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seconds": seconds,
            "seeds": seeds,
            "loadavg_1m_at_start": os.getloadavg()[0],
        },
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in seeds:
            started = time.monotonic()
            run = one_run(name, seed, seconds)
            run["wall_s"] = time.monotonic() - started
            runs.append(run)
            print("# {} seed {}: correct {}, {:.1f}s".format(name, seed, run["correct"], run["wall_s"]),
                  flush=True)
        scaled, raw = summarize(runs, "metrics"), summarize(runs, "unscaled")
        report["workloads"][name] = {"runs": runs, "spread": scaled, "unscaled_spread": raw}
        for n, s in scaled.items():
            bound = bounds.get(n)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  over a third of bound {}".format(bound)
            unscaled_spread = raw[n]["spread"] if n in raw else float("nan")
            print("{} {} median {:.6g} spread {:.4f} (unscaled {:.4f}){}".format(
                name, n, s["median"], s["spread"], unscaled_spread, flag), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["correct"] for w in report["workloads"].values() for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
