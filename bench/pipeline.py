"""One benchmark process: set up a workload, then either build and emit
(role ``build``) or replay loops from a loops file (role ``replay``).

Usage: ``python3 bench/pipeline.py SPEC.json``.  ``bench/run.py`` writes
the spec and starts every such process in a fresh interpreter, because
``surface._face_layout`` (an ``lru_cache``) and ``movegraph._WORKER``
are process-global and carry cost from one phase into the next.

The process reports ``time.monotonic()`` marks at its phase boundaries,
and times the calibration loop of ``speed.py`` between phases; the
parent compares the marks with the moment it started the process, so
``setup_s`` covers interpreter start and imports too.  With
``"trace": true`` it also records spans (see ``spans.py``) and writes
them, with their per-name summary, when it ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from cansurf import (  # noqa: E402
    CRUDELY_NORMAL,
    CansurfError,
    __version__,
    barycentric_subdivide,
    build,
    default_catalog,
    export_dot,
    export_json,
    generators,
    parse_surface,
    parse_triangulation,
    replay,
    vertex_link,
)

import spans  # noqa: E402
from speed import calibrate  # noqa: E402


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload, tracer):
    """Parse, subdivide, build the catalog and validate the seed."""
    tri_text = _read(os.path.join(HERE, workload["triangulation"]))
    with tracer.span("triangulation.parse"):
        tri = parse_triangulation(tri_text)
    with tracer.span("triangulation.subdivide"):
        for _ in range(workload["subdivide"]):
            tri = barycentric_subdivide(tri)
    catalog = default_catalog(tri)
    if "seed_file" in workload:
        seed_text = _read(os.path.join(HERE, workload["seed_file"]))
        seed = parse_surface(tri, seed_text)
    else:
        seed = vertex_link(tri, workload["seed_vertex_link"])
        seed_text = seed.to_text()
    if seed.validate() != CRUDELY_NORMAL:
        raise CansurfError("seed is {}".format(seed.validate()))
    return tri_text, seed_text, tri, catalog, seed


def run_build(spec, workload, tracer, marks, tri_text, seed_text, catalog, seed):
    out = spec["out_dir"]
    move_set = frozenset(workload["moves"])
    marks["build_start"] = time.monotonic()
    with tracer.span("movegraph.build"):
        graph = build(
            seed, workload["budget"], move_set=move_set, catalog=catalog,
            workers=spec["workers"],
        )
    marks["build_end"] = time.monotonic()
    marks["cal_build"] = calibrate()
    marks["emit_start"] = time.monotonic()
    # The provenance `cansurf generators` writes for the same input files.
    provenance = {
        "tool": "cansurf {}".format(__version__),
        "triangulation_file_sha256": _sha256(tri_text),
        "seed_sha256": _sha256(seed_text),
        "parameters": {
            "budget": workload["budget"],
            "move_set": sorted(move_set),
            "subdivide": workload["subdivide"],
            "catalog": [e.sphere_id for e in catalog],
            "max_vertices": None,
            "max_seconds": None,
        },
    }
    # The order of `cansurf generators`: the exports see the state build
    # left behind, and generators the state the exports left.
    with tracer.span("emit"):
        with tracer.span("movegraph.export_json"):
            json_text = export_json(graph, provenance)
            _write(os.path.join(out, "graph.json"), json_text)
        with tracer.span("movegraph.export_dot"):
            _write(os.path.join(out, "graph.dot"), export_dot(graph))
        with tracer.span("movegraph.generators"):
            gens = generators(graph)
        with tracer.span("movegraph.export_loops"):
            _write(os.path.join(out, "loops.txt"), gens.to_text())
    marks["emit_end"] = time.monotonic()
    marks["cal_emit"] = calibrate()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "rank": graph.rank(),
        "budget_rejected": graph.stats["budget_rejected"],
        "waves": _waves(graph),
        "export_json_bytes": len(json_text.encode()),
        "peak_rss_mb": (self_kb + children_kb) / 1024.0,
    }


def _waves(graph):
    """Breadth-first waves `build` ran: the seed's eccentricity plus the
    final wave that found nothing new."""
    depth = {graph.seed_key: 0}
    order = [graph.seed_key]
    adj = graph.adjacency()
    for u in order:
        for v, _m, _i in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                order.append(v)
    return max(depth.values()) + 1


def shuffled_loops(loops, seed):
    """Every loop once, in an order drawn from the benchmark seed, so the
    replay work is the same for every seed."""
    order = list(range(len(loops)))
    random.Random(seed).shuffle(order)
    return [loops[i] for i in order]


def run_replay(spec, workload, tracer, marks, catalog, seed):
    text = _read(os.path.join(spec["out_dir"], "loops.txt"))
    loops = [line.split() for line in text.splitlines() if line.split("#", 1)[0].strip()]
    chosen = shuffled_loops(loops, spec["seed"])
    seed_key = seed.canonical_key()
    failures = 0
    marks["replay_start"] = time.monotonic()
    with tracer.span("movegraph.replay_all"):
        for tokens in chosen:
            try:
                with tracer.span("movegraph.replay"):
                    final = replay(seed, tokens, catalog)
            except CansurfError:
                failures += 1
                continue
            failures += final.canonical_key() != seed_key
    marks["replay_end"] = time.monotonic()
    marks["cal_replay"] = calibrate()
    return {
        "loops": len(chosen),
        "moves": sum(len(t) for t in chosen),
        "failures": failures,
    }


def main(spec_path):
    spec = json.loads(_read(spec_path))
    workload = spec["workload"]
    tracer = spans.TRACER
    child_dir = os.path.join(spec["out_dir"], "workers-" + spec["role"])
    if spec["trace"]:
        spans.install(tracer, child_dir)
    marks = {}
    tri_text, seed_text, _tri, catalog, seed = setup(workload, tracer)
    marks["setup_end"] = time.monotonic()
    marks["cal_setup"] = calibrate()
    if spec["role"] == "build":
        result = run_build(spec, workload, tracer, marks, tri_text, seed_text, catalog, seed)
    else:
        result = run_replay(spec, workload, tracer, marks, catalog, seed)
    result["marks"] = marks
    if spec["trace"]:
        doc = tracer.to_json()
        tracer.write(os.path.join(spec["out_dir"], "spans-{}.json".format(spec["role"])))
        children = sorted(os.listdir(child_dir)) if os.path.isdir(child_dir) else []
        docs = [doc] + [json.loads(_read(os.path.join(child_dir, name))) for name in children]
        result["spans"] = spans.merge_summaries(spans.summarize(d) for d in docs)
        counters = {}
        for d in docs:
            for key, n in d["counters"].items():
                counters[key] = counters.get(key, 0) + n
        result["counters"] = counters
    _write(os.path.join(spec["out_dir"], "result-{}.json".format(spec["role"])), json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
