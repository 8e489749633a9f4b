"""The benchmark's workloads still write the exports it has on record.

``bench/run.py`` checks every repetition against ``bench/references.json``;
this test runs the same builds once, in process, so export drift shows up
in the test suite too.  It only reads ``bench/``.
"""

import hashlib
import json
import pathlib

import pytest

from cansurf import (
    __version__,
    barycentric_subdivide,
    build,
    default_catalog,
    export_dot,
    export_json,
    generators,
    parse_surface,
    parse_triangulation,
    vertex_link,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())
REFERENCES = json.loads((BENCH / "references.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name", ["s3-sphere-b6", "s3-sphere-b6-pool2", "sub48-link-b12", "selftest-default-b8"]
)
def test_benchmark_exports_match_references(name):
    workload = WORKLOADS[name]
    reference = REFERENCES[workload["reference"]]
    tri_text = (BENCH / workload["triangulation"]).read_text()
    tri = parse_triangulation(tri_text)
    for _ in range(workload["subdivide"]):
        tri = barycentric_subdivide(tri)
    catalog = default_catalog(tri)
    if "seed_file" in workload:
        seed_text = (BENCH / workload["seed_file"]).read_text()
        seed = parse_surface(tri, seed_text)
    else:
        seed = vertex_link(tri, workload["seed_vertex_link"])
        seed_text = seed.to_text()
    move_set = frozenset(workload["moves"])
    graph = build(
        seed, workload["budget"], move_set=move_set, catalog=catalog,
        workers=workload["workers"],
    )
    # The provenance `cansurf generators` writes, as the benchmark does.
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
    digests = {
        "json": _sha256(export_json(graph, provenance)),
        "dot": _sha256(export_dot(graph)),
        "loops": _sha256(generators(graph).to_text()),
    }
    assert (len(graph.vertices), len(graph.edges), graph.rank()) == (
        reference["vertices"], reference["edges"], reference["rank"],
    )
    assert digests == reference["sha256"]
