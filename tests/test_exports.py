"""The streamed exports against references built the old way.

``write_json``, ``write_dot`` and ``GeneratorSet.write_text`` pass their
exports to a ``write`` callable piece by piece.  The references here
build each text whole: the JSON export is ``json.dumps`` of one document
that holds a dict per vertex and per edge, and the DOT and loops exports
are line joins.  Only the writers' output is compared, so neither side
shares the other's record templates.
"""

import hashlib
import itertools
import json
import tracemalloc

import pytest

from cansurf import (
    DEFAULT_MOVE_SET,
    Limits,
    MoveGraph,
    PartialGraphError,
    build,
    generators,
    write_dot,
    write_json,
)
from cansurf.moves import PINCH, UNPINCH


def reference_json(graph, provenance=None):
    keys = sorted(graph.vertices)
    index = {k: i for i, k in enumerate(keys)}
    doc = {
        "format": "cansurf-movegraph/1",
        "partial": graph.partial,
        "budget": graph.budget,
        "move_set": sorted(graph.move_set),
        "triangulation_sha256": hashlib.sha256(graph.tri.to_text().encode()).hexdigest(),
        "provenance": provenance or {},
        "seed": index[graph.seed_key],
        "vertices": [
            {
                "encoding": graph.vertices[k].to_text(),
                "weight": graph.vertices[k].weight(),
                "classification": graph.vertices[k].validate(),
            }
            for k in keys
        ],
        "edges": [
            {"u": index[u], "v": index[v], "move": muv, "inverse": mvu}
            for u, v, muv, mvu in sorted(graph.edges)
        ],
        "rank": graph.rank(),
        "statistics": {
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "rank": graph.rank(),
            "budget_rejected": graph.stats.get("budget_rejected", 0),
            "pinched_spheres": dict(sorted(graph.stats.get("pinched_spheres", {}).items())),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def reference_dot(graph):
    names = {k: graph.vertices[k].short_hash() for k in sorted(graph.vertices)}
    lines = ["graph movegraph {"]
    for k, name in names.items():
        lines.append('  n{} [label="w={}"];'.format(name, graph.vertices[k].weight()))
    for u, v, muv, _ in sorted(graph.edges):
        lines.append('  n{} -- n{} [label="{}"];'.format(names[u], names[v], muv))
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_loops(gens):
    lines = ["# one generator loop per line; moves apply left to right"]
    for loop in gens.loops:
        lines.append(" ".join(loop) if loop else "#<empty>")
    return "\n".join(lines) + "\n"


def streamed(produce):
    """The pieces ``produce(write)`` writes, checked to be strings, joined."""
    pieces = []
    produce(pieces.append)
    assert all(isinstance(piece, str) for piece in pieces)
    return "".join(pieces)


def first_difference(got, expected):
    """None for equal texts, else (line number, got, expected) at their
    first differing line: pytest's own diff of two long texts can take
    minutes."""
    if got == expected:
        return None
    lines = itertools.zip_longest(got.split("\n"), expected.split("\n"))
    return next((n, a, b) for n, (a, b) in enumerate(lines, 1) if a != b)


@pytest.fixture(scope="module")
def graphs(link, catalog):
    with pytest.raises(PartialGraphError) as err:
        build(link, 8, catalog=catalog, limits=Limits(max_vertices=100))
    lone = MoveGraph(link.tri, link.canonical_key(), 6, DEFAULT_MOVE_SET)
    lone.vertices[link.canonical_key()] = link
    return {
        "closure": build(link, 8, catalog=catalog),
        "partial": err.value.graph,
        "pooled": build(link, 8, catalog=catalog, workers=2),
        "no edges": lone,
        "pinches": build(link, 12, move_set={PINCH, UNPINCH}, catalog=catalog),
    }


PROVENANCES = {
    "none": None,
    "empty": {},
    "nested": {
        "tool": "cansurf été ☃ \U0001f600",
        "quote \"and\" back\\slash\n": {"none": None, "yes": True, "no": False},
        "numbers": [0, -3, 0.1, 1e-300, 2.5e20, []],
        "parameters": {"catalog": ["v0"], "empty": {}, "max_seconds": None},
    },
}


def test_the_cases_cover_what_they_name(graphs):
    assert graphs["partial"].partial
    assert graphs["pooled"].stats["pool_sources"] > 0
    assert not graphs["no edges"].edges
    assert graphs["closure"].stats["pinched_spheres"] == {}
    assert graphs["pinches"].stats["pinched_spheres"]


@pytest.mark.parametrize("provenance", sorted(PROVENANCES))
@pytest.mark.parametrize("case", ["closure", "partial", "pooled", "no edges", "pinches"])
def test_the_json_writer_prints_the_document_json_dumps_prints(graphs, case, provenance):
    graph = graphs[case]
    value = PROVENANCES[provenance]
    expected = reference_json(graph, value)
    assert first_difference(streamed(lambda write: write_json(graph, write, value)), expected) is None
    assert json.loads(expected)["provenance"] == (value or {})


@pytest.mark.parametrize("case", ["closure", "partial", "pooled", "no edges", "pinches"])
def test_the_dot_and_loops_writers_print_the_old_line_joins(graphs, case):
    graph = graphs[case]
    assert first_difference(streamed(lambda write: write_dot(graph, write)), reference_dot(graph)) is None
    if not graph.partial:
        gens = generators(graph)
        assert first_difference(streamed(gens.write_text), reference_loops(gens)) is None


def _peak(produce):
    """tracemalloc's peak while ``produce`` writes into a sink that keeps
    nothing."""
    tracemalloc.start()
    try:
        produce(lambda piece: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_writers_never_hold_their_text(graphs):
    graph = graphs["closure"]
    gens = generators(graph)
    # The references also fill the surfaces' own caches (text and
    # classification), which the writers then read.
    json_text, dot_text, loops_text = reference_json(graph), reference_dot(graph), reference_loops(gens)
    assert _peak(lambda write: write_json(graph, write)) < len(json_text) / 2
    assert _peak(gens.write_text) < len(loops_text) / 2
    # The DOT writer keeps one 12-character name per vertex, which takes
    # most of the space of that vertex's lines, so it is held to the
    # length of its text, which a writer that built the text would need.
    assert _peak(lambda write: write_dot(graph, write)) < len(dot_text)
