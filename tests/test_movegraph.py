import time

import pytest

from cansurf import (
    Limits,
    MoveGraph,
    PartialGraphError,
    SemanticError,
    Surface,
    build,
    export_dot,
    export_json,
    generators,
    import_json,
    replay,
    vertex_link,
)
from cansurf import movegraph, surface
from cansurf.moves import DEFAULT_MOVE_SET, E1, F2, F2P, PINCH, UNPINCH, V0


def test_budget_below_seed_rejected(tri, link, catalog):
    with pytest.raises(SemanticError, match="exceeds the budget"):
        build(link, 4, catalog=catalog)


def test_seed_must_be_crudely_normal(tri, link, catalog):
    torus = Surface(tri, link.weights, link.matchings, [((0, 1),), ()])
    with pytest.raises(SemanticError, match="crudely normal"):
        build(torus, 8, catalog=catalog)


def test_empty_move_set_graph(tri, link, catalog):
    g = build(link, 8, move_set=frozenset(), catalog=catalog)
    assert len(g.vertices) == 1
    assert len(g.edges) == 0
    assert g.rank() == 0
    assert generators(g).loops == []


def test_tree_graph_has_no_generators(tri, link, catalog):
    g = build(link, 8, move_set={E1}, catalog=catalog)
    assert g.rank() == 0
    assert generators(g).loops == []


def test_self_loop_contributes_one_generator(tri, link, catalog):
    g = MoveGraph(tri, link.canonical_key(), 8, frozenset())
    g.vertices[link.canonical_key()] = link
    g.add_edge(link.canonical_key(), link.canonical_key(), "E1-@e0[at=0]", "E1-@e0[at=0]")
    gens = generators(g)
    assert gens.rank == 1
    assert len(gens.loops) == 1
    assert len(gens.loops[0]) == 1


def test_budget_soundness(tri, link, catalog):
    g = build(link, 8, catalog=catalog)
    assert all(s.weight() <= 8 for s in g.vertices.values())
    assert g.stats["budget_rejected"] > 0


def test_edge_symmetry_recorded_once(tri, link, catalog):
    g = build(link, 8, move_set={E1}, catalog=catalog)
    # 55 distinct single-insertion results, one edge each.
    assert len(g.vertices) == 56
    assert len(g.edges) == 55
    for u, v, muv, mvu in g.edges:
        assert u <= v
        src, dst = g.vertices[u], g.vertices[v]
        assert replay(src, [muv], catalog).canonical_key() == v
        assert replay(dst, [mvu], catalog).canonical_key() == u


def test_generator_loops_replay(tri, link, catalog):
    g = build(link, 8, catalog=catalog)
    gens = generators(g)
    assert len(gens.loops) == g.rank() == len(g.edges) - len(g.vertices) + 1
    for loop in gens.loops:
        assert replay(link, loop, catalog).canonical_key() == link.canonical_key()


def test_export_json_round_trip(tri, link, catalog):
    g = build(link, 12, move_set={PINCH, UNPINCH}, catalog=catalog)
    text = export_json(g)
    back = import_json(tri, text)
    assert set(back.vertices) == set(g.vertices)
    assert back.edges == g.edges
    assert back.budget == g.budget
    assert export_json(back) == text


def test_export_dot_node_count(tri, link, catalog):
    g = build(link, 12, move_set={V0}, catalog=catalog)
    dot = export_dot(g)
    assert dot.count("[label=\"w=") == len(g.vertices)


def test_worker_determinism(tri, link, catalog):
    g1 = build(link, 8, catalog=catalog, workers=1)
    g2 = build(link, 8, catalog=catalog, workers=4)
    assert export_json(g1) == export_json(g2)
    assert export_dot(g1) == export_dot(g2)
    assert generators(g1).to_text() == generators(g2).to_text()


def test_pool_export_traces_nothing(tri, link, catalog, monkeypatch):
    # Pool vertices come back as text; their classification is read off
    # their annulus lines, so exporting them re-traces no tetrahedron.
    serial = export_json(build(link, 8, catalog=catalog))
    g = build(link, 8, catalog=catalog, workers=2)
    traced = []

    class Counting(surface.TetGeometry):
        def __init__(self, tri, tet, weights, matchings):
            traced.append(tet)
            super().__init__(tri, tet, weights, matchings)

    monkeypatch.setattr(surface, "TetGeometry", Counting)
    surface._TET_MEMO.clear()
    assert export_json(g) == serial
    assert traced == []


def test_serial_build_passes_surfaces(tri, link, catalog, monkeypatch):
    def no_parse(*args):
        raise AssertionError("the serial build parsed a surface")

    monkeypatch.setattr(movegraph, "parse_surface", no_parse)
    monkeypatch.setattr(movegraph, "_WORKER", {})
    g = build(link, 8, catalog=catalog)
    assert len(g.vertices) == 126
    assert movegraph._WORKER == {}


def test_serial_time_limit_overrun_bounded(tri, catalog):
    start = time.monotonic()
    with pytest.raises(PartialGraphError, match="time limit"):
        build(vertex_link(tri, 0), 10, catalog=catalog, limits=Limits(max_seconds=1.0))
    assert time.monotonic() - start < 2.5


def test_pool_time_limit_overrun_bounded(tri, catalog):
    start = time.monotonic()
    with pytest.raises(PartialGraphError, match="time limit"):
        build(vertex_link(tri, 0), 10, catalog=catalog, limits=Limits(max_seconds=1.0),
              workers=2)
    assert time.monotonic() - start < 2.0


def test_vertex_limit_partial(tri, link, catalog):
    with pytest.raises(PartialGraphError) as err:
        build(link, 8, move_set={E1}, catalog=catalog, limits=Limits(max_vertices=3))
    assert err.value.graph.partial
    assert len(err.value.graph.vertices) >= 3
    with pytest.raises(SemanticError, match="partial"):
        generators(err.value.graph)
    doc = export_json(err.value.graph)
    assert '"partial": true' in doc


def test_time_limit_partial(tri, link, catalog):
    with pytest.raises(PartialGraphError):
        build(link, 8, catalog=catalog, limits=Limits(max_seconds=0.0))


def test_replay_reports_failing_step(tri, link, catalog):
    with pytest.raises(SemanticError, match="step 1"):
        replay(link, ["E1+@e1[gap=0,side=0.0,arc=0-5]", "E1-@e1[at=2]"], catalog)


def test_default_move_set_closure_matches_oracle(tri, tri_text, link, link_text, catalog):
    # The parallel-merge BFS and the naive serialized fixed-point
    # iteration must agree on the full default move set too.
    from cansurf.oracle import oracle_closure

    g = build(link, 8, move_set=DEFAULT_MOVE_SET, catalog=catalog)
    closure = oracle_closure(tri_text, link_text, 8, DEFAULT_MOVE_SET, catalog)
    assert {s.to_text() for s in g.vertices.values()} == closure
    assert len(closure) == 126


def test_pinch_edges_round_trip(tri, link, catalog):
    g = build(link, 12, move_set={PINCH, UNPINCH}, catalog=catalog)
    assert len(g.vertices) == 9   # seed plus one torus state per corner
    assert len(g.edges) == 8
    kinds = {m.split("@")[0] for _, _, m, _ in g.edges}
    assert kinds == {"PINCH"}
