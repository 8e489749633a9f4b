import collections
import time

import pytest

from cansurf import (
    Limits,
    MoveGraph,
    ParseError,
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
from cansurf import moves, movegraph, surface
from cansurf.cli import main
from cansurf.moves import DEFAULT_MOVE_SET, E1, F2, F2P, PINCH, UNPINCH, V0, SphereCatalog


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


def test_pool_batches_split_waves_unevenly(tri, link, catalog):
    # default/8's larger waves span several batches, which three workers
    # share unevenly; the exports still match the serial build's.
    serial = build(link, 8, catalog=catalog)
    pooled = build(link, 8, catalog=catalog, workers=3)
    waves = collections.Counter(_bfs_levels(serial).values())
    assert max(waves.values()) > 3 * movegraph._POOL_BATCH
    assert export_json(pooled) == export_json(serial)
    assert export_dot(pooled) == export_dot(serial)
    assert generators(pooled).to_text() == generators(serial).to_text()


def _bfs_levels(graph):
    adj = graph.adjacency()
    level = {graph.seed_key: 0}
    order = [graph.seed_key]
    for key in order:
        for other, _, _ in adj[key]:
            if other not in level:
                level[other] = level[key] + 1
                order.append(other)
    return level


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


def test_pool_worker_skips_sources_after_the_deadline(tri, link_text, catalog, monkeypatch):
    monkeypatch.setattr(movegraph, "_WORKER", {})
    movegraph._worker_init(tri, 8, DEFAULT_MOVE_SET, catalog, time.monotonic() - 1.0)
    assert movegraph._worker_neighbors(link_text, True) == (None, None)
    movegraph._worker_init(tri, 8, DEFAULT_MOVE_SET, catalog, time.monotonic() + 60.0)
    found, stats = movegraph._worker_neighbors(link_text, True)
    assert found and stats["budget_rejected"] > 0


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


# -- the replay memo -------------------------------------------------------


@pytest.fixture(scope="module")
def default8_loops(link, catalog):
    return generators(build(link, 8, catalog=catalog)).loops


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = collections.OrderedDict()
    monkeypatch.setattr(movegraph, "_REPLAY_MEMO", memo)
    return memo


def _walk(seed, loop, catalog):
    """A loop's verdict from moves.apply_with_inverse, step by step: the
    final key, or the failing step's message as replay words it."""
    surf = seed
    for step, text in enumerate(loop):
        try:
            surf, _ = moves.apply_with_inverse(surf, moves.parse_move(text), catalog)
        except SemanticError as exc:
            return "step {} ({}): {}".format(step, text, exc)
    return surf.canonical_key()


def _replay_verdict(seed, loop, catalog):
    try:
        return replay(seed, loop, catalog).canonical_key()
    except SemanticError as exc:
        return str(exc)


def _distinct_pairs(seed, loops, catalog):
    pairs = set()
    for loop in loops:
        surf = seed
        for text in loop:
            pairs.add((surf.canonical_key(), text))
            surf, _ = moves.apply_with_inverse(surf, moves.parse_move(text), catalog)
    return pairs


def _count_applications(monkeypatch):
    applied = collections.Counter()
    real = movegraph.apply_with_inverse

    def counting(surf, move, catalog=None):
        applied[surf.canonical_key(), move.to_text()] += 1
        return real(surf, move, catalog)

    monkeypatch.setattr(movegraph, "apply_with_inverse", counting)
    return applied


def _corrupted_loops(seed, loops, catalog):
    """Loops whose second move, inside a first move that several loops
    share, is replaced by one that does not apply there; plus one loop
    that reaches the same source two steps later, through the first move
    and its inverse, so its rejection carries another step index."""
    first = collections.Counter(loop[0] for loop in loops).most_common(1)[0][0]
    bad = "E1-@e0[at=99]"
    out = [loop[:1] + [bad] + loop[2:] if loop[0] == first else loop for loop in loops]
    _, back = moves.apply_with_inverse(seed, moves.parse_move(first), catalog)
    out.append([first, back.to_text(), first, bad])
    assert sum(bad in loop for loop in out) > 2
    return out


def test_replay_applies_each_distinct_pair_once(link, catalog, default8_loops, fresh_memo, monkeypatch):
    assert len(default8_loops) == 36
    pairs = _distinct_pairs(link, default8_loops, catalog)
    applied = _count_applications(monkeypatch)
    for loop in default8_loops:
        assert replay(link, loop, catalog).canonical_key() == link.canonical_key()
    assert set(applied) == pairs
    assert set(applied.values()) == {1}
    assert sum(map(len, default8_loops)) > len(pairs)


def test_cli_replay_of_a_corrupted_shared_prefix(capsys, data_dir, tmp_path, link, catalog,
                                                 default8_loops, fresh_memo):
    loops = _corrupted_loops(link, default8_loops, catalog)
    path = tmp_path / "loops.txt"
    path.write_text("# corrupted\n" + "".join(" ".join(loop) + "\n" for loop in loops))
    expected = []
    for lineno, loop in enumerate(loops, start=2):
        verdict = _walk(link, loop, catalog)
        if verdict == link.canonical_key():
            expected.append("line {}: ok ({} moves)".format(lineno, len(loop)))
        else:
            expected.append("line {}: fail ({})".format(lineno, verdict))
    assert any("step 3 (E1-@e0[at=99])" in line for line in expected)
    argv = ["replay", str(data_dir / "two_tet_s3.tri"), str(data_dir / "vertex_link.surf"),
            str(path)]
    for _ in range(2):
        assert main(argv) == 3
        assert capsys.readouterr().out.splitlines() == expected


def test_replay_memo_keys_on_catalog_content(link, catalog, fresh_memo):
    pinch = "PINCH@t0[curve=0,sphere=v0,scurve=0]"
    without = SphereCatalog([e for e in catalog if e.sphere_id != "v0"])
    assert replay(link, [pinch], catalog).annuli[0]
    with pytest.raises(SemanticError, match="step 0 .*no catalog sphere 'v0'"):
        replay(link, [pinch], without)
    assert replay(link, [pinch], catalog).annuli[0]
    with pytest.raises(SemanticError, match="no catalog sphere"):
        replay(link, [pinch], without)


def test_replay_bad_token_is_a_parse_error_every_time(link, catalog, default8_loops, fresh_memo):
    for _ in range(2):
        with pytest.raises(ParseError):
            replay(link, [default8_loops[0][0], "bogus"], catalog)
    assert all(text != "bogus" for (_, _, _, text) in fresh_memo)


def test_replay_memo_eviction_keeps_verdicts(tri, link, catalog, default8_loops, fresh_memo,
                                              monkeypatch):
    loops = _corrupted_loops(link, default8_loops, catalog)
    expected = [_walk(link, loop, catalog) for loop in loops]
    monkeypatch.setattr(movegraph, "_REPLAY_MEMO_TET_ENTRIES", 3 * tri.tet_count)
    applied = _count_applications(monkeypatch)
    for _ in range(2):
        assert [_replay_verdict(link, loop, catalog) for loop in loops] == expected
        assert len(fresh_memo) <= 3
    assert max(applied.values()) > 1
