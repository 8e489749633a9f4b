import collections
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from cansurf import (
    Limits,
    MoveGraph,
    ParseError,
    PartialGraphError,
    SemanticError,
    Surface,
    barycentric_subdivide,
    build,
    default_catalog,
    export_dot,
    export_json,
    generators,
    import_json,
    parse_surface,
    replay,
    vertex_link,
)
from cansurf import moves, movegraph, surface
from cansurf.cli import main
from cansurf.moves import DEFAULT_MOVE_SET, E1, F2, F2P, PINCH, UNPINCH, V0, SphereCatalog


def _assert_same_text(got, expected):
    """Assert that two export texts are equal.  A mismatch names their
    first differing line instead of leaving the diff to pytest, whose
    diff of two long strings can take minutes."""
    if got == expected:
        return
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    n, a, b = next(
        (n, a, b)
        for n, (a, b) in enumerate(itertools.zip_longest(got_lines, expected_lines), 1)
        if a != b
    )
    raise AssertionError("texts differ first at line {}: {!r} != {!r}".format(n, a, b))


def _assert_same_exports(graph, expected):
    """The JSON, DOT and loops exports of graph are those of expected."""
    _assert_same_text(export_json(graph), export_json(expected))
    _assert_same_text(export_dot(graph), export_dot(expected))
    _assert_same_text(generators(graph).to_text(), generators(expected).to_text())


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
    _assert_same_text(export_json(back), text)


def test_export_dot_node_count(tri, link, catalog):
    g = build(link, 12, move_set={V0}, catalog=catalog)
    dot = export_dot(g)
    assert dot.count("[label=\"w=") == len(g.vertices)


def test_worker_determinism(tri, link, catalog):
    g1 = build(link, 8, catalog=catalog, workers=1)
    g2 = build(link, 8, catalog=catalog, workers=4)
    _assert_same_exports(g1, g2)


def test_pool_exports_match_at_one_two_and_three_workers(tri, link, catalog):
    # default/8's largest wave fills every share, and each build merges
    # its vertices in the serial build's order.
    serial = build(link, 8, catalog=catalog)
    assert max(collections.Counter(_bfs_levels(serial).values()).values()) >= 3
    for workers in (2, 3):
        pooled = build(link, 8, catalog=catalog, workers=workers)
        assert pooled.stats["pool_sources"] == _worker_sources(serial, workers) > 0
        assert list(pooled.vertices) == list(serial.vertices)
        _assert_same_exports(pooled, serial)


def test_pool_runs_serially_where_the_platform_cannot_fork(link, catalog, monkeypatch):
    serial = build(link, 8, catalog=catalog)
    monkeypatch.delattr(os, "fork")
    pooled = build(link, 8, catalog=catalog, workers=2)
    assert pooled.stats["pool_sources"] == 0
    _assert_same_exports(pooled, serial)


def test_waves_smaller_than_the_pool_merge_in_frontier_order(tri, catalog, data_dir, monkeypatch):
    # Waves of 1, 2 and 2 sources over four processes leave most shares
    # empty, and an empty share is not sent; the vertices still arrive in
    # the serial order.
    sphere_text = (data_dir.parent / "bench" / "data" / "s3_sphere_w2.surf").read_text()
    sphere = parse_surface(tri, sphere_text)
    serial = build(sphere, 4, move_set={E1, F2P}, catalog=catalog)
    waves = collections.Counter(_bfs_levels(serial).values())
    assert sorted(waves.items()) == [(0, 1), (1, 2), (2, 2)]
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    shares = []
    send = movegraph._send

    def recording_send(file, obj):
        if isinstance(obj, tuple):  # a share from the parent, not a reply
            shares.append(len(obj[0]))
        send(file, obj)

    monkeypatch.setattr(movegraph, "_send", recording_send)
    pooled = build(sphere, 4, move_set={E1, F2P}, catalog=catalog, workers=4)
    assert shares == [1, 1]
    assert pooled.stats["pool_sources"] == _worker_sources(serial, 4) == 2
    assert list(pooled.vertices) == list(serial.vertices)
    _assert_same_text(export_json(pooled), export_json(serial))


def test_pool_exports_match_on_the_bench_closure(tri, catalog, data_dir, monkeypatch):
    # The weight-2 sphere at budget 6: its waves mix sources each process
    # found, so the parent's share is not a prefix of the sorted wave.
    sphere = parse_surface(tri, (data_dir.parent / "bench" / "data" / "s3_sphere_w2.surf").read_text())
    serial = build(sphere, 6, catalog=catalog)
    assert len(serial.vertices) == 349
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for workers in (1, 2, 3):
        pooled = build(sphere, 6, catalog=catalog, workers=workers)
        assert list(pooled.vertices) == list(serial.vertices)
        _assert_same_exports(pooled, serial)


def test_a_worker_parses_only_the_sources_handed_over_to_it(tri, catalog, data_dir,
                                                            monkeypatch, started_workers):
    # The worker reports the texts it parsed for each share in its first
    # stats entry; they must be exactly the sources that were not among
    # its last reply's results, which it still holds as Surfaces.
    sphere = parse_surface(tri, (data_dir.parent / "bench" / "data" / "s3_sphere_w2.surf").read_text())
    parsed = []
    parse, expand = movegraph._parse_canonical, movegraph._expand
    send, recv = movegraph._send, movegraph._recv
    parent = os.getpid()

    def counting_parse(tri, text):
        parsed.append(text)
        return parse(tri, text)

    def reporting(*args):
        if os.getpid() == parent:
            return expand(*args)
        parsed.clear()
        results = list(expand(*args))
        results[0][1]["parsed"] = list(parsed)
        return results

    shares, replies = [], []

    def recording_send(file, obj):
        if isinstance(obj, tuple):
            shares.append(obj[0])
        send(file, obj)

    def recording_recv(file):
        reply = recv(file)
        replies.append(reply)
        return reply

    monkeypatch.setattr(movegraph, "_parse_canonical", counting_parse)
    monkeypatch.setattr(movegraph, "_expand", reporting)
    monkeypatch.setattr(movegraph, "_send", recording_send)
    monkeypatch.setattr(movegraph, "_recv", recording_recv)
    g = build(sphere, 6, catalog=catalog, workers=2)
    assert len(started_workers) == 1 and len(shares) == len(replies) > 3
    held = set()
    total = 0
    for share, reply in zip(shares, replies):
        assert reply[0][1]["parsed"] == [text for text in share if text not in held]
        total += len(reply[0][1]["parsed"])
        held = {r for found, _ in reply for _, _, r in found}
    assert 0 < total <= g.stats["pool_handovers"]
    assert total < g.stats["pool_sources"] / 2


class _MemoSize(Exception):
    pass


def test_worker_starts_from_an_empty_memo(tri, link, catalog, monkeypatch, started_workers):
    # The worker's first share reports the memo it found, as an error the
    # parent raises again; the parent's own memo is not empty.
    parent, expand = os.getpid(), movegraph._expand

    def report(*args):
        if os.getpid() == parent:
            return expand(*args)
        raise _MemoSize(surface._tet_memo.cache_info().currsize)

    monkeypatch.setattr(movegraph, "_expand", report)
    vertex_link(tri, 0).tet_geometry(0)
    assert surface._tet_memo.cache_info().currsize > 0
    with pytest.raises(_MemoSize) as err:
        build(link, 8, catalog=catalog, workers=2)
    assert err.value.args == (0,)
    assert len(started_workers) == 1
    _assert_reaped(started_workers)


def _worker_sources(serial, workers):
    """The sources a pooled build sends to its workers: all but the
    parent's share of each wave, the first ceil(len / n) of n processes,
    so the seed's wave of one stays in the parent."""
    n = max(min(workers, os.cpu_count() or 1), 2)
    waves = collections.Counter(_bfs_levels(serial).values()).values()
    return sum(size - -(-size // n) for size in waves)


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
    surface._tet_memo.cache_clear()
    _assert_same_text(export_json(g), serial)
    assert traced == []


def test_pool_build_keys_new_vertices_by_the_texts_it_received(tri, catalog):
    # The parent parses each new vertex's text and keeps it as the key.
    g = build(vertex_link(tri, 0), 8, catalog=catalog, workers=2)
    assert len(g.vertices) == 126
    assert all(key is surf.to_text() for key, surf in g.vertices.items())


def test_a_pooled_build_holds_only_surfaces(tri, catalog, data_dir, monkeypatch):
    # The parent parses a worker's new vertex as it stores it, so at every
    # edge it adds, each vertex it holds is a Surface.
    sphere = parse_surface(tri, (data_dir.parent / "bench" / "data" / "s3_sphere_w2.surf").read_text())
    add_edge = MoveGraph.add_edge
    calls = []

    def checking(self, *args):
        assert all(isinstance(surf, Surface) for surf in self.vertices.values())
        calls.append(args)
        add_edge(self, *args)

    monkeypatch.setattr(MoveGraph, "add_edge", checking)
    g = build(sphere, 6, catalog=catalog, workers=2)
    assert len(g.vertices) == 349 and len(calls) >= len(g.edges)
    assert g.stats["pool_sources"] > 0


def test_serial_build_passes_surfaces(tri, link, catalog, monkeypatch):
    def no_parse(*args):
        raise AssertionError("the serial build parsed a surface")

    def no_worker(*args, **kwargs):
        raise AssertionError("the serial build started a worker")

    monkeypatch.setattr(movegraph, "parse_surface", no_parse)
    monkeypatch.setattr(os, "fork", no_worker)
    g = build(link, 8, catalog=catalog)
    assert len(g.vertices) == 126
    assert g.stats["pool_sources"] == g.stats["pool_text_bytes"] == g.stats["pool_handovers"] == 0


def test_pool_counters_repeat_and_stay_out_of_the_export(tri, link, catalog):
    serial = build(link, 8, catalog=catalog)
    runs = [build(link, 8, catalog=catalog, workers=2) for _ in range(2)]
    names = ("pool_sources", "pool_text_bytes", "pool_handovers")
    counters = [tuple(g.stats[name] for name in names) for g in runs]
    assert counters[0] == counters[1]
    assert 0 < counters[0][0] < len(serial.vertices) and counters[0][1] > 0
    # The seed's neighbours are all the parent's, and it hands half over.
    assert 0 < counters[0][2] < len(serial.vertices)
    _assert_same_text(export_json(runs[0]), export_json(serial))
    assert "pool_" not in export_json(runs[0])


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


def test_pool_worker_skips_sources_after_the_deadline(tri, link_text, catalog):
    args = (tri, 8, DEFAULT_MOVE_SET, catalog, {}, [link_text])
    assert list(movegraph._expand(*args, {link_text: set()}, time.monotonic() - 1.0)) == []
    [(_, stats, found)] = movegraph._expand(*args, {link_text: set()}, time.monotonic() + 60.0)
    assert found and stats["budget_rejected"] > 0


@pytest.mark.parametrize("stop", ["vertex limit", "time limit", "merge error", "interrupt"])
def test_no_worker_outlives_a_stopped_build(tri, catalog, monkeypatch, started_workers, stop):
    # The build stops in the parent's share of default/10's second wave.
    # A forked worker sleeps through its share of that wave, so a build
    # that waited for it would overrun the bound; the worker reaches the
    # deadline itself in the time-limit case.
    limits = {
        "vertex limit": Limits(max_vertices=100),
        "time limit": Limits(max_seconds=0.3),
    }.get(stop)
    parent, expand = os.getpid(), movegraph._expand

    def sleepy(*args):
        if os.getpid() != parent and len(args[5]) > 1:
            time.sleep(30)
        return expand(*args)

    if stop != "time limit":
        monkeypatch.setattr(movegraph, "_expand", sleepy)
    if stop in ("merge error", "interrupt"):
        error = SemanticError("merge error") if stop == "merge error" else KeyboardInterrupt()
        add_edge = MoveGraph.add_edge

        def failing(self, *args):
            if len(self.edges) >= 100:
                raise error
            add_edge(self, *args)

        monkeypatch.setattr(MoveGraph, "add_edge", failing)
    expected = PartialGraphError if limits else type(error)
    start = time.monotonic()
    with pytest.raises(expected):
        build(vertex_link(tri, 0), 10, catalog=catalog, limits=limits, workers=2)
    assert time.monotonic() - start < 3.0
    assert len(started_workers) == 1
    _assert_reaped(started_workers)


def test_a_failed_worker_start_leaves_no_worker(link, catalog, monkeypatch, started_workers):
    # The second of two workers fails to start: its error is the one
    # raised, and the first worker is ended.
    fork = os.fork

    def failing():
        if started_workers:
            raise OSError("no more processes")
        return fork()

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", failing)
    with pytest.raises(OSError, match="no more processes"):
        build(link, 8, catalog=catalog, workers=3)
    assert len(started_workers) == 1
    _assert_reaped(started_workers)


@pytest.fixture
def started_workers(monkeypatch):
    """The pids of the worker processes builds fork.  Forking one that
    would make more than ``os.cpu_count()`` processes with the parent
    fails before the process runs."""
    started = []
    fork = os.fork

    def counted():
        cap = max(os.cpu_count() - 1, 1)
        if len(started) >= cap:
            raise AssertionError("asked for more than {} worker processes".format(cap))
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return started


def _assert_reaped(pids):
    """No worker is left: the build has already waited for every pid."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_pool_starts_at_most_one_process_per_cpu(link, catalog, started_workers):
    g = build(link, 8, catalog=catalog, workers=5000)
    assert len(started_workers) == max(os.cpu_count() - 1, 1)
    _assert_reaped(started_workers)
    _assert_same_text(export_json(g), export_json(build(link, 8, catalog=catalog)))


def test_cli_records_the_workers_asked_for(data_dir, tmp_path, started_workers):
    manifest = tmp_path / "m.json"
    code = main([
        "graph", str(data_dir / "two_tet_s3.tri"), str(data_dir / "vertex_link.surf"),
        "--budget", "6", "--workers", "5000", "--manifest", str(manifest),
    ])
    assert code == 0
    assert len(started_workers) == max(os.cpu_count() - 1, 1)
    assert json.loads(manifest.read_text())["workers"] == 5000


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


def test_default_move_set_closure_matches_oracle(tri, link, catalog, successors):
    # The parallel-merge BFS and the naive serialized fixed-point
    # iteration must agree on the full default move set too.
    from oracle import oracle_closure

    g = build(link, 8, move_set=DEFAULT_MOVE_SET, catalog=catalog)
    closure = oracle_closure(link.to_text(), successors(tri, 8, DEFAULT_MOVE_SET, catalog))
    assert {s.to_text() for s in g.vertices.values()} == closure
    assert len(closure) == 126


def test_pinch_edges_round_trip(tri, link, catalog):
    g = build(link, 12, move_set={PINCH, UNPINCH}, catalog=catalog)
    assert len(g.vertices) == 9   # seed plus one torus state per corner
    assert len(g.edges) == 8
    kinds = {m.split("@")[0] for _, _, m, _ in g.edges}
    assert kinds == {"PINCH"}


# -- each edge applied once -------------------------------------------------


def _closure_inputs(tri, data_dir):
    """(seed, budget, move set, catalog) of three closures: the bench's
    weight-2 sphere at budget 6, default/8, and the 48-tet vertex link at
    budget 12 under V0, F2', PINCH and UNPINCH."""
    sphere_text = (data_dir.parent / "bench" / "data" / "s3_sphere_w2.surf").read_text()
    sub = barycentric_subdivide(tri)
    return [
        (parse_surface(tri, sphere_text), 6, DEFAULT_MOVE_SET, default_catalog(tri)),
        (vertex_link(tri, 0), 8, DEFAULT_MOVE_SET, default_catalog(tri)),
        (vertex_link(sub, 7), 12, {V0, F2P, PINCH, UNPINCH}, default_catalog(sub)),
    ]


@pytest.fixture(scope="module")
def closure_graphs(tri, data_dir):
    return [
        (build(seed, budget, move_set=move_set, catalog=cat), cat)
        for seed, budget, move_set, cat in _closure_inputs(tri, data_dir)
    ]


def test_inverse_move_gives_back_the_edge(closure_graphs):
    # The premise of skipping known inverses: on every edge, applying
    # either move through the full apply path, result validation
    # included, returns the other end and the other move.
    sizes = []
    for g, cat in closure_graphs:
        for u, v, muv, mvu in g.edges:
            for src, move, dst, back in ((v, mvu, u, muv), (u, muv, v, mvu)):
                result, inverse = moves.apply_with_inverse(
                    g.vertices[src], moves.parse_move(move), cat
                )
                assert result.canonical_key() == dst, move
                assert inverse.to_text() == back, move
        sizes.append(len(g.edges))
    assert sizes == [636, 161, 48]


def test_serial_build_applies_each_edge_once(tri, data_dir, closure_graphs, monkeypatch):
    # A self-loop's two moves both start from its one vertex, so both
    # are applied.
    real = moves.apply_with_inverse
    calls = []

    def counting(surf, move, catalog=None):
        calls.append(move)
        return real(surf, move, catalog)

    monkeypatch.setattr(moves, "apply_with_inverse", counting)
    for (seed, budget, move_set, cat), (expected, _) in zip(
        _closure_inputs(tri, data_dir), closure_graphs
    ):
        calls.clear()
        g = build(seed, budget, move_set=move_set, catalog=cat)
        assert g.edges == expected.edges
        loops = sum(u == v for u, v, _, _ in g.edges)
        assert len(calls) == len(g.edges) + loops


def test_per_kind_counts_cover_what_was_generated(tri, data_dir):
    # On the s3-sphere-b6 inputs: per kind, the moves applied plus those
    # skipped as known are the moves generated, whichever process
    # expanded each vertex; a serial build applies each edge once and
    # each self-loop from both ends; and the counts stay out of the
    # exports, which are those of the serial build.
    seed, budget, move_set, cat = _closure_inputs(tri, data_dir)[0]
    serial, pooled = (
        build(seed, budget, move_set=move_set, catalog=cat, workers=w) for w in (1, 2)
    )

    def generated(g):
        return {kind: g.stats["applied"].get(kind, 0) + g.stats["known"].get(kind, 0)
                for kind in set(g.stats["applied"]) | set(g.stats["known"])}

    assert generated(serial) == generated(pooled) == {E1: 304, F2P: 968}
    loops = sum(u == v for u, v, _, _ in serial.edges)
    assert sum(serial.stats["applied"].values()) == len(serial.edges) + loops == 636
    for export in (export_json, export_dot):
        text = export(pooled)
        _assert_same_text(text, export(serial))
        assert '"applied"' not in text and '"known"' not in text


def test_edges_share_the_vertex_keys(link, catalog, closure_graphs):
    # Every edge endpoint is the key object the graph holds, not a copy
    # of it, in serial builds and in a pooled one.
    graphs = [g for g, _ in closure_graphs] + [build(link, 8, catalog=catalog, workers=2)]
    for g in graphs:
        held = {id(key) for key in g.vertices}
        assert all(id(u) in held and id(v) in held for u, v, _, _ in g.edges)


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


_REPLAY_COUNTING_PARSES = """
import sys
from cansurf import default_catalog, movegraph, parse_surface, parse_triangulation, replay

tri_path, seed_path, loops_path = sys.argv[1:]
tri = parse_triangulation(open(tri_path).read())
seed = parse_surface(tri, open(seed_path).read())
catalog = default_catalog(tri)
parsed = []
parse_move = movegraph.parse_move
movegraph.parse_move = lambda text: parsed.append(text) or parse_move(text)
for line in open(loops_path):
    assert replay(seed, line.split(), catalog).canonical_key() == seed.canonical_key()
print(len(parsed), len(set(parsed)), movegraph._replay_move.cache_info().maxsize)
"""


def test_replay_parses_each_distinct_move_text_once(data_dir, default8_loops, tmp_path):
    # In a fresh process, whose caches start empty, replaying every loop
    # of default/8 parses each distinct move text once, through a bounded
    # cache that holds them all.
    path = tmp_path / "loops.txt"
    path.write_text("".join(" ".join(loop) + "\n" for loop in default8_loops))
    src = os.path.dirname(os.path.dirname(movegraph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY_COUNTING_PARSES, str(data_dir / "two_tet_s3.tri"),
         str(data_dir / "vertex_link.surf"), str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    parses, distinct, bound = map(int, proc.stdout.split())
    texts = {text for loop in default8_loops for text in loop}
    assert parses == distinct == len(texts)
    assert len(texts) <= bound


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
