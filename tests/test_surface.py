import itertools

import pytest

from cansurf import (
    CRUDELY_ALMOST_NORMAL,
    CRUDELY_NORMAL,
    SemanticError,
    Surface,
    barycentric_subdivide,
    build,
    empty_surface,
    enumerate_surfaces,
    noncrossing_matchings,
    parse_surface,
    vertex_link,
)
from cansurf import movegraph, surface
from cansurf.moves import (
    DEFAULT_MOVE_SET, F2P, PINCH, UNPINCH, Move, V0, apply, default_catalog, neighbors,
)
from cansurf.surface import _TET_MEMO, TetGeometry


CATALAN = [1, 1, 2, 5, 14, 42]


def test_vertex_link_classification(link):
    assert link.validate() == CRUDELY_NORMAL
    assert link.weight() == 6
    assert link.cell_counts() == (6, 12, 8, 0)
    assert link.euler_characteristic() == 2
    assert link.genus() == 0
    assert len(link.components()) == 1
    assert link.orientable()


def test_corner_curves_per_tet(link):
    # Each tetrahedron is cut in four corner disks by the vertex link.
    for tet in (0, 1):
        curves = link.curves(tet)
        assert len(curves) == 4
        assert all(len(c) == 3 for c in curves)


def test_empty_surface(tri):
    e = empty_surface(tri)
    assert e.validate() == CRUDELY_NORMAL
    assert e.weight() == 0
    assert e.euler_characteristic() == 0
    assert len(e.components()) == 0
    assert e.genus() == 0


def test_weight_additivity(tri, link):
    two = apply(link, Move(V0, 0, direction=1))
    assert two.weight() == 12
    assert two.validate() == CRUDELY_NORMAL
    assert len(two.components()) == 2


def test_annulus_pairing_valid(tri, link):
    torus = Surface(tri, link.weights, link.matchings, [((0, 1),), ()])
    assert torus.validate() == CRUDELY_ALMOST_NORMAL
    assert torus.euler_characteristic() == 0
    assert torus.genus() == 1
    assert len(torus.components()) == 1
    assert torus.orientable()


def test_multiple_annuli_invalid(tri, link):
    bad = Surface(tri, link.weights, link.matchings, [((0, 1), (2, 3)), ()])
    assert bad.validate() == "invalid: multiple annuli in tet 0"


def test_annulus_separation_invalid(tri, link):
    # Two nested bubbles around the vertex give three concentric corner
    # curves per corner; pairing the innermost with the outermost is
    # separated by the middle one.
    three = apply(apply(link, Move(V0, 0, direction=1)), Move(V0, 0, direction=1))
    geo = three.tet_geometry(0)
    region = geo.corner_region(0)
    at_corner = [c for c, adj in enumerate(geo.curve_adjacent) if region in adj]
    assert len(at_corner) == 1
    hole = at_corner[0]
    # Walk outward: the curve adjacent across the next region out.
    nxt = [r for r in geo.curve_adjacent[hole] if r != region][0]
    ring = [c for c in range(len(geo.curves))
            if c != hole and nxt in geo.curve_adjacent[c]]
    middle = ring[0]
    outer_region = [r for r in geo.curve_adjacent[middle] if r != nxt][0]
    outer = [c for c in range(len(geo.curves))
             if c != middle and outer_region in geo.curve_adjacent[c]][0]
    bad = Surface(tri, three.weights, three.matchings,
                  [((min(hole, outer), max(hole, outer)),), ()])
    assert bad.validate() == "invalid: annulus separation in tet 0"
    good = Surface(tri, three.weights, three.matchings,
                   [((min(hole, middle), max(hole, middle)),), ()])
    assert good.validate() == CRUDELY_ALMOST_NORMAL


def test_crossing_matching_invalid(tri):
    link = vertex_link(tri, 0)
    pairs = list(link.matchings[0])
    # (0,5),(1,2),(3,4) is non-crossing; (0,2),(1,5),(3,4) crosses.
    bad = Surface(tri, link.weights,
                  [((0, 2), (1, 5), (3, 4))] + list(link.matchings[1:]))
    assert bad.validate().startswith("invalid: face 0 arcs")
    assert pairs == [(0, 5), (1, 2), (3, 4)]


def test_unmatched_slots_invalid(tri, link):
    bad = Surface(tri, link.weights, [((0, 5),)] + list(link.matchings[1:]))
    assert "perfect pairing" in bad.validate()


def test_canonical_key_determinism(tri, link):
    again = vertex_link(tri, 0)
    assert again.canonical_key() == link.canonical_key()
    assert empty_surface(tri).canonical_key() != link.canonical_key()


def test_serialization_round_trip(tri, link):
    back = parse_surface(tri, link.to_text())
    assert back == link
    assert back.to_text() == link.to_text()


def test_noncrossing_counts():
    for m in range(6):
        assert sum(1 for _ in noncrossing_matchings(2 * m)) == CATALAN[m]
    assert list(noncrossing_matchings(3)) == []


def test_enumeration_small(tri):
    small = list(enumerate_surfaces(tri, 2))
    texts = {s.to_text() for s in small}
    assert len(texts) == len(small)
    assert empty_surface(tri).to_text() in texts
    for s in small:
        assert s.is_valid()
        pts, arcs, disks, _ = s.cell_counts()
        assert s.euler_characteristic() == pts - arcs + disks


def test_enumeration_invariants(tri):
    # Cell-identity and incidence checks across a full small enumeration.
    for s in enumerate_surfaces(tri, 3):
        pts, arcs, disks, annuli = s.cell_counts()
        assert s.euler_characteristic() == pts - arcs + disks
        # Every boundary point of every face is an endpoint of exactly one
        # arc of that face, so each edge point collects edge-degree ends.
        tally = {}
        for cid in range(len(tri.face_classes)):
            layout = s.face_layout(cid)
            for pair in s.matchings[cid]:
                for slot in pair:
                    pt = layout.point_of_slot(slot)
                    tally[pt] = tally.get(pt, 0) + 1
        for e in range(len(tri.edge_classes)):
            for i in range(s.weights[e]):
                assert tally.get((e, i), 0) == tri.edge_degree(e)
        if s.orientable():
            comps = s.components()
            assert 2 * len(comps) - 2 * s.genus() == s.euler_characteristic()


def test_all_enumerated_surfaces_orientable(tri):
    # No closed non-orientable surface embeds in the 3-sphere, so every
    # valid encoding here must pass the transverse-orientation check;
    # this exercises the side-parity bookkeeping over thousands of
    # encodings, annulus pieces included.
    checked = 0
    for s in enumerate_surfaces(tri, 3):
        assert s.orientable(), s.to_text()
        assert s.euler_characteristic() % 2 == 0
        checked += 1
    assert checked > 50


def test_arcs_bound_two_pieces(tri, link):
    _, arcs = link._cells()
    for data in arcs.values():
        assert len(data["attach"]) == 2


def test_genus_requires_orientable(tri, link):
    # All surfaces here are orientable; the check is that genus() computes
    # through the orientability gate.
    assert link.genus() == 0


def test_invalid_weight_vector(tri):
    bad = Surface(tri, (1, 1), ((), (), (), ()))
    assert bad.validate() == "invalid: weight vector length"


def test_odd_face_points_invalid(tri):
    bad = Surface(tri, (1, 0, 0), ((), (), (), ()))
    assert "odd number of boundary points" in bad.validate() or \
        "perfect pairing" in bad.validate()


# -- the process-wide tet-geometry memo ---------------------------------------


@pytest.fixture(scope="module")
def sub(tri):
    return barycentric_subdivide(tri)


def _geometry_fields(geo):
    return (
        geo.curves,
        geo.node_curve,
        geo.arc_curve,
        geo.curve_adjacent,
        geo.regions,
        [geo.corner_region(c) for c in range(4)],
    )


@pytest.mark.parametrize("bed", ["two_tet_default_8", "sub48_budget_12"])
def test_memoized_geometry_matches_fresh_trace(bed, tri, link, catalog, sub):
    if bed == "two_tet_default_8":
        graph = build(link, 8, catalog=catalog)
    else:
        graph = build(vertex_link(sub, 7), 12, move_set={V0, F2P, PINCH, UNPINCH},
                      catalog=default_catalog(sub))
    bed_tri = graph.tri
    shared = set()
    for surf in graph.vertices.values():
        for tet in range(bed_tri.tet_count):
            geo = surf.tet_geometry(tet)
            shared.add(id(geo))
            edges, faces = bed_tri.tet_local_classes[tet]
            fresh = TetGeometry(bed_tri, tet, tuple(surf.weights[e] for e in edges),
                                tuple(surf.matchings[c] for c in faces))
            assert _geometry_fields(geo) == _geometry_fields(fresh)
    # The memo does share geometry between surfaces, within its bound.
    assert len(shared) < len(graph.vertices) * bed_tri.tet_count
    assert len(_TET_MEMO) <= max(128, 4 * bed_tri.tet_count)


def test_invalid_encoding_reclassified_after_valid_twin(sub):
    seed = vertex_link(sub, 7)
    star_2 = {t for t, _ in sub.vertex_classes[2]}
    tet = next(t for t, _ in sub.vertex_classes[7] if t not in star_2)
    # The seed plus the link of vertex 2: a valid surface that differs from
    # the seed around vertex 2 and agrees with it at ``tet``.
    twin = apply(seed, Move(V0, 2, direction=1))
    edges, faces = sub.tet_local_classes[tet]
    assert twin.weights != seed.weights
    assert [twin.weights[e] for e in edges] == [seed.weights[e] for e in edges]
    assert [twin.matchings[c] for c in faces] == [seed.matchings[c] for c in faces]
    annuli = [()] * sub.tet_count
    annuli[tet] = ((0, 5),)

    def bad():
        return Surface(sub, seed.weights, seed.matchings, annuli)

    _TET_MEMO.clear()
    first = bad().validate()
    assert first == "invalid: annulus pair (0, 5) of tet {} is not two distinct curves".format(tet)
    _TET_MEMO.clear()
    fresh_twin = Surface(sub, twin.weights, twin.matchings)
    assert fresh_twin.validate() == CRUDELY_NORMAL
    again = bad()
    assert again.validate() == first
    assert again.tet_geometry(tet) is fresh_twin.tet_geometry(tet)


def test_tracing_error_is_not_memoized(tri, link):
    unmatched = [((0, 5),)] + list(link.matchings[1:])
    size = len(_TET_MEMO)
    for _ in range(2):
        with pytest.raises(SemanticError, match="exactly two arcs"):
            Surface(tri, link.weights, unmatched).tet_geometry(0)
        assert len(_TET_MEMO) == size
    assert "perfect pairing" in Surface(tri, link.weights, unmatched).validate()
    assert Surface(tri, link.weights, link.matchings).validate() == CRUDELY_NORMAL


def test_worker_task_repeats_its_geometry_work(tri, link, link_text, catalog, monkeypatch):
    # A pool task is a batch of consecutive sources.  The worker clears the
    # memo on a batch's first item only, so a batch traces the same
    # geometry whatever that worker ran before, and its later items reuse
    # what its earlier ones traced.
    traced = []

    class Counting(TetGeometry):
        def __init__(self, tri, tet, weights, matchings):
            traced.append((tet, weights, matchings))
            super().__init__(tri, tet, weights, matchings)

    texts = [s.to_text() for s in sorted(
        (n.surface for n in neighbors(link, 8, DEFAULT_MOVE_SET, catalog)),
        key=Surface.canonical_key,
    )]
    monkeypatch.setattr(surface, "TetGeometry", Counting)
    monkeypatch.setattr(movegraph, "_WORKER", {})
    movegraph._worker_init(tri, 8, DEFAULT_MOVE_SET, catalog, None)

    def run_batch(batch):
        start = len(traced)
        found = [movegraph._worker_neighbors(text, i == 0) for i, text in enumerate(batch)]
        return found, traced[start:]

    batch = texts[:4]
    first, first_traced = run_batch(batch)
    run_batch(texts[4:8])
    run_batch([link_text])
    again, again_traced = run_batch(batch)
    assert first_traced
    assert again == first
    assert again_traced == first_traced
    _, head_alone = run_batch(batch[:1])
    _, second_alone = run_batch(batch[1:2])
    _, head_then_second = run_batch(batch[:2])
    assert head_then_second[:len(head_alone)] == head_alone
    assert len(head_then_second) - len(head_alone) < len(second_alone)


def test_layout_tables_match_slot_arithmetic(sub):
    # The tables a trace reads agree with the per-slot methods moves use.
    for side_w in itertools.product(range(4), repeat=3):
        for cid in range(len(sub.face_classes)):
            layout = surface.FaceLayout(sub, cid, side_w)
            for inc in (0, 1):
                assert layout.slot_nodes[inc] == tuple(
                    (layout.side_tet_edges[layout.side_of_slot(s)[0]][inc],
                     layout.point_of_slot(s)[1])
                    for s in range(layout.n)
                )
            assert layout.class_gaps == tuple(
                tuple(layout.gap_of_class_gap(k, q) for q in range(w + 1))
                for k, w in enumerate(side_w)
            )


@pytest.mark.parametrize("pair", [(0, 6), (3, 9), (-1, 0), (-2, 3)])
def test_out_of_range_slot_is_a_semantic_error(tri, link, pair):
    # Face class 0 of the link has six slots.  (-1, 0) would wrap round
    # to the link's own arc (0, 5) if a slot index were read modulo 6.
    assert link.matchings[0] == ((0, 5), (1, 2), (3, 4))
    arcs = tuple(p for p in link.matchings[0] if p != (0, 5))
    bad = Surface(tri, link.weights, [(pair,) + arcs] + list(link.matchings[1:]))
    for tet, _ in tri.face_classes[0]:
        with pytest.raises(SemanticError, match="names a slot outside the face's 6 slots"):
            bad.tet_geometry(tet)
    assert bad.validate() == "invalid: face 0 matching is not a perfect pairing"
