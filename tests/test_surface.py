import collections
import gc
import itertools
import random
import tracemalloc

import pytest

from cansurf import (
    CRUDELY_ALMOST_NORMAL,
    CRUDELY_NORMAL,
    ParseError,
    SemanticError,
    Surface,
    barycentric_subdivide,
    build,
    empty_surface,
    enumerate_surfaces,
    generators,
    neighbors,
    noncrossing_matchings,
    parse_surface,
    parse_triangulation,
    replay,
    vertex_link,
)
from cansurf import movegraph, moves, surface, topology
from cansurf.moves import F2P, PINCH, UNPINCH, Move, V0, apply, default_catalog
from cansurf.surface import _TET_MEMO_ENTRIES, TetGeometry, _tet_memo

import oracle


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
    at_corner = [c for c in range(geo.curve_count) if region in geo.curve_regions(c)]
    assert len(at_corner) == 1
    hole = at_corner[0]
    # Walk outward: the curve adjacent across the next region out.
    nxt = [r for r in geo.curve_regions(hole) if r != region][0]
    ring = [c for c in range(geo.curve_count)
            if c != hole and nxt in geo.curve_regions(c)]
    middle = ring[0]
    outer_region = [r for r in geo.curve_regions(middle) if r != nxt][0]
    outer = [c for c in range(geo.curve_count)
             if c != middle and outer_region in geo.curve_regions(c)][0]
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


@pytest.mark.parametrize("line, lineno, head", [
    ("edges: 9 9 9", 4, "edges"),
    ("face 02: 0-1", 7, "face 2"),
    ("tet 1: annulus 0 1", 10, "tet 1"),
])
def test_repeated_line_is_a_parse_error(tri, link_text, line, lineno, head):
    # The repeated line comes first; the error names the link's own line.
    with pytest.raises(ParseError) as err:
        parse_surface(tri, line + "\n" + link_text)
    assert str(err.value) == "line {}: repeated '{}:' line".format(lineno, head)


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
    _, arcs = topology.cells(link)
    for data in arcs.values():
        assert len(data["attach"]) == 2


def test_genus_requires_orientable(tri, link):
    assert link.genus() == 0
    # A one-sided Klein bottle in the one-tetrahedron lens space below:
    # connected, crudely normal, chi 0, and without a genus.
    surf = parse_surface(
        parse_triangulation(ONE_TET_LENS_SPACES[0]),
        "edges: 0 1\nface 0: 0-1\nface 1: 0-1\ntet 0: disks\n",
    )
    assert surf.validate() == CRUDELY_NORMAL
    assert len(surf.components()) == 1
    assert surf.euler_characteristic() == 0
    assert not surf.orientable()
    with pytest.raises(SemanticError, match="non-orientable"):
        surf.genus()


# Two one-tetrahedron, one-vertex triangulations of the lens space L(4,1),
# whose first homology is Z/4.
ONE_TET_LENS_SPACES = [
    "tet 0: 0/3201 0/3201 0/2310 0/2310\n",
    "tet 0: 0/1230 0/3012 0/1230 0/3012\n",
]


@pytest.mark.parametrize("text", ONE_TET_LENS_SPACES)
def test_one_sided_surfaces_of_a_lens_space(text):
    # The reference is topology, not the code: with one vertex every edge
    # is a loop and the edges carry the fundamental group, and here a
    # closed surface is two-sided exactly when it meets every loop an even
    # number of times.  (If it does, its Z/2 class is zero, so it
    # separates; if it is two-sided it is orientable and bounds, as H_2 is
    # zero here.)  So it is orientable exactly when all its edge weights
    # are even.
    tri = parse_triangulation(text)
    assert len(tri.vertex_classes) == 1
    one_sided = collections.Counter()
    for s in enumerate_surfaces(tri, 4):
        assert s.orientable() == all(w % 2 == 0 for w in s.weights), s.to_text()
        if s.orientable():
            assert 2 * len(s.components()) - 2 * s.genus() == s.euler_characteristic()
        else:
            with pytest.raises(SemanticError, match="non-orientable"):
                s.genus()
        one_sided[s.weight() <= 3, s.validate(), s.orientable()] += 1
    # Pinned counts, which a per-curve side search also gave: 78 of the
    # 94 encodings up to weight 3 are one-sided, 30 of them normal and 48
    # with an annulus piece, and no encoding of weight 4 is.
    assert one_sided == {
        (True, CRUDELY_NORMAL, False): 30,
        (True, CRUDELY_ALMOST_NORMAL, False): 48,
        (True, CRUDELY_NORMAL, True): 6,
        (True, CRUDELY_ALMOST_NORMAL, True): 10,
        (False, CRUDELY_NORMAL, True): 225,
        (False, CRUDELY_ALMOST_NORMAL, True): 991,
    }


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


def _geometry_fields(geo, weights, matchings):
    """Everything a caller reads of a tet's geometry, given the tet's six
    edge weights and four face matchings: the curve of every point, the
    nodes of every curve, the curve of every arc copy in arc-copy order,
    the two regions beside each curve and the region at each corner."""
    curves = range(geo.curve_count)
    return (
        [geo.point_curve(e, i) for e in range(6) for i in range(weights[e])],
        [list(geo.curve_nodes(c)) for c in curves],
        [(f, pair, curve) for f, pairs in enumerate(matchings)
         for pair, curve in geo.arc_curves(f, pairs).items()],
        [geo.curve_regions(c) for c in curves],
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
            weights = tuple(surf.weights[e] for e in edges)
            matchings = tuple(surf.matchings[c] for c in faces)
            fresh = TetGeometry(bed_tri, tet, weights, matchings)
            assert (_geometry_fields(geo, weights, matchings)
                    == _geometry_fields(fresh, weights, matchings))
    # The memo does share geometry between surfaces, within its bound.
    assert len(shared) < len(graph.vertices) * bed_tri.tet_count
    assert _tet_memo.cache_info().currsize <= _TET_MEMO_ENTRIES


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

    _tet_memo.cache_clear()
    first = bad().validate()
    assert first == "invalid: annulus pair (0, 5) of tet {} is not two distinct curves".format(tet)
    _tet_memo.cache_clear()
    fresh_twin = Surface(sub, twin.weights, twin.matchings)
    assert fresh_twin.validate() == CRUDELY_NORMAL
    again = bad()
    assert again.validate() == first
    assert again.tet_geometry(tet) is fresh_twin.tet_geometry(tet)


def test_tracing_error_is_not_memoized(tri, link):
    unmatched = [((0, 5),)] + list(link.matchings[1:])
    size = _tet_memo.cache_info().currsize
    for _ in range(2):
        with pytest.raises(SemanticError, match="exactly two arcs"):
            Surface(tri, link.weights, unmatched).tet_geometry(0)
        assert _tet_memo.cache_info().currsize == size
    assert "perfect pairing" in Surface(tri, link.weights, unmatched).validate()
    assert Surface(tri, link.weights, link.matchings).validate() == CRUDELY_NORMAL


def test_memo_holds_a_closures_working_set(tri, data_dir, catalog, monkeypatch):
    # A serial build of the weight-2 sphere at budget 6, then a replay of
    # its loops in a shuffled order, each trace every distinct tet state
    # exactly once: the memo holds what either phase keeps coming back to.
    traced = []

    class Counting(TetGeometry):
        __slots__ = ()

        def __init__(self, tri, tet, weights, matchings):
            traced.append((tet, weights, matchings))
            super().__init__(tri, tet, weights, matchings)

    seed = parse_surface(tri, (data_dir.parent / "bench" / "data" / "s3_sphere_w2.surf").read_text())
    monkeypatch.setattr(surface, "TetGeometry", Counting)
    _tet_memo.cache_clear()
    monkeypatch.setattr(movegraph, "_REPLAY_MEMO", collections.OrderedDict())
    graph = build(seed, 6, catalog=catalog)
    loops = generators(graph).loops
    assert len(set(traced)) == len(traced) > 2 * 128
    traced.clear()
    _tet_memo.cache_clear()
    random.Random(0).shuffle(loops)
    for loop in loops:
        assert replay(seed, loop, catalog) == seed
    assert len(set(traced)) == len(traced) > 2 * 128
    assert _tet_memo.cache_info().currsize <= _TET_MEMO_ENTRIES
    _tet_memo.cache_clear()  # drop the Counting instances


# The most one tet-memo entry may free when the memo is cleared, key and
# memo slot included, after a build of the weight-2 sphere's closure on 2
# tets at budget 6 (the benchmark's s3-sphere-b6): 1,053 B measured with
# tracemalloc on CPython 3.11, where each entry held 2,983 B when it kept
# the curves, a node dict and per-face arc maps.  The memo's size times
# this stays within the ceiling its comment states.
MEMO_ENTRY_BYTES = 1_100
MEMO_CEILING_BYTES = 20 << 20


def test_a_memo_entry_stays_small(tri, catalog, data_dir):
    # Every tet state the build looks up is traced into the memo.
    for entry in catalog:
        entry.surface.release_geometry()
    moves._INSERTIONS.clear()
    _tet_memo.cache_clear()
    tracemalloc.start()
    try:
        graph = build(_sphere(tri, data_dir), 6, catalog=catalog)
        # Only the memo holds geometry now.
        for surf in [*graph.vertices.values(), *(entry.surface for entry in catalog)]:
            surf.release_geometry()
        moves._INSERTIONS.clear()
        # A full collection also empties the free lists that keep freed
        # tuples, lists and dicts allocated.
        gc.collect()
        entries = _tet_memo.cache_info().currsize
        held = tracemalloc.get_traced_memory()[0]
        _tet_memo.cache_clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries > 400
    assert freed / entries <= MEMO_ENTRY_BYTES
    assert _TET_MEMO_ENTRIES * MEMO_ENTRY_BYTES <= MEMO_CEILING_BYTES


# The most one entry of a per-row generation table may free when the
# table is cleared, key and cache slot included, after candidate
# generation on every vertex of the weight-2 sphere's closure on 2 tets
# at budget 6 (the benchmark's s3-sphere-b6), which fills 67 entries of
# ``_side_arcs`` and 95 of ``_band_pattern``: 313 B and 279 B measured
# with tracemalloc on CPython 3.11.  Each table's size times this stays
# within the ceiling.
GENERATION_ENTRY_BYTES = 400
GENERATION_CEILING_BYTES = 8 << 20


@pytest.mark.parametrize("name, entries", [("_side_arcs", 67), ("_band_pattern", 95)])
def test_a_generation_table_entry_stays_small(tri, catalog, data_dir, name, entries):
    table = getattr(surface, name)
    graph = build(_sphere(tri, data_dir), 6, catalog=catalog)
    table.cache_clear()
    tracemalloc.start()
    try:
        for key in sorted(graph.vertices):
            stats = {"budget_rejected": 0}
            list(moves._candidate_moves(graph.vertices[key], graph.move_set, catalog, 6, stats))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        assert table.cache_info().currsize == entries
        table.cache_clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed / entries <= GENERATION_ENTRY_BYTES
    assert table.cache_info().maxsize * GENERATION_ENTRY_BYTES <= GENERATION_CEILING_BYTES


def _pairwise_crossing(cid, pairs):
    """``face_crossing`` as a scan of every two arcs, the reference."""
    for p, q in itertools.combinations(pairs, 2):
        if surface.pairs_cross(p, q):
            return "invalid: face {} arcs {} and {} cross".format(cid, p, q)
    return None


def _matchings(slots):
    """Every set of disjoint pairs over these slots, as sorted tuples."""
    if not slots:
        yield ()
        return
    first, rest = slots[0], slots[1:]
    yield from _matchings(rest)
    for k, other in enumerate(rest):
        for tail in _matchings(rest[:k] + rest[k + 1:]):
            yield tuple(sorted(((first, other),) + tail))


def test_face_crossing_matches_the_pairwise_scan():
    # Every partial or perfect matching of up to 10 slots, crossing or
    # not; then every tuple of up to three pairs over 4 slots, with
    # repeated endpoints, reversed and degenerate pairs, and a few
    # malformed rows.
    cases = list(_matchings(tuple(range(10))))
    assert len(cases) == 9496
    ordered = list(itertools.product(range(4), repeat=2))
    cases += [c for k in range(4) for c in itertools.product(ordered, repeat=k)]
    cases += [((0, 1, 2),), ((0, 3), (1, 2, 4)), ((1, 2), [0, 3]), ((0, 2), (1, 3), (4,))]
    crossing = 0
    for pairs in cases:
        try:
            expected = _pairwise_crossing(3, pairs)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                surface.face_crossing(3, pairs)
            continue
        assert surface.face_crossing(3, pairs) == expected, pairs
        crossing += expected is not None
    assert crossing > 5000


def test_layout_tables_match_slot_arithmetic(sub):
    # The tables a trace reads, and the layout's own slot numbering, agree
    # with the oracle's slot decoding.
    # Circular gap g lies between slots g - 1 and g; class gap q lies
    # between class points q - 1 and q, and its end gaps are the side's
    # corner gaps, gap 0 at the corner where the edge class starts.
    for side_w in itertools.product(range(4), repeat=3):
        for cid, ((t, f), _) in enumerate(sub.face_classes):
            layout = surface.FaceLayout(sub.face_sides[cid], side_w)
            n = layout.n
            # The subdivision has no face with one edge class on two sides,
            # so any three side weights are the weights of some encoding.
            edges = [e for e, *_ in layout.sides]
            table = oracle._SlotTable(layout.sides, dict(zip(edges, side_w)))
            assert table.w == list(side_w)
            decoded = [table.decode(s) for s in range(n)]
            assert [layout.point_of_slot(s) for s in range(n)] == [d[1:3] for d in decoded]
            for inc in (0, 1):
                assert layout.slot_nodes[inc] == tuple(
                    ((e_rep, e_oth)[inc], i) for _, _, i, e_rep, e_oth in decoded
                )
            corners = [u for u in range(4) if u != f]
            for k, w in enumerate(side_w):
                gaps = layout.class_gaps[k]
                assert len(gaps) == w + 1
                ends = [layout.corner_gap(k), layout.corner_gap((k + 1) % 3)]
                if sub.vertex_class_end_of_edge(t, layout.sides[k][2], corners[k]) == 1:
                    ends.reverse()
                assert [gaps[0], gaps[w]] == ends
                for q in range(1, w):
                    assert {(gaps[q] - 1) % n, gaps[q]} == {
                        layout.slot_of_point(k, q - 1), layout.slot_of_point(k, q)
                    }


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


# -- interned rows and the per-row caches ------------------------------------


def _chords_cross(x, y):
    """Whether two sorted chords cross: they share no end, and exactly one
    end of y lies strictly inside x."""
    (a, b), (c, d) = x, y
    return len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b)


def _reference_verdict(cid, n, pairs):
    """``validate``'s face checks as uncached code: odd slot count, then a
    perfect pairing of slots 0..n-1, then the first two crossing arcs."""
    if n % 2:
        return "invalid: face {} has an odd number of boundary points".format(cid)
    if sorted(s for p in pairs for s in p) != list(range(n)):
        return "invalid: face {} matching is not a perfect pairing".format(cid)
    for p, q in itertools.combinations(pairs, 2):
        if _chords_cross(p, q):
            return "invalid: face {} arcs {} and {} cross".format(cid, p, q)
    return None


def _reference_reconnection(rest, p, q, r, s):
    """Two arcs joining p, q to r, s that cross neither each other nor
    ``rest``, p-r, q-s tried first."""
    for new in ([(p, r), (q, s)], [(p, s), (q, r)]):
        new = [tuple(sorted(arc)) for arc in new]
        if not any(_chords_cross(x, y) for x in new for y in list(rest) + new):
            return tuple(new)
    return None


def test_row_caches_match_uncached_reference():
    # Every partial or perfect matching of up to 10 slots, crossing or not,
    # at its own slot count, one more (odd) and 10 (partial rows fail the
    # pairing): each cached fact, on its first call and from the cache,
    # against reference code.
    cases = list(_matchings(tuple(range(10))))
    reconnections = 0
    for pairs in cases:
        line = "face 3:" + "".join(" {}-{}".format(a, b) for a, b in pairs)
        for n in {2 * len(pairs), 2 * len(pairs) + 1, 10}:
            expected = _reference_verdict(3, n, pairs)
            assert surface._face_verdict(3, n, pairs) == expected, (n, pairs)
            assert surface._face_verdict(3, n, pairs) == expected, (n, pairs)
        assert surface._face_line(3, pairs) == surface._face_line(3, pairs) == line
        # Face moves reconnect two arcs; E1 reroutes one through two free
        # slots.
        free = [s for s in range(10) if all(s not in p for p in pairs)]
        for alpha, beta in itertools.combinations(pairs, 2):
            rest = tuple(p for p in pairs if p not in (alpha, beta))
            args = (rest, *alpha, *beta)
            assert moves._planar_reconnection(*args) == _reference_reconnection(*args), args
            reconnections += 1
        if pairs and len(free) >= 2:
            args = (pairs[1:], *pairs[0], *free[:2])
            for _ in range(2):
                assert moves._planar_reconnection(*args) == _reference_reconnection(*args), args
    assert reconnections > 10000


def test_equal_rows_are_one_object(tri, link):
    first = Surface(tri, link.weights, [tuple(list(row)) for row in link.matchings])
    # Unsorted pairs, in reverse order, come back as the sorted row.
    again = Surface(tri, link.weights, [tuple((b, a) for a, b in reversed(row))
                                        for row in link.matchings])
    assert again.matchings == first.matchings
    assert all(x is y for x, y in zip(again.matchings, first.matchings))
    assert again == first and hash(again) == hash(first)


def _sphere(tri, data_dir):
    """The weight-2 sphere the benchmark closes at budget 6."""
    return parse_surface(tri, (data_dir.parent / "bench" / "data" / "s3_sphere_w2.surf").read_text())


def test_moves_share_untouched_rows_and_intern_the_rest(tri, catalog, data_dir):
    graph = build(_sphere(tri, data_dir), 6, catalog=catalog)
    source = next(
        surf for surf in graph.vertices.values()
        if any(n.move.kind == F2P for n in neighbors(surf, 6, catalog=catalog))
    )
    face_moves = [n for n in neighbors(source, 6, catalog=catalog) if n.move.kind == F2P]
    for n in face_moves:
        for cid, (row, old) in enumerate(zip(n.surface.matchings, source.matchings)):
            if cid != n.move.location:
                assert row is old
        # The same move applied again gives equal rows as the same objects.
        result = apply(source, n.move, catalog)
        assert all(x is y for x, y in zip(result.matchings, n.surface.matchings))


def test_a_rebuilt_equal_row_stays_out_of_the_footprint(tri, link):
    source = Surface(tri, link.weights, link.matchings)
    assert source.validate() == CRUDELY_NORMAL
    rebuilt = [tuple(list(row)) for row in source.matchings]
    assert not any(x is y for x, y in zip(rebuilt, source.matchings))
    result = Surface(tri, source.weights, rebuilt, source.annuli, source=source)
    assert all(x is y for x, y in zip(result.matchings, source.matchings))
    assert result._footprint == ([], [])
    assert result.validate() == CRUDELY_NORMAL
    assert result.to_text() == source.to_text()


def test_results_keep_their_source_on_an_equal_triangulation(tri_text, monkeypatch):
    # The catalog and the sphere insertions are cached under triangulations
    # that compare equal, so a second build over a separately parsed
    # triangulation builds its PINCH and V0 results on surfaces that hold
    # the first one; only the seed is still validated in full.
    full = []
    validate = Surface._validate

    def counting(surf):
        if surf._footprint is None:
            full.append(surf)
        return validate(surf)

    monkeypatch.setattr(Surface, "_validate", counting)
    beds = [barycentric_subdivide(parse_triangulation(tri_text)) for _ in range(2)]
    assert beds[0] == beds[1] and beds[0] is not beds[1]
    graphs = []
    for bed in beds:
        full.clear()
        seed = vertex_link(bed, 7)
        graphs.append(build(seed, 12, move_set={V0, F2P, PINCH, UNPINCH},
                            catalog=default_catalog(bed)))
        assert full == [seed]
    assert list(graphs[0].vertices) == list(graphs[1].vertices)
    # The catalog of the second build holds spheres over another, equal
    # triangulation.
    assert all(entry.surface.tri is not beds[1] for entry in default_catalog(beds[1]))


def _row_cache_counts():
    return [
        (f.cache_info().hits, f.cache_info().misses)
        for f in (surface._interned, surface._face_line, surface._face_verdict,
                  surface._face_chord_regions, _tet_memo)
    ]


@pytest.mark.parametrize("slot", [1.0, True])
def test_rows_with_non_integer_slots_go_round_the_row_caches(tri, link, slot):
    # The int row equal to the odd one is cached first, so any lookup of
    # the odd row would be answered with it.  The odd row is refused, with
    # or without a source, before any row cache or the tet memo sees it.
    valid = Surface(tri, link.weights, [tuple(list(row)) for row in link.matchings])
    assert valid.validate() == CRUDELY_NORMAL
    valid.to_text()
    assert link.matchings[0] == ((0, 5), (1, 2), (3, 4))
    odd_row = ((0, 5), (slot, 2), (3, 4))
    assert odd_row == valid.matchings[0]
    counts = _row_cache_counts()
    for source in (None, valid):
        with pytest.raises(SemanticError, match="face class 0 matching: .* pairs of integers"):
            Surface(tri, link.weights, [odd_row] * 4, source=source)
    assert _row_cache_counts() == counts


def _replaced(values, k, value):
    if k is None:
        return value
    values = list(values)
    values[k] = value
    return values


# (what is replaced, where, by what, the place the refusal names); where
# is None for the whole vector
_NON_INTEGER = [
    ("weights", 0, 2.5, "edge class 0"),
    ("weights", 1, "2", "edge class 1"),
    ("weights", 2, True, "edge class 2"),
    ("matchings", 0, ((0, 5), (1.0, 2), (3, 4)), "face class 0 matching"),
    ("matchings", 1, ((0, 5), (1, True), (3, 4)), "face class 1 matching"),
    ("matchings", 2, (("0", 5), (1, 2), (3, 4)), "face class 2 matching"),
    ("matchings", 3, ((0, 5), (1, 2), (3,), (4,)), "face class 3 matching"),
    ("matchings", 3, ((0, 5), (1, 2, 3)), "face class 3 matching"),
    ("annuli", 0, ((0.0, 1),), "tet 0 annuli"),
    ("annuli", 1, ((0, True),), "tet 1 annuli"),
    ("annuli", 0, (("0", 1),), "tet 0 annuli"),
    ("annuli", 1, ((0, 1, 2),), "tet 1 annuli"),
    ("annuli", 0, ((0,),), "tet 0 annuli"),
    ("weights", None, None, "weights"),
    ("matchings", None, None, "matchings"),
    ("annuli", None, 5, "annuli"),
]


@pytest.mark.parametrize("field,k,value,place", _NON_INTEGER)
def test_construction_refuses_what_is_not_int_pairs(tri, link, field, k, value, place):
    # Every such input was truncated, built into a surface with a second
    # row representation, or refused with a bare TypeError or ValueError;
    # now the constructor names where it is, with a source or without.
    fields = {"weights": link.weights, "matchings": link.matchings, "annuli": link.annuli}
    fields[field] = _replaced(fields[field], k, value)
    for source in (None, link):
        with pytest.raises(SemanticError, match="^" + place + ": "):
            Surface(tri, **fields, source=source)


def test_rows_and_annuli_given_as_lists_normalize(tri, link):
    # Lists of lists, pairs out of order and pairs in any order make the
    # same surface as the sorted tuples.
    rows = [[list(reversed(pair)) for pair in reversed(row)] for row in link.matchings]
    surf = Surface(tri, list(link.weights), rows, [[], []])
    assert surf == link and surf.matchings == link.matchings and surf.annuli == ((), ())
    assert surf.validate() == CRUDELY_NORMAL


@pytest.mark.parametrize("slot", [1.0, True])
def test_equality_and_hash_follow_the_canonical_text(tri, link, catalog, slot):
    # A row with a 1.0 or True slot equals its int twin by value, but
    # would print another text, so it is refused rather than built as an
    # equal surface with a different key.
    valid = Surface(tri, link.weights, link.matchings)
    odd_rows = (((0, 5), (slot, 2), (3, 4)),) + link.matchings[1:]
    assert odd_rows == valid.matchings
    with pytest.raises(SemanticError, match="face class 0 matching"):
        Surface(tri, link.weights, odd_rows)
    # A result built from a source and the same encoding parsed from its
    # text, which is checked and formatted in full.
    for n in neighbors(link, 8, catalog=catalog):
        parsed = parse_surface(tri, n.surface.to_text())
        assert parsed == n.surface and hash(parsed) == hash(n.surface)
        assert parsed != link


def test_face_moves_key_reconnections_by_the_rows_own_pairs(tri, catalog, data_dir):
    # A move naming its arcs by equal floats is the same move; it must not
    # leave float arcs in the reconnection cache for the int move after it.
    graph = build(_sphere(tri, data_dir), 6, catalog=catalog)
    source, n = next(
        (surf, n) for surf in graph.vertices.values()
        for n in neighbors(surf, 6, catalog=catalog) if n.move.kind == F2P
    )
    floats = n.move._replace(arcs=tuple(tuple(map(float, arc)) for arc in n.move.arcs))
    assert floats == n.move
    moves._planar_reconnection.cache_clear()
    for move in (floats, n.move):
        result = apply(source, move, catalog)
        assert result.validate() == n.surface.validate()
        assert result.to_text() == n.surface.to_text()


def test_arc_curves_read_the_node_table(tri, catalog, data_dir):
    # Every face of every tet state of the weight-2 sphere's closure at
    # budget 6.
    graph = build(_sphere(tri, data_dir), 6, catalog=catalog)
    checked = 0
    for surf in graph.vertices.values():
        for tet in range(tri.tet_count):
            geo = surf.tet_geometry(tet)
            for f, (cid, inc, _) in enumerate(tri.tet_frames[tet][0]):
                nodes = surf.face_layout(cid).slot_nodes[inc]
                pairs = surf.matchings[cid]
                expected = {arc: geo.point_curve(*nodes[arc[0]]) for arc in pairs}
                assert geo.arc_curves(f, pairs) == expected
                for arc in pairs:
                    assert geo.arc_curves(f, [arc]) == {arc: expected[arc]}
                checked += len(pairs)
    assert checked > 349 * 8


def _link_over_every_face(tri, v):
    """vertex_link's weights and rows as built before it visited only the
    face classes at v: a layout and a corner scan for every face class."""
    weights = [0] * len(tri.edge_classes)
    for e, _end in tri.vertex_edge_ends[v]:
        weights[e] += 1
    matchings = []
    for cid, ((t, f), _) in enumerate(tri.face_classes):
        layout = surface.face_layout(tri, weights, cid)
        pairs = []
        for m, u in enumerate([u for u in range(4) if u != f]):
            if tri.vertex_class_of[(t, u)] == v:
                gap = layout.corner_gap(m)
                pairs.append(((gap - 1) % layout.n, gap))
        matchings.append(tuple(sorted(tuple(sorted(p)) for p in pairs)))
    return tuple(weights), tuple(matchings)


def test_vertex_link_visits_only_the_faces_at_its_vertex(tri, sub):
    for bed in (tri, sub):
        for v in range(len(bed.vertex_classes)):
            link = vertex_link(bed, v)
            assert (link.weights, link.matchings) == _link_over_every_face(bed, v)
            assert link.annuli == ((),) * bed.tet_count
            assert link.validate() == CRUDELY_NORMAL
