import collections
import contextlib
import gc
import hashlib
import itertools
import os
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cansurf import (
    CRUDELY_ALMOST_NORMAL,
    CRUDELY_NORMAL,
    Limits,
    NotApplicableError,
    ParseError,
    PartialGraphError,
    SemanticError,
    Surface,
    barycentric_subdivide,
    build,
    default_catalog,
    enumerate_surfaces,
    export_json,
    parse_surface,
    vertex_link,
)
from cansurf import moves, surface
from cansurf.moves import (
    ALL_KINDS,
    DEFAULT_MOVE_SET,
    E1,
    F2,
    F2P,
    PINCH,
    UNPINCH,
    V0,
    Move,
    _candidate_moves,
    apply,
    apply_with_inverse,
    extend_catalog,
    neighbors,
    parse_move,
)
from cansurf.surface import _tet_memo

import oracle


def invariants(s):
    return (
        s.euler_characteristic(),
        s.genus(),
        len(s.components()),
        s.orientable(),
    )


# ---------------------------------------------------------------------- V0


def test_v0_free_emit_absorb(tri, link):
    bubbled, inv = apply_with_inverse(link, Move(V0, 0, direction=1))
    assert bubbled.validate() == CRUDELY_NORMAL
    assert bubbled.weight() == link.weight() + tri.vertex_degree(0)
    assert len(bubbled.components()) == 2
    back, inv2 = apply_with_inverse(bubbled, inv)
    # Absorbing the free bubble from the split union drops the weight by
    # the vertex degree and restores the seed exactly.
    assert link.weight() - bubbled.weight() == -6
    assert back.canonical_key() == link.canonical_key()
    assert inv2 == Move(V0, 0, direction=1)


def test_v0_fused_preserves_topology(tri, link):
    geo = link.tet_geometry(0)
    region = geo.corner_region(0)
    partner = next(c for c in range(geo.curve_count) if region in geo.curve_regions(c))
    move = Move(V0, 0, direction=1, corner=(0, 0), partner=partner)
    fused, inv = apply_with_inverse(link, move)
    assert fused.validate() == CRUDELY_ALMOST_NORMAL
    assert fused.weight() == link.weight() + 6
    assert invariants(fused) == invariants(link)
    back, inv2 = apply_with_inverse(fused, inv)
    assert back.canonical_key() == link.canonical_key()
    assert inv2 == move


def test_v0_absorb_requires_bubble(tri, link):
    # The bare vertex link is itself an innermost bubble: absorbing it
    # frees the empty surface.  With no bubble present the move refuses.
    from cansurf import empty_surface

    gone = apply(link, Move(V0, 0, direction=-1))
    assert gone.canonical_key() == empty_surface(tri).canonical_key()
    with pytest.raises(NotApplicableError):
        apply(empty_surface(tri), Move(V0, 0, direction=-1))
    with pytest.raises(NotApplicableError, match="fused"):
        apply(link, Move(V0, 0, direction=-1, corner=(0, 0)))


def test_v0_fused_needs_adjacent_partner(tri, link):
    geo = link.tet_geometry(0)
    region = geo.corner_region(0)
    far = next(c for c in range(geo.curve_count) if region not in geo.curve_regions(c))
    with pytest.raises(NotApplicableError):
        apply(link, Move(V0, 0, direction=1, corner=(0, 0), partner=far))


# ---------------------------------------------------------------------- E1


def test_e1_insert_contract(tri, link):
    found = neighbors(link, 8, move_set={E1})
    assert found
    for n in found:
        assert n.move.kind == E1 and n.move.direction == 1
        assert n.surface.weight() == link.weight() + 2
        assert n.surface.euler_characteristic() == link.euler_characteristic()


def test_e1_no_room_at_budget_six(tri, link):
    # Insertion raises the weight to 8 and no finger pattern exists to
    # delete, so the E1 neighbourhood at budget 6 is empty.
    assert neighbors(link, 6, move_set={E1}) == []


def test_e1_roundtrip(tri, link):
    for n in neighbors(link, 8, move_set={E1}):
        back, inv2 = apply_with_inverse(n.surface, n.inverse)
        assert back.canonical_key() == link.canonical_key()
        assert inv2 == n.move


def test_e1_rejects_degree_one_edge(tri, link):
    # Edge class 2 of the reference table has degree 1.
    assert tri.edge_degree(2) == 1
    with pytest.raises(NotApplicableError, match="degree"):
        apply(link, Move(E1, 2, direction=1, gap=0, incidence=(0, 1), arc=(0, 5)))


def test_e1_delete_needs_finger(tri, link):
    # The two points of an edge class of the link are not consecutive
    # finger points: no face joins them by a returning arc.
    with pytest.raises(NotApplicableError):
        apply(link, Move(E1, 0, direction=-1, gap=0))


# ---------------------------------------------------------------------- F2


# Weight-8 encoding reached from the vertex link by one E1 move; the
# reconnection below merges two distinct curves of tetrahedron 1.
F2_EXAMPLE = """\
edges: 2 4 2
face 0: 0-1 2-9 3-4 5-6 7-8
face 1: 0-9 1-2 3-4 5-6 7-8
face 2: 0-9 1-2 3-4 5-6 7-8
face 3: 0-7 1-2 3-4 5-6
tet 0: disks
tet 1: disks
"""


def test_f2_prime_merges_adjacent_curves(tri):
    surf = parse_surface(tri, F2_EXAMPLE)
    assert surf.validate() == CRUDELY_NORMAL
    move = parse_move("F2'@f2[arcs=0-9:7-8,gain=1]")
    t_gain, f_gain = tri.face_classes[2][1]
    geo = surf.tet_geometry(t_gain)
    before = set(geo.arc_curves(f_gain, [(0, 9), (7, 8)]).values())
    assert len(before) == 2
    result, inv = apply_with_inverse(surf, move)
    assert result.validate() == CRUDELY_NORMAL
    assert len(result.curves(t_gain)) == len(surf.curves(t_gain)) - 1
    assert result.weight() == surf.weight()
    assert invariants(result) == invariants(surf)
    back, inv2 = apply_with_inverse(result, inv)
    assert back.canonical_key() == surf.canonical_key()
    assert inv2 == move


def test_f2_kind_is_symmetric(tri, link):
    # An annulus-count-changing reconnection is F2 from both ends.
    torus = Surface(tri, link.weights, link.matchings, [((0, 1),), ()])
    found = neighbors(torus, 8, move_set={F2})
    assert found
    for n in found:
        assert n.move.kind == F2
        assert n.inverse.kind == F2
        back, inv2 = apply_with_inverse(n.surface, n.inverse)
        assert back.canonical_key() == torus.canonical_key()
        assert inv2 == n.move
        assert invariants(n.surface) == invariants(torus)


def test_f2_declared_kind_checked(tri, link):
    torus = Surface(tri, link.weights, link.matchings, [((0, 1),), ()])
    n = neighbors(torus, 8, move_set={F2})[0]
    wrong = Move(F2P, n.move.location, arcs=n.move.arcs, gain=n.move.gain)
    with pytest.raises(NotApplicableError, match="declared"):
        apply(torus, wrong)


def test_f2_rejects_self_glued_face(tri, link):
    # Face class 0 is glued to tetrahedron 0 on both sides.
    (t0, _), (t1, _) = tri.face_classes[0]
    assert t0 == t1
    with pytest.raises(NotApplicableError, match="both sides"):
        apply(link, Move(F2P, 0, arcs=((0, 5), (1, 2)), gain=0))


def test_f2_rejects_non_adjacent_arcs(tri, link):
    # Three concentric corner arcs: the innermost and outermost do not
    # bound a common region.
    surf = apply(apply(link, Move(V0, 0, direction=1)), Move(V0, 0, direction=1))
    _, _, chords, _ = surface._face_chord_regions(surf.face_layout(1).n, surf.matchings[1])
    pairs = sorted(chords)
    found = None
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            if not set(chords[a]) & set(chords[b]):
                found = (a, b)
    assert found is not None
    with pytest.raises(NotApplicableError, match="common region"):
        apply(surf, Move(F2P, 1, arcs=found, gain=0))


# ------------------------------------------------------------------- PINCH


def test_pinch_vertex_link_pair(tri, link, catalog):
    # Tube the seed sphere to a second vertex-linking sphere inside a
    # shared tetrahedron.
    pinched, _ = apply_with_inverse(
        link, Move(PINCH, 0, curve=0, sphere="v0", sphere_curve=0), catalog
    )
    assert pinched.validate() == CRUDELY_ALMOST_NORMAL
    assert pinched.weight() == 12
    assert pinched.euler_characteristic() == 2
    assert len(pinched.components()) == 1
    assert pinched.genus() == 0


def test_pinch_budget(tri, link, catalog):
    # Link and catalog sphere weigh 6 each: budget 11 drops every pinch.
    stats = {}
    assert neighbors(link, 11, move_set={PINCH}, catalog=catalog, stats=stats) == []
    assert stats["budget_rejected"] > 0


def test_pinch_separation_violation(tri, link, catalog):
    # The inserted sphere's corner curve only cobounds with the surface
    # curve at the same corner; any other choice is separated.
    ok = {}
    for c1 in range(4):
        for c2 in range(4):
            move = Move(PINCH, 0, curve=c1, sphere="v0", sphere_curve=c2)
            try:
                apply_with_inverse(link, move, catalog)
                ok[(c1, c2)] = True
            except NotApplicableError:
                ok[(c1, c2)] = False
    assert sum(ok.values()) == 4
    assert all(ok[(c, c2)] for (c, c2) in ok if ok[(c, c2)])


def test_unpinch_restores_seed(tri, link, catalog):
    pinched, inv = apply_with_inverse(
        link, Move(PINCH, 0, curve=0, sphere="v0", sphere_curve=0), catalog
    )
    assert inv.kind == UNPINCH
    back, inv2 = apply_with_inverse(pinched, inv, catalog)
    assert back.canonical_key() == link.canonical_key()
    assert inv2 == Move(PINCH, 0, curve=0, sphere="v0", sphere_curve=0)


def test_unpinch_rejects_essential_tube(tri, link, catalog):
    # An annulus between two corner curves of the same sheet does not
    # split off a sphere.
    torus = Surface(tri, link.weights, link.matchings, [((0, 1),), ()])
    with pytest.raises(NotApplicableError, match="essential"):
        apply(torus, Move(UNPINCH, 0, curve=0), catalog)


def test_unpinch_requires_canonical_placement(tri, link, catalog):
    # Pinch at tet 0 then slide state: the outer sheet is a vertex-link
    # sphere but not at the innermost placement, so only the inner side
    # unpinches.
    pinched = apply(link, Move(PINCH, 0, curve=0, sphere="v0", sphere_curve=0), catalog)
    pair = pinched.annuli[0][0]
    inner_ok = outer_ok = 0
    for side in pair:
        try:
            apply(pinched, Move(UNPINCH, 0, curve=side), catalog)
            inner_ok += 1
        except NotApplicableError:
            outer_ok += 1
    assert inner_ok == 1 and outer_ok == 1


def test_extended_catalog_block_placement(tri, link, catalog):
    # A weight-2 sphere linking an edge segment, loaded from text, becomes
    # a block-placed catalog entry; it pinches onto the seed at exactly
    # one spot and round-trips through unpinch.
    from cansurf import enumerate_surfaces
    from cansurf.moves import extend_catalog

    spheres = [
        s for s in enumerate_surfaces(tri, 2)
        if s.weight() == 2 and s.euler_characteristic() == 2
        and len(s.components()) == 1
    ]
    assert len(spheres) == 3  # one per edge class
    cat = extend_catalog(catalog, tri, [spheres[0].to_text()])
    assert [e.sphere_id for e in cat] == ["v0", "s0"]
    found = neighbors(link, 8, move_set={PINCH, UNPINCH}, catalog=cat)
    assert [n.move.sphere for n in found] == ["s0"]
    n = found[0]
    assert n.surface.weight() == 8
    assert invariants(n.surface) == invariants(link)
    back, inv2 = apply_with_inverse(n.surface, n.inverse, cat)
    assert back.canonical_key() == link.canonical_key()
    assert inv2 == n.move


def test_local_sphere_detection_matches_components(tri, catalog):
    # A free vertex-link bubble is found from its own cells exactly when
    # one component of the whole surface is made of the innermost points
    # and corner arcs at the vertex (every corner of the reference
    # triangulation is at vertex 0).
    from cansurf import build
    from cansurf.moves import _find_sphere

    found = 0
    for s in build(vertex_link(tri, 0), 8, catalog=catalog).vertices.values():
        cells = {("pt", e, 0 if end == 0 else s.weights[e] - 1)
                 for e, end in tri.vertex_edge_ends[0]}
        for cid in range(len(tri.face_classes)):
            lay = s.face_layout(cid)
            for m in range(3):
                gap = lay.corner_gap(m)
                cells.add(("arc", cid, tuple(sorted(((gap - 1) % lay.n, gap)))))
        whole = any({t for t in comp if t[0] != "pc"} == cells for comp in s.components())
        assert (_find_sphere(s, catalog.get("v0")) is not None) == whole
        found += whole
    assert 0 < found < 126


def test_extend_catalog_rejects_non_spheres(tri, link, catalog):
    from cansurf.moves import extend_catalog
    from cansurf import SemanticError, Surface

    torus = Surface(tri, link.weights, link.matchings, [((0, 1),), ()])
    with pytest.raises(SemanticError, match="not crudely normal"):
        extend_catalog(catalog, tri, [torus.to_text()])


# -------------------------------------------------------------- neighbours


def test_empty_move_set(tri, link):
    assert neighbors(link, 8, move_set=frozenset()) == []


def test_neighbor_symmetry(tri, link, catalog):
    # Every entry's inverse appears among the neighbours of the target.
    for move_set in ({E1}, DEFAULT_MOVE_SET):
        for n in neighbors(link, 8, move_set=move_set, catalog=catalog):
            back = neighbors(n.surface, 8, move_set=move_set, catalog=catalog)
            matches = [
                b for b in back
                if b.move == n.inverse
                and b.surface.canonical_key() == link.canonical_key()
            ]
            assert matches, n.move.to_text()


def test_neighbors_sorted_deterministically(tri, link, catalog):
    found = neighbors(link, 8, catalog=catalog)
    keyed = [(n.surface.canonical_key(), n.move.to_text()) for n in found]
    assert keyed == sorted(keyed)


def test_budget_rejection_counted(tri, link, catalog):
    stats = {}
    neighbors(link, 6, move_set=DEFAULT_MOVE_SET, catalog=catalog, stats=stats)
    assert stats["budget_rejected"] > 0


def test_budget_rejections_count_the_moves_over_the_budget(tri, link, catalog):
    # At a budget equal to the weight every V0+, E1+ and PINCH is over
    # it.  The bulk V0 and E1 counts must equal the number of those moves
    # generated when the budget allows them all, and the PINCH count the
    # number of tubes _sphere_insertions lists, whether they apply or
    # not.  Every third vertex of the V0/E1 closures of the vertex link
    # at budget 8 and of a weight-2 sphere, whose faces without points
    # have no arcs to count, at budget 6, and of the PINCH/UNPINCH
    # closure of the vertex link at budget 12, whose annuli no tube
    # enters.
    sphere = parse_surface(tri, "edges: 0 0 2\nface 0: 0-1\n")
    surfaces = []
    for seed, budget, kinds in ((link, 8, {V0, E1}), (sphere, 6, {V0, E1}),
                                (link, 12, {PINCH, UNPINCH})):
        g = build(seed, budget, move_set=kinds, catalog=catalog)
        surfaces += [g.vertices[k] for k in sorted(g.vertices)[::3]]
    rejected = pinches = 0
    for surf in surfaces:
        tight = {"budget_rejected": 0}
        assert all(
            m.direction < 0
            for m in _candidate_moves(surf, {V0, E1}, catalog, surf.weight(), tight)
        )
        loose = _candidate_moves(surf, {V0, E1}, catalog, 10 ** 6, {"budget_rejected": 0})
        assert tight["budget_rejected"] == sum(m.direction > 0 for m in loose)
        rejected += tight["budget_rejected"]
        pinch = {"budget_rejected": 0}
        assert not list(_candidate_moves(surf, {PINCH}, catalog, surf.weight(), pinch))
        tubes = sum(m.kind == PINCH for m in _sphere_insertions(surf, catalog))
        assert pinch["budget_rejected"] == tubes
        pinches += tubes
    assert rejected > 1000
    assert any(map(any, (s.annuli for s in surfaces)))
    assert pinches > 1000


def test_generation_tries_only_what_the_tables_leave(tri, closure_graphs, catalog, monkeypatch):
    # On every vertex of the s3-sphere-b6 closure with every move kind
    # at budget 6, _f2_kind runs only on pairs of arcs beside one region
    # whose losing-side curves allow a band, so no more often than face
    # moves are generated; _bubble at most at the corners of tetrahedra
    # with an annulus; _e1_finger only where one face side around the
    # edge lacks the returning arc, which here is only at the fingers.
    # On the sub48/12 closure, V0- and UNPINCH seek a vertex link at most
    # once per corner of a tetrahedron with an annulus.
    calls = collections.Counter()

    def counted(name):
        helper = getattr(moves, name)

        def call(*args):
            calls[name] += 1
            return helper(*args)
        return call

    for name in ("_f2_kind", "_bubble", "_e1_finger", "_find_sphere"):
        monkeypatch.setattr(moves, name, counted(name))
    g = closure_graphs[1]
    face_moves = corners = fingers = 0
    for key in sorted(g.vertices):
        surf = g.vertices[key]
        stats = {"budget_rejected": 0}
        for move in _candidate_moves(surf, set(ALL_KINDS), catalog, g.budget, stats):
            face_moves += move.kind in (F2, F2P)
            fingers += move.kind == E1 and move.direction < 0
        corners += 4 * sum(1 for pairs in surf.annuli if pairs)
    assert (len(g.vertices), g.budget, face_moves, fingers) == (349, 6, 1148, 152)
    assert calls["_f2_kind"] <= face_moves
    assert calls["_bubble"] <= corners
    assert calls["_e1_finger"] == fingers
    calls.clear()
    g = closure_graphs[2]
    sub_catalog = default_catalog(g.tri)
    corners = 0
    for key in sorted(g.vertices):
        surf = g.vertices[key]
        stats = {"budget_rejected": 0}
        list(_candidate_moves(surf, g.move_set, sub_catalog, g.budget, stats))
        corners += 4 * sum(1 for pairs in surf.annuli if pairs)
    assert 0 < calls["_find_sphere"] <= corners


def test_neighbors_known_skips_exactly_those_moves(tri, link, catalog):
    # Every vertex of the pinch closure (whose seed has eight PINCH
    # edges) and every seventh of default/8: skipping the inverses of a
    # vertex's incoming edges drops exactly those moves and leaves the
    # counters as they are.
    pinch = build(link, 12, move_set={PINCH, UNPINCH}, catalog=catalog)
    default8 = build(link, 8, catalog=catalog)
    cases = [(pinch, k) for k in sorted(pinch.vertices)]
    cases += [(default8, k) for k in sorted(default8.vertices)[::7]]
    pinched = 0
    for g, key in cases:
        surf = g.vertices[key]
        # The moves from key that undo the edges into it.
        known = {back for _, back, _ in g.adjacency()[key]}
        full_stats, stats = {}, {}
        full = neighbors(surf, g.budget, g.move_set, catalog, full_stats)
        found = neighbors(surf, g.budget, g.move_set, catalog, stats, known=known)
        assert found == [n for n in full if n.move.to_text() not in known]
        assert len(full) - len(found) == len(known) > 0
        assert stats == full_stats
        pinched += sum(stats["pinched_spheres"].values())
    assert pinched >= 8


# sha256 of export_json for a vertex-limited default/8 build (101
# vertices, 112 edges) and for a default/8 build on three workers,
# recorded from a build that applied every candidate.
PARTIAL_DEFAULT8_SHA256 = "2fe82d9bee082927349287089a680df19e4b4b630291d1f866b5a666d447e9c3"
POOLED_DEFAULT8_SHA256 = "82040f18cdc5efbb74ba8d6c62f9845d355ea37ea8eb4f0c76dc8150cc966267"


def test_skipping_known_inverses_keeps_the_exports(link, catalog):
    with pytest.raises(PartialGraphError) as err:
        build(link, 8, catalog=catalog, limits=Limits(max_vertices=100))
    partial = export_json(err.value.graph)
    assert hashlib.sha256(partial.encode()).hexdigest() == PARTIAL_DEFAULT8_SHA256
    pooled = export_json(build(link, 8, catalog=catalog, workers=3))
    assert hashlib.sha256(pooled.encode()).hexdigest() == POOLED_DEFAULT8_SHA256


def test_a_move_formats_its_text_once(link, catalog, monkeypatch):
    # The text is kept outside the fields: equality, hashing and repr of
    # a move that has printed match those of one that has not.
    move = neighbors(link, 8, catalog=catalog)[0].move
    fresh = parse_move(move.to_text())
    twin = Move(**{f: getattr(fresh, f) for f in fresh._fields})
    assert (twin == fresh, hash(twin), repr(twin)) == (True, hash(fresh), repr(fresh))
    formats = []

    class Counting(dict):
        def get(self, key, default=None):
            formats.append(key)
            return super().get(key, default)

    monkeypatch.setattr(moves, "_FORMS", Counting(moves._FORMS))
    texts = {twin.to_text() for _ in range(5)} | {str(twin)}
    assert texts == {move.to_text()}
    assert formats == [(twin.kind, twin.direction > 0)]


def test_a_move_is_a_read_only_record_built_by_keyword():
    # Keyword construction defaults direction to 1 and every other
    # optional field to None, and each such move round-trips its text.
    built = [
        Move(V0, 0),
        Move(kind=E1, location=2, direction=-1, gap=0),
        Move(PINCH, location=0, curve=2, sphere="v0", sphere_curve=1),
    ]
    assert built[0] == Move(V0, 0, 1, *(None,) * 10)
    for move in built:
        assert parse_move(move.to_text()) == move
    with pytest.raises(AttributeError):
        built[1].gap = 1
    with pytest.raises(AttributeError):
        built[1].kind = V0
    assert built[1].gap == 0 and built[1].kind == E1


def test_move_serialization_round_trip(tri, link, catalog):
    for n in neighbors(link, 12, move_set=DEFAULT_MOVE_SET, catalog=catalog):
        assert parse_move(n.move.to_text()) == n.move
        assert parse_move(n.inverse.to_text()) == n.inverse


NON_CANONICAL_MOVE_TEXTS = [
    # A sign on kinds that take none.
    "PINCH-@t0[curve=0,sphere=v0,scurve=0]",
    "F2+@f1[arcs=0-5:1-2,gain=1]",
    "UNPINCH+@t1[side=4]",
    # Unknown or repeated fields.
    "E1-@e2[at=0,bogus=7]",
    "E1-@e2[at=1,at=0]",
    # Fields the form ignores.
    "V0-@v0[corner=1.2,partner=5]",
    "V0+@v0[corner=1.2,partner=3,free]",
    # Integers not in plain decimal.
    "E1+@e1[gap=00,side=0.0,arc=0-5]",
    "E1-@e2[at=+1]",
    "E1-@e2[at= 1]",
    # A missing sign or a wrong location prefix.
    "V0@v0[free]",
    "E1@e2[at=0]",
    "F2@t1[arcs=0-5:1-2,gain=1]",
    # Arc endpoints, or the two F2 arcs, out of order.
    "E1+@e1[gap=0,side=0.2,arc=1-0]",
    "F2'@f1[arcs=2-3:0-1,gain=1]",
    "F2'@f1[arcs=1-0:3-2,gain=1]",
]


@pytest.mark.parametrize("text", NON_CANONICAL_MOVE_TEXTS)
def test_non_canonical_move_text_rejected(text):
    with pytest.raises(ParseError, match="not canonical"):
        parse_move(text)


def test_bad_move_parameters_are_named():
    # A missing field by its name, and a field that does not read.
    _raises_exactly(
        ParseError, "bad move parameters in 'UNPINCH@t0[curve=99]': missing field 'side'",
        parse_move, "UNPINCH@t0[curve=99]",
    )
    _raises_exactly(
        ParseError, "bad move parameters in 'F2'@f1[arcs=-3-8:4-5,gain=1]': "
        "invalid literal for int() with base 10: ''",
        parse_move, "F2'@f1[arcs=-3-8:4-5,gain=1]",
    )


def test_every_closure_move_text_round_trips(link, closure_graphs):
    # Every edge text of the default/8, s3-sphere-b6 and sub48-link-b12
    # closures and of an F2 closure, and both free V0 texts, read back
    # to a move that prints the same text.
    f2 = build(link, 8, move_set={E1, F2})
    texts = {t for g in closure_graphs + [f2] for edge in g.edges for t in edge[2:]}
    texts |= {"V0+@v0[free]", "V0-@v0[free]"}
    moves = {text: parse_move(text) for text in sorted(texts)}
    assert {(m.kind, m.direction) for m in moves.values()} == {
        (V0, 1), (V0, -1), (E1, 1), (E1, -1), (F2, 1), (F2P, 1), (PINCH, 1), (UNPINCH, 1)
    }
    for text, move in moves.items():
        assert move.to_text() == text


def _raises_exactly(exc_type, text, fn, *args):
    with pytest.raises(exc_type) as err:
        fn(*args)
    assert type(err.value) is exc_type
    assert str(err.value) == text


def test_unknown_move_kinds_are_refused_by_the_library(link, catalog, monkeypatch):
    # Refused before a build starts a worker, and by neighbors itself.
    def no_worker(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(os, "fork", no_worker)
    text = "unknown move kind 'E2' (choose from V0,E1,F2,F2',PINCH,UNPINCH)"
    _raises_exactly(SemanticError, text, build, link, 8, {"E2"})
    _raises_exactly(SemanticError, text, build, link, 8, {"E1", "E2"}, catalog, None, 2)
    _raises_exactly(SemanticError, text, neighbors, link, 8, ["E1", "E2", "X"])


def test_shared_failures_keep_their_texts(tri, link, catalog):
    # The checks every kind shares, in the order they are made: a
    # location out of range is refused before a missing catalog.
    nv, ne, nf = len(tri.vertex_classes), len(tri.edge_classes), len(tri.face_classes)
    nt = tri.tet_count
    for move, text in [
        (Move(V0, nv, direction=1), "unknown vertex class {}".format(nv)),
        (Move(V0, -1, direction=-1), "unknown vertex class -1"),
        (Move(E1, ne, direction=-1, gap=0), "unknown edge class {}".format(ne)),
        (Move(F2P, nf, arcs=((0, 1), (2, 3)), gain=0), "unknown face class {}".format(nf)),
        (Move(F2, -1, arcs=((0, 1), (2, 3)), gain=0), "unknown face class -1"),
        (Move(PINCH, nt, curve=0, sphere="v0", sphere_curve=0), "unknown tet {}".format(nt)),
        (Move(UNPINCH, nt, curve=0), "unknown tet {}".format(nt)),
        (Move(E1, 2, direction=1, gap=0, incidence=(0, 1), arc=(0, 5)), "edge 2 has degree < 2"),
        (Move(E1, 2, direction=-1, gap=0), "edge 2 has degree < 2"),
        (Move(V0, 0, direction=1, corner=(nt, 0), partner=0), "bad corner {}.0".format(nt)),
        (Move(V0, 0, direction=-1, corner=(0, 4)), "bad corner 0.4"),
    ]:
        _raises_exactly(NotApplicableError, text, apply_with_inverse, link, move)
    pinch = Move(PINCH, 0, curve=0, sphere="v0", sphere_curve=0)
    _raises_exactly(SemanticError, "pinch requires a sphere catalog", apply, link, pinch)
    unpinch = Move(UNPINCH, 0, curve=0)
    _raises_exactly(SemanticError, "unpinch requires a sphere catalog", apply, link, unpinch)
    odd = Move("X9", 0)
    _raises_exactly(SemanticError, "unknown move kind X9", apply_with_inverse, link, odd, catalog)


def test_unknown_kind_does_not_print():
    _raises_exactly(SemanticError, "unknown move kind X9", Move("X9", 0).to_text)


def test_corner_off_its_vertex_class_is_refused(tri):
    sub = barycentric_subdivide(tri)
    link = vertex_link(sub, 7)
    tet, corner = sub.vertex_classes[0][0]
    text = "corner {}.{} is not at vertex class 7".format(tet, corner)
    for move in (
        Move(V0, 7, direction=1, corner=(tet, corner), partner=0),
        Move(V0, 7, direction=-1, corner=(tet, corner)),
    ):
        _raises_exactly(NotApplicableError, text, apply, link, move)


def test_invalid_results_name_their_move(tri, link, catalog, monkeypatch):
    # Every kind's result is classified once it is built, and a result
    # that is not crudely (almost) normal is refused under the move's
    # name.  Validation is forced to fail on everything but the source.
    e1 = neighbors(link, 8, move_set={E1})[0]
    pinch = Move(PINCH, 0, curve=0, sphere="v0", sphere_curve=0)
    pinched, unpinch = apply_with_inverse(link, pinch, catalog)
    cases = [
        ("V0 emit", link, Move(V0, 0, direction=1)),
        ("V0 absorb", link, Move(V0, 0, direction=-1)),
        ("E1 insert", link, e1.move),
        ("E1 delete", e1.surface, e1.inverse),
        ("face move", parse_surface(tri, F2_EXAMPLE), parse_move("F2'@f2[arcs=0-9:7-8,gain=1]")),
        ("pinch", link, pinch),
        ("unpinch", pinched, unpinch),
    ]
    # Each move applies while validation is real, which also fills the
    # caches its apply step reads.
    for _, source, move in cases:
        apply(source, move, catalog)
        source.validate()
    real = Surface.validate
    for name, source, move in cases:
        monkeypatch.setattr(
            Surface, "validate", lambda s, source=source: real(s) if s is source else "broken"
        )
        text = "{}: result broken".format(name)
        _raises_exactly(NotApplicableError, text, apply_with_inverse, source, move, catalog)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_walk_keys_and_invariants(tri, link, catalog, data):
    # Random walks through the move relation: applying any move and then
    # its inverse restores the canonical key, and every step preserves
    # the topological invariants.
    surf = link
    base = invariants(link)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        found = neighbors(surf, 10, move_set=DEFAULT_MOVE_SET, catalog=catalog)
        if not found:
            break
        n = found[data.draw(st.integers(min_value=0, max_value=len(found) - 1))]
        back, _ = apply_with_inverse(n.surface, n.inverse, catalog)
        assert back.canonical_key() == surf.canonical_key()
        assert invariants(n.surface) == base
        surf = n.surface


# ---------------------------------------------------------------- locality


def _star_vertex_classes(tri, move):
    """Vertex classes of the move's location simplex."""
    if move.kind == V0:
        return {move.location}
    if move.kind == E1:
        return set(tri.edge_ends[move.location])
    if move.kind in (F2, F2P):
        (t, f), _ = tri.face_classes[move.location]
        return {tri.vertex_class_of[(t, v)] for v in range(4) if v != f}
    return {tri.vertex_class_of[(move.location, v)] for v in range(4)}


def _assert_far_cells_unchanged(before, after, move):
    # Simplices sharing no vertex class with the location must carry the
    # same trace.  Their slot and node numbering only depends on their own
    # edge weights, so direct comparison is sound.
    tri = before.tri
    star = _star_vertex_classes(tri, move)
    for e in range(len(tri.edge_classes)):
        if not set(tri.edge_ends[e]) & star:
            assert before.weights[e] == after.weights[e], (move.to_text(), e)
    for cid in range(len(tri.face_classes)):
        (t, f), _ = tri.face_classes[cid]
        corners = {tri.vertex_class_of[(t, v)] for v in range(4) if v != f}
        if not corners & star:
            assert before.matchings[cid] == after.matchings[cid], (move.to_text(), cid)
    for tet in range(tri.tet_count):
        corners = {tri.vertex_class_of[(tet, v)] for v in range(4)}
        if not corners & star:
            assert before.curves(tet) == after.curves(tet)
            assert before.annuli[tet] == after.annuli[tet]


def test_move_locality_on_subdivision(tri):
    # The one-vertex reference makes every simplex incident to any move
    # location, so locality is only visible after subdividing.
    from cansurf import barycentric_subdivide
    from cansurf.moves import default_catalog as make_catalog

    sub = barycentric_subdivide(tri)
    seed = vertex_link(sub, 0)
    cat = make_catalog(sub)
    budget = seed.weight() + cat.get("v0").weight()
    checked = {"E1": 0, "V0": 0, "PINCH": 0}
    for n in neighbors(seed, budget, move_set={E1}, catalog=cat)[:3]:
        _assert_far_cells_unchanged(seed, n.surface, n.move)
        checked["E1"] += 1
    for n in neighbors(seed, budget, move_set={V0}, catalog=cat)[:2]:
        _assert_far_cells_unchanged(seed, n.surface, n.move)
        checked["V0"] += 1
    for n in neighbors(seed, budget, move_set={PINCH}, catalog=cat)[:2]:
        _assert_far_cells_unchanged(seed, n.surface, n.move)
        checked["PINCH"] += 1
    assert all(v > 0 for v in checked.values()), checked


# --------------------------------------------------------- recorded outcomes


def _sphere_insertions(surf, catalog):
    tri = surf.tri
    for v in range(len(tri.vertex_classes)):
        yield Move(V0, v, direction=1)
        for tet, corner in tri.vertex_classes[v]:
            if surf.annuli[tet]:
                continue
            geo = surf.tet_geometry(tet)
            region = geo.corner_region(corner)
            for c in range(geo.curve_count):
                if region in geo.curve_regions(c):
                    yield Move(V0, v, direction=1, corner=(tet, corner), partner=c)
    for entry in catalog:
        for tet in range(tri.tet_count):
            if surf.annuli[tet]:
                continue
            n_sphere = entry.surface.tet_geometry(tet).curve_count
            for c1 in range(surf.tet_geometry(tet).curve_count):
                for c2 in range(n_sphere):
                    yield Move(PINCH, tet, curve=c1, sphere=entry.sphere_id, sphere_curve=c2)


def _sphere_removals(surf):
    tri = surf.tri
    for v in range(len(tri.vertex_classes)):
        yield Move(V0, v, direction=-1)
        for tet, corner in tri.vertex_classes[v]:
            if surf.annuli[tet]:
                yield Move(V0, v, direction=-1, corner=(tet, corner))
    for e in range(len(tri.edge_classes)):
        for k in range(surf.weights[e] - 1):
            yield Move(E1, e, direction=-1, gap=k)
    for tet in range(tri.tet_count):
        for pair in surf.annuli[tet]:
            for side in pair:
                yield Move(UNPINCH, tet, curve=side)


# sha256 of every outcome below, recorded from an independent implementation:
# V0 with its own bubble insert and detect code, and UNPINCH through a
# search of the whole surface's components.
SPHERE_OUTCOMES_SHA256 = "10117a910864fd296b2450cc26e1762beaf8ae83b96d1e7f6140ca4324b5c1ff"


def test_sphere_move_outcomes_match_recorded_digest(tri):
    # Corpus: the sub48 budget-12 closure, its PINCH/V0 neighbours at
    # budget 52, and the default budget-8 closure.  Insertions (V0+, PINCH)
    # run on the closures, removals (V0-, E1-, UNPINCH) on everything.
    from cansurf import barycentric_subdivide, build
    from cansurf.moves import default_catalog as make_catalog

    sub = barycentric_subdivide(tri)
    sub_cat = make_catalog(sub)
    closure = build(vertex_link(sub, 7), 12, move_set={V0, F2P, PINCH, UNPINCH}, catalog=sub_cat)
    cat = make_catalog(tri)
    d8 = build(vertex_link(tri, 0), 8, catalog=cat)
    closed = [(closure.vertices[k], sub_cat) for k in sorted(closure.vertices)]
    closed += [(d8.vertices[k], cat) for k in sorted(d8.vertices)]
    grown = {}
    for surf, _ in closed[:len(closure.vertices)]:
        for n in neighbors(surf, 52, move_set={PINCH, V0}, catalog=sub_cat):
            grown.setdefault(n.surface.canonical_key(), n.surface)
    jobs = []
    for surf, catalog in closed:
        jobs.append((surf, catalog, _sphere_insertions(surf, catalog)))
        jobs.append((surf, catalog, _sphere_removals(surf)))
    for key in sorted(grown):
        jobs.append((grown[key], sub_cat, _sphere_removals(grown[key])))
    digest = hashlib.sha256()
    applied = 0
    for surf, catalog, moves in jobs:
        digest.update(surf.canonical_key().encode())
        for move in moves:
            try:
                result, inverse = apply_with_inverse(surf, move, catalog)
                outcome = result.canonical_key().encode() + b" " + inverse.to_text().encode()
                applied += 1
            except NotApplicableError:
                outcome = b"n/a"
            digest.update(move.to_text().encode() + b" " + outcome + b"\n")
    assert (len(closed), len(grown), applied) == (148, 394, 5242)
    assert digest.hexdigest() == SPHERE_OUTCOMES_SHA256


# ------------------------------------------------- face moves and fingers


@pytest.fixture(scope="module")
def enumerated(tri):
    """Every 40th surface of the weight-4 enumeration, in its order."""
    return list(itertools.islice(enumerate_surfaces(tri, 4), 0, None, 40))


@pytest.fixture(scope="module")
def closure_graphs(tri):
    """The default/8 closure of the vertex link, the budget-6 closure of a
    weight-2 sphere (s3-sphere-b6) and the sub48/12 closure."""
    sphere = parse_surface(tri, "edges: 0 0 2\nface 0: 0-1\n")
    sub = barycentric_subdivide(tri)
    return [
        build(vertex_link(tri, 0), 8, catalog=default_catalog(tri)),
        build(sphere, 6, catalog=default_catalog(tri)),
        build(vertex_link(sub, 7), 12, move_set={V0, F2P, PINCH, UNPINCH},
              catalog=default_catalog(sub)),
    ]


@pytest.fixture(scope="module")
def closures(closure_graphs):
    """Vertices of each closure graph, sorted."""
    return [[g.vertices[k] for k in sorted(g.vertices)] for g in closure_graphs]


@pytest.fixture(scope="module")
def edge_catalog(tri):
    """The default catalog plus the three block-placed weight-2 spheres
    that link an edge segment."""
    spheres = [
        s.to_text() for s in enumerate_surfaces(tri, 2)
        if s.weight() == 2 and s.euler_characteristic() == 2 and len(s.components()) == 1
    ]
    return extend_catalog(default_catalog(tri), tri, spheres)


def _face_move_candidates(surf):
    """Every F2-type move on two arcs that bound a common region, under
    both gains and both labels."""
    for cid in range(len(surf.tri.face_classes)):
        _, _, chord_sides, _ = surface._face_chord_regions(surf.face_layout(cid).n, surf.matchings[cid])
        chords = sorted(chord_sides)
        for i, alpha in enumerate(chords):
            for beta in chords[i + 1:]:
                if set(chord_sides[alpha]) & set(chord_sides[beta]):
                    for gain in (0, 1):
                        for kind in (F2, F2P):
                            yield Move(kind, cid, arcs=(alpha, beta), gain=gain)


def _e1_insertions(surf):
    """Every E1+ move: any gap of any edge class, rerouting any arc of any
    face side on that edge."""
    tri = surf.tri
    for cid in range(len(tri.face_classes)):
        for k, (e, *_) in enumerate(tri.face_sides[cid]):
            for gap in range(surf.weights[e] + 1):
                for arc in surf.matchings[cid]:
                    yield Move(E1, e, direction=1, gap=gap, incidence=(cid, k), arc=arc)


def _check_generation(surf, catalog):
    """Every kind is generated exactly where apply accepts it: each
    generated move applies, and each candidate of this file's enumerators
    that applies is generated, except the free V0 bubbles, which are
    surgery.  Every F2-type move splits one curve of one tetrahedron and
    joins two of the other."""
    tri = surf.tri
    budget = surf.weight() + max(2, max(entry.weight() for entry in catalog))
    stats = {"budget_rejected": 0}
    generated = set(_candidate_moves(surf, set(ALL_KINDS), catalog, budget, stats))
    assert stats["budget_rejected"] == 0
    candidates = set(_sphere_insertions(surf, catalog))
    candidates.update(_sphere_removals(surf), _face_move_candidates(surf), _e1_insertions(surf))
    assert generated <= candidates
    for move in sorted(candidates, key=Move.to_text):
        try:
            result, _ = apply_with_inverse(surf, move, catalog)
        except NotApplicableError:
            assert move not in generated, move.to_text()
            continue
        free = move.kind == V0 and move.corner is None
        assert (move in generated) != free, move.to_text()
        if move.kind not in (F2, F2P):
            continue
        for tet, face in tri.face_classes[move.location]:
            geo = surf.tet_geometry(tet)
            one = len(set(geo.arc_curves(face, move.arcs).values())) == 1
            change = len(result.curves(tet)) - len(surf.curves(tet))
            assert change == (1 if one else -1), (move.to_text(), tet)


def _catalog_of(surf, tri, edge_catalog):
    return edge_catalog if surf.tri is tri else default_catalog(surf.tri)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_face_moves_and_fingers_apply(tri, enumerated, closures, edge_catalog, data):
    closed = data.draw(st.booleans())
    pool = data.draw(st.sampled_from(closures)) if closed else enumerated
    surf = data.draw(st.sampled_from(pool))
    _check_generation(surf, _catalog_of(surf, tri, edge_catalog))


@pytest.mark.slow
def test_generated_face_moves_and_fingers_apply_on_closures(tri, closures, edge_catalog):
    for surf in itertools.chain(*closures):
        _check_generation(surf, _catalog_of(surf, tri, edge_catalog))


# A weight-8 surface of the enumeration with an annulus piece in tetrahedron 0.
F2_SEPARATING = """\
edges: 0 4 0
face 0: 0-1 2-3 4-7 5-6
face 1: 0-7 1-2 3-4 5-6
face 2: 0-5 1-4 2-3 6-7
face 3: 0-1 2-3
tet 0: annulus 3 5
tet 1: disks
"""


def test_separating_f2_split_is_not_generated(tri):
    # Both strands lie on one curve of tetrahedron 0, off its annulus, but
    # the split curve would separate the two annulus curves: the generator
    # sees that on tetrahedron 0 alone, and apply still refuses the move.
    surf = parse_surface(tri, F2_SEPARATING)
    move = parse_move("F2@f1[arcs=0-7:3-4,gain=1]")
    stats = {"budget_rejected": 0}
    assert move not in set(_candidate_moves(surf, {F2}, None, surf.weight(), stats))
    with pytest.raises(NotApplicableError, match="annulus separation"):
        apply(surf, move)


def test_neighbors_raises_on_a_generated_move_that_fails(tri, monkeypatch):
    # With the split check disabled the separating F2 is generated, and
    # neighbors raises apply's refusal instead of dropping the move.
    from cansurf import moves

    surf = parse_surface(tri, F2_SEPARATING)
    monkeypatch.setattr(moves, "_f2_separation", lambda *args: False)
    with pytest.raises(NotApplicableError, match="annulus separation"):
        neighbors(surf, surf.weight(), move_set={F2})


# sha256 of the outcome of every face-move candidate below, recorded from
# an implementation that built and validated each result before working
# out its label.
F2_OUTCOMES_SHA256 = "975bf6d9b1e108155bab9e16c7cbd7bd049eb770d5f0f20d35f81fc9131ea697"


def test_face_move_outcomes_match_recorded_digest(enumerated, closures):
    # Corpus: every 80th surface of the weight-4 enumeration and the
    # default/8 closure.
    corpus = enumerated[::2] + closures[0]
    digest = hashlib.sha256()
    applied = 0
    for surf in corpus:
        digest.update(surf.canonical_key().encode())
        for move in _face_move_candidates(surf):
            try:
                result, inverse = apply_with_inverse(surf, move)
                outcome = result.canonical_key().encode() + b" " + inverse.to_text().encode()
                applied += 1
            except NotApplicableError:
                outcome = b"n/a"
            digest.update(move.to_text().encode() + b" " + outcome + b"\n")
    assert (len(corpus), applied) == (1741, 2687)
    assert digest.hexdigest() == F2_OUTCOMES_SHA256


# ------------------------------------------------------------- footprints


@contextlib.contextmanager
def _recorded_results():
    """Within the block, every result a move's apply step builds, in
    order, whether ``apply_with_inverse`` then accepts it or not."""
    built = []

    def recording(step):
        def apply_step(surf, move, catalog):
            result, inverse = step(surf, move, catalog)
            built.append(result)
            return result, inverse
        return apply_step

    forms = {key: form._replace(apply=recording(form.apply)) for key, form in moves._FORMS.items()}
    with mock.patch.dict(moves._FORMS, forms):
        yield built


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SemanticError as exc:
        return "raises {}".format(exc)


def _assert_matches_fresh_parse(result):
    # A result validated over its footprint and printed from its source's
    # lines is the surface its text parses to, which is checked in full.
    verdict = result.validate()
    text = result.to_text()
    fresh = parse_surface(result.tri, text)
    assert fresh == result
    assert fresh.to_text() == text
    assert fresh.validate() == verdict, text
    for tet in range(result.tri.tet_count):
        assert _outcome(result.curves, tet) == _outcome(fresh.curves, tet), (text, tet)


def _check_neighbors_footprints(surf, budget, move_set, catalog):
    with _recorded_results() as built:
        found = neighbors(surf, budget, move_set=move_set, catalog=catalog)
    assert sorted(map(id, built)) == sorted(id(n.surface) for n in found)
    for result in built:
        _assert_matches_fresh_parse(result)
    return found


@pytest.fixture(scope="module")
def sub_e1_graph(tri):
    """sub-E1/6: the E1 closure of vertex link 7 of the subdivision at
    budget 6."""
    sub = barycentric_subdivide(tri)
    return build(vertex_link(sub, 7), 6, move_set={E1}, catalog=default_catalog(sub))


# sha256 of export_json of the sub-E1/6 closure, recorded from an
# implementation that validated and printed every move result in full.
SUB_E1_6_JSON_SHA256 = "48dbd71bb1721e0cec4e3aed9fddab389d81dbd91628deed7a47b888b4692b5a"


def test_e1_closure_on_the_subdivision_is_pinned(sub_e1_graph):
    assert (len(sub_e1_graph.vertices), len(sub_e1_graph.edges)) == (27, 30)
    digest = hashlib.sha256(export_json(sub_e1_graph).encode()).hexdigest()
    assert digest == SUB_E1_6_JSON_SHA256


# sha256 of export_json of the default-move closure of vertex link 7 of
# the subdivision (48 tets) at budget 8, recorded from an implementation
# whose moves and candidates passed over every face class and tetrahedron.
SUB_DEFAULT_8_JSON_SHA256 = "c7b7881cafa81e50a26989de3bc78d94b8ef7b5f88ee0127c45222a53a5be523"


def test_default_closure_on_the_subdivision_is_pinned(tri):
    # E1 together with V0, F2', PINCH and UNPINCH on 48 tets.
    sub = barycentric_subdivide(tri)
    graph = build(vertex_link(sub, 7), 8, catalog=default_catalog(sub))
    assert (len(graph.vertices), len(graph.edges)) == (1574, 5186)
    assert graph.stats["budget_rejected"] == 214214
    digest = hashlib.sha256(export_json(graph).encode()).hexdigest()
    assert digest == SUB_DEFAULT_8_JSON_SHA256


def _support(surf):
    """The tetrahedra with a nonzero edge weight."""
    tri = surf.tri
    return {
        tet for tet in range(tri.tet_count)
        if any(surf.weights[e] for e in tri.tet_local_classes[tet][0])
    }


def test_neighbors_reads_only_the_support_and_the_changed_rows(closure_graphs, monkeypatch):
    # On every vertex of the sub48/12 closure: the surface and the catalog
    # spheres are asked for the geometry of tetrahedra in the surface's
    # support only, the spheres also only in their own; and each result
    # checks and formats only the rows that differ from its source's.  A
    # PINCH or V0+ result's source is the sphere inserted into the vertex,
    # built from the vertex from a cleared insertion table.
    g = closure_graphs[2]
    catalog = default_catalog(g.tri)
    spheres = {id(entry.surface): _support(entry.surface) for entry in catalog}
    asked = []
    real_geometry = Surface.tet_geometry

    def geometry(self, tet):
        asked.append((self, tet))
        return real_geometry(self, tet)

    rows = []

    def recorded(name):
        real = getattr(surface, name)

        def call(*args):
            rows.append((name, args))
            return real(*args)
        return call

    built = []
    real_init = Surface.__init__

    def init(self, *args, **kwargs):
        del rows[:]
        real_init(self, *args, **kwargs)
        built.append((self, kwargs.get("source"), list(rows)))

    monkeypatch.setattr(Surface, "tet_geometry", geometry)
    monkeypatch.setattr(Surface, "__init__", init)
    for name in ("_int_row", "_face_line"):
        monkeypatch.setattr(surface, name, recorded(name))
    checked = tubed = 0
    for key in sorted(g.vertices):
        surf = g.vertices[key]
        support = _support(surf)
        del asked[:], built[:]
        moves._INSERTIONS.clear()
        found = neighbors(surf, g.budget, move_set=g.move_set, catalog=catalog)
        for asked_of, tet in asked:
            if asked_of is surf:
                assert tet in support, (key, tet)
            elif id(asked_of) in spheres:
                assert tet in support & spheres[id(asked_of)], (key, tet)
        results = {id(n.surface) for n in found}
        inserted = {id(s): source for s, source, _ in built if id(s) not in results}
        assert len(built) == len(found) + len(inserted)
        for result, source, calls in built:
            assert source is surf or inserted.get(id(source)) is surf
            tubed += source is not surf
            changed = [
                cid for cid, row in enumerate(result.matchings) if row != source.matchings[cid]
            ]
            assert sorted(args[0] for name, args in calls if name == "_face_line") == changed
            # Each changed row and each changed annulus is checked once.
            annuli = [tet for tet, pairs in enumerate(result.annuli) if pairs != source.annuli[tet]]
            assert sum(name == "_int_row" for name, _ in calls) == len(changed) + len(annuli)
            checked += len(changed)
    assert checked > 100 and tubed > 10


def test_results_take_their_sources_unchanged_lines(closure_graphs, monkeypatch):
    # Every result neighbors builds on the sub48/12 closure holds each line
    # it did not change as its source's own object, and its text is the
    # one its parse prints.  A PINCH or V0+ result's source is the sphere
    # inserted into the vertex.
    g = closure_graphs[2]
    catalog = default_catalog(g.tri)
    built = []
    real_init = Surface.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append((self, kwargs.get("source")))

    monkeypatch.setattr(Surface, "__init__", init)
    shared = changed = 0
    for key in sorted(g.vertices):
        del built[:]
        found = neighbors(g.vertices[key], g.budget, move_set=g.move_set, catalog=catalog)
        source_of = {id(surf): source for surf, source in built}
        for n in found:
            source = source_of[id(n.surface)]
            for line, old in zip(n.surface._lines, source._lines):
                if line == old:
                    assert line is old
                    shared += 1
                else:
                    changed += 1
            text = n.surface.to_text()
            assert text == parse_surface(g.tri, text).to_text()
    assert shared > changed > 0


def test_footprint_results_match_a_fresh_parse_on_closures(closure_graphs, sub_e1_graph):
    # Every result neighbors builds on every vertex of the default/8,
    # s3-sphere-b6, sub48/12 and sub-E1/6 closures.
    checked = []
    for g in closure_graphs + [sub_e1_graph]:
        catalog = default_catalog(g.tri)
        results = 0
        for key in sorted(g.vertices):
            results += len(_check_neighbors_footprints(g.vertices[key], g.budget, g.move_set, catalog))
        checked.append(results)
    assert checked == [2 * len(g.edges) for g in closure_graphs + [sub_e1_graph]]


def test_footprint_results_match_a_fresh_parse_on_the_enumeration(enumerated, edge_catalog):
    # Every result of every kind on every 1280th surface of the weight-4
    # enumeration, with the budget _check_generation gives.
    results = 0
    for surf in enumerated[::32]:
        budget = surf.weight() + max(2, max(entry.weight() for entry in edge_catalog))
        results += len(_check_neighbors_footprints(surf, budget, ALL_KINDS, edge_catalog))
    assert results > 1000


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_footprint_results_match_a_fresh_parse_on_random_walks(link, catalog, data):
    surf = link
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        found = _check_neighbors_footprints(surf, 10, DEFAULT_MOVE_SET, catalog)
        if not found:
            break
        surf = data.draw(st.sampled_from(found)).surface


def test_refused_result_keeps_its_text(tri, monkeypatch):
    # With the split check off, the separating F2 builds its result, and
    # validation over the footprint refuses it with the check's text.
    surf = parse_surface(tri, F2_SEPARATING)
    move = parse_move("F2@f1[arcs=0-7:3-4,gain=1]")
    text = "face move: result invalid: annulus separation in tet 0"
    _raises_exactly(NotApplicableError, text, apply, surf, move)
    monkeypatch.setattr(moves, "_f2_separation", lambda *args: False)
    with _recorded_results() as built:
        _raises_exactly(NotApplicableError, text, apply, surf, move)
    (result,) = built
    assert result.validate() == "invalid: annulus separation in tet 0"
    _assert_matches_fresh_parse(result)


def test_sphere_that_does_not_fit_names_its_move(tri, monkeypatch):
    # Vertex link 7 of the subdivision loaded as a catalog sphere sits at
    # block placement, where its arcs cross the seed's own link.  An
    # innermost vertex link always fits, so V0 is given the same sphere.
    sub = barycentric_subdivide(tri)
    seed = vertex_link(sub, 7)
    catalog = extend_catalog(default_catalog(sub), sub, [seed.to_text()])
    why = "result invalid: face 41 arcs (0, 2) and (1, 3) cross"
    pinch = Move(PINCH, 0, curve=0, sphere="s0", sphere_curve=0)
    _raises_exactly(NotApplicableError, "pinch: " + why, apply, seed, pinch, catalog)
    monkeypatch.setattr(moves, "_vertex_sphere", lambda tri, v: catalog.get("s0"))
    _raises_exactly(NotApplicableError, "V0 emit: " + why, apply, seed, Move(V0, 7, direction=1))


def test_result_drops_its_source_once_classified_and_keyed(link, catalog):
    source = apply(link, Move(V0, 0, direction=1))
    result = apply(source, neighbors(source, 14, move_set={E1})[0].move)
    gone = weakref.ref(source)
    del source
    gc.collect()
    result.canonical_key()
    gc.collect()
    assert gone() is None


def test_result_holds_no_reference_to_its_source(link, catalog):
    # A result is built complete: right after apply, before anything asks
    # for its key, its source can be collected, and its key is its text.
    source = apply(link, Move(V0, 0, direction=1))
    result = apply(source, neighbors(source, 14, move_set={E1})[0].move)
    gone = weakref.ref(source)
    del source
    gc.collect()
    assert gone() is None
    assert result.canonical_key() is result.to_text()


def test_each_sphere_is_inserted_once_per_source(tri, monkeypatch):
    # Building the sub48/12 closure from a cleared insertion table: its
    # PINCH and V0+ candidates and applies come from 7 (source, sphere)
    # pairs, and each pair is inserted once, not once per candidate
    # search and once more per apply (47 times).
    sub = barycentric_subdivide(tri)
    inserted = []
    real = moves._point_map_for_insertions

    def spy(*args):
        inserted.append(args)
        return real(*args)

    monkeypatch.setattr(moves, "_point_map_for_insertions", spy)
    moves._INSERTIONS.clear()
    graph = build(vertex_link(sub, 7), 12, move_set={V0, F2P, PINCH, UNPINCH},
                  catalog=default_catalog(sub))
    kinds = collections.Counter(text.split("@")[0] for _, _, text, _ in graph.edges)
    assert kinds == {PINCH: 24, "V0+": 24}
    assert len(inserted) == len(moves._INSERTIONS) == 7


def test_the_insertion_table_is_bounded_and_pins_no_result(tri, link, catalog, closure_graphs):
    # Every sphere inserted into every vertex of the default/8 and
    # sub48/12 closures: the table holds its last entries, up to its
    # bound.  A result built from an entry, tubed or not, is its own
    # object, and is collected once dropped while the entry stays.
    spheres = 0
    for graph in (closure_graphs[0], closure_graphs[2]):
        cat = default_catalog(graph.tri)
        for key in sorted(graph.vertices):
            for entry in cat:
                moves._insert_sphere(graph.vertices[key], entry)
                spheres += 1
                assert len(moves._INSERTIONS) <= moves._INSERTION_ENTRIES
    assert spheres > len(moves._INSERTIONS) == moves._INSERTION_ENTRIES
    for move in (Move(V0, 0, direction=1), neighbors(link, 12, {PINCH}, catalog)[0].move):
        result = apply(link, move, catalog)
        entry = moves._INSERTIONS[moves._vertex_sphere(tri, 0), link.canonical_key()][0]
        assert result is not entry.surface
        assert (result == entry.surface) == (move.kind == V0)
        gone = weakref.ref(result)
        del result
        gc.collect()
        assert gone() is None
        assert (moves._vertex_sphere(tri, 0), link.canonical_key()) in moves._INSERTIONS


def test_release_geometry_with_inherited_geometry(tri):
    # On the subdivision a V0 move leaves most tetrahedra alone; the
    # result takes their geometry objects from its source, not from the
    # emptied memo, and after a release either one traces them again
    # from local data.
    sub = barycentric_subdivide(tri)
    source = vertex_link(sub, 7)
    assert source.is_valid()
    _tet_memo.cache_clear()
    result = apply(source, Move(V0, 2, direction=1))
    shared = [t for t in range(sub.tet_count) if result.tet_geometry(t) is source.tet_geometry(t)]
    assert 0 < len(shared) < sub.tet_count
    fresh = parse_surface(sub, result.to_text())
    for surf in (source, result):
        surf.release_geometry()
    for tet in range(sub.tet_count):
        assert result.curves(tet) == fresh.curves(tet)
    # The link and a free bubble: two spheres.
    assert result.euler_characteristic() == fresh.euler_characteristic() == 4


# ---------------------------------------------------------- slot re-indexing


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_point_maps_match_a_list_model(tri, data):
    # The points of an edge class as a list: inserting into gaps or
    # deleting points edits the list, and every old point moves to its
    # place in the edited list.  A face carried past a deleted point that
    # one of its arcs still ends at fails.
    weights = tuple(data.draw(st.lists(st.integers(0, 5), min_size=3, max_size=3)))
    e = data.draw(st.integers(0, 2))
    w = weights[e]
    gaps = sorted(data.draw(st.lists(st.integers(0, w), max_size=3)))
    model = []
    for i in range(w + 1):
        model += [None] * gaps.count(i)
        model += [i] if i < w else []
    new_weights, shift, inserted = moves._point_map_for_insertions(weights, {e: gaps})
    assert new_weights == weights[:e] + (len(model),) + weights[e + 1:]
    assert shift == {e: [model.index(i) for i in range(w)]}
    assert inserted == {e: [k for k, i in enumerate(model) if i is None]}

    removed = sorted(data.draw(st.sets(st.sampled_from(range(w))))) if w else []
    kept = [i for i in range(w) if i not in removed]
    new_weights, shift = moves._point_map_for_deletions(weights, {e: removed})
    assert new_weights == weights[:e] + (len(kept),) + weights[e + 1:]
    assert shift == {e: [kept.index(i) if i in kept else None for i in range(w)]}
    _raises_exactly(
        NotApplicableError, "removing more points than exist on edge {}".format(e),
        moves._point_map_for_deletions, weights, {e: list(range(w + 1))},
    )
    if removed:
        cid, k = tri.edge_sides[e][0]
        old = surface.face_layout(tri, weights, cid)
        new = surface.face_layout(tri, new_weights, cid)
        s = old.slot_of_point(k, data.draw(st.sampled_from(removed)))
        _raises_exactly(
            NotApplicableError, "a surviving arc still references a deleted point",
            moves._carry, old, new, [(s, (s + 1) % old.n)], shift,
        )


def test_carried_slots_match_the_oracle(closure_graphs, monkeypatch):
    # Every E1, V0, PINCH and UNPINCH edge of the default/8 and sub48/12
    # closures, applied from both ends, carries slots from an old layout
    # to a new one.  The oracle's own slot decoding finds every carried
    # slot on the side it came from, at the new index of its point.  The
    # insertion table is cleared before each apply, so that a V0+ or
    # PINCH inserts its sphere, and carries its slots, every time.
    carried = []

    def spy(old, new, pairs, shift, carry=moves._carry):
        out = carry(old, new, pairs, shift)
        carried.append((old, new, pairs, shift, out))
        return out

    monkeypatch.setattr(moves, "_carry", spy)
    applied = collections.Counter()
    for graph in (closure_graphs[0], closure_graphs[2]):
        tri = graph.tri
        catalog = default_catalog(tri)
        ref = oracle._OracleTri(tri.to_text())
        face_of = {sides: cid for cid, sides in enumerate(tri.face_sides)}
        for u, v, muv, mvu in graph.edges:
            for key, text in ((u, muv), (v, mvu)):
                move = parse_move(text)
                if move.kind not in (E1, V0, PINCH, UNPINCH):
                    continue
                del carried[:]
                moves._INSERTIONS.clear()
                apply_with_inverse(graph.vertices[key], move, catalog)
                assert carried, text
                applied[move.kind, move.direction] += 1
                for old, new, pairs, shift, out in carried:
                    sides = ref.face_sides(face_of[old.sides])
                    edges = [e for e, *_ in sides]
                    before = oracle._SlotTable(sides, dict(zip(edges, old.side_w)))
                    after = oracle._SlotTable(sides, dict(zip(edges, new.side_w)))
                    assert len(out) == len(pairs)
                    for pair, image in zip(pairs, out):
                        for s, t in zip(pair, image):
                            k, e, i, _, _ = before.decode(s)
                            moved = shift.get(e)
                            assert after.decode(t)[:3] == (k, e, i if moved is None else moved[i])
    assert set(applied) == {(E1, 1), (E1, -1), (V0, 1), (V0, -1), (PINCH, 1), (UNPINCH, 1)}
