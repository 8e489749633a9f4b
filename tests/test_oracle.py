import itertools

import pytest

from cansurf import (
    SemanticError,
    barycentric_subdivide,
    build,
    empty_surface,
    enumerate_surfaces,
    noncrossing_matchings,
    parse_surface,
    vertex_link,
)
from cansurf.moves import E1, F2P, PINCH, UNPINCH, V0, default_catalog
from cansurf.oracle import (
    ORACLE_WEIGHT_CAP,
    _admissible_pairs,
    _OracleTri,
    oracle_closure,
    oracle_matchings,
    oracle_surface_stream,
    oracle_surfaces,
)


def test_matchings_degenerate():
    count, ms = oracle_matchings((0, 0, 0))
    assert count == 1 and ms == [()]


def test_matchings_two_points_one_side():
    # Two points on one side join by a single returning arc.
    count, ms = oracle_matchings((2, 0, 0))
    assert count == 1
    assert ms == [((0, 1),)]


def test_matchings_catalan():
    count, _ = oracle_matchings((2, 2, 2))
    assert count == 5
    count8, _ = oracle_matchings((4, 2, 2))
    assert count8 == 14


def test_matchings_odd_total_rejected():
    with pytest.raises(SemanticError, match="odd"):
        oracle_matchings((1, 0, 0))


def test_matchings_agree_with_generator():
    for a in range(7):
        for b in range(7 - a):
            for c in range(7 - a - b):
                n = a + b + c
                if n % 2 or n > 6:
                    continue
                assert set(oracle_matchings((a, b, c))[1]) == set(
                    noncrossing_matchings(n)
                )


def test_surfaces_weight_zero(tri, tri_text):
    out = oracle_surfaces(tri_text, 0)
    assert out == {empty_surface(tri).to_text()}


def test_surfaces_cap_enforced(tri_text):
    with pytest.raises(SemanticError, match="cap"):
        oracle_surfaces(tri_text, ORACLE_WEIGHT_CAP + 1)


def test_surfaces_match_module_enumeration_small(tri, tri_text):
    from cansurf import enumerate_surfaces

    module = {s.to_text() for s in enumerate_surfaces(tri, 2)}
    assert oracle_surfaces(tri_text, 2) == module


def test_vertex_link_appears_at_weight_six(tri_text, link_text, tri):
    # Scan the weight<=6 stream until the vertex-linking sphere shows up;
    # the full level-6 set is astronomically large, membership is the
    # assertion.
    target = parse_surface(tri, link_text).to_text()
    for text in oracle_surface_stream(tri_text, 6):
        if text == target:
            break
    else:
        pytest.fail("vertex link not produced by the weight<=6 oracle stream")


def test_closure_empty_move_set(tri, tri_text, link_text):
    out = oracle_closure(tri_text, link_text, 8, frozenset())
    assert out == {parse_surface(tri, link_text).to_text()}


def test_closure_idempotent(tri, tri_text, link_text, catalog):
    first = oracle_closure(tri_text, link_text, 8, {E1}, catalog)
    again = set()
    for text in first:
        again |= oracle_closure(tri_text, text, 8, {E1}, catalog)
    assert again == first


def test_closure_matches_builder(tri, tri_text, link, link_text, catalog):
    from cansurf import build

    g = build(link, 8, move_set={E1}, catalog=catalog)
    closure = oracle_closure(tri_text, link_text, 8, {E1}, catalog)
    assert {s.to_text() for s in g.vertices.values()} == closure


@pytest.mark.parametrize("bed", ["enumerate_4", "default_8", "sub48_budget_12"])
def test_tet_geometry_matches_oracle(bed, tri, link, catalog):
    # The oracle traces curves with its own slot tables and decides which
    # curve pairs cobound a region by crossing parities, not regions.  Both
    # sides are functions of a tetrahedron's local data, so each distinct
    # local state among every tet of every surface is checked once.
    bed_tri = tri
    if bed == "enumerate_4":
        surfaces = enumerate_surfaces(tri, 4)
    elif bed == "default_8":
        surfaces = build(link, 8, catalog=catalog).vertices.values()
    else:
        bed_tri = barycentric_subdivide(tri)
        surfaces = build(vertex_link(bed_tri, 7), 12, move_set={V0, F2P, PINCH, UNPINCH},
                         catalog=default_catalog(bed_tri)).vertices.values()
    otri = _OracleTri(bed_tri.to_text())
    seen = set()
    for surf in surfaces:
        for tet in range(bed_tri.tet_count):
            edges, faces = bed_tri.tet_local_classes[tet]
            state = (tet, tuple(surf.weights[e] for e in edges),
                     tuple(surf.matchings[c] for c in faces))
            if state in seen:
                continue
            seen.add(state)
            geo = surf.tet_geometry(tet)
            curves, pairs = _admissible_pairs(otri, tet, surf.weights, surf.matchings)
            assert geo.curves == tuple(curves)
            assert [p for p in itertools.combinations(range(len(geo.curves)), 2)
                    if geo.curves_sharing_region(*p)] == pairs
    assert len(seen) > {"enumerate_4": 3000, "default_8": 150, "sub48_budget_12": 60}[bed]
