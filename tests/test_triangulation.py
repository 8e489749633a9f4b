import random

import pytest
from hypothesis import given, settings, strategies as st

from cansurf import (
    ParseError,
    SemanticError,
    Triangulation,
    barycentric_subdivide,
    parse_triangulation,
)
from cansurf.triangulation import (
    EDGE_VERTICES,
    _parity_classes,
    edge_number,
    perm_inverse,
)

from oracle import _OracleTri


def test_reference_counts(tri):
    assert tri.tet_count == 2
    assert len(tri.vertex_classes) == 1
    assert len(tri.edge_classes) == 3
    assert len(tri.face_classes) == 4
    assert tri.euler_characteristic() == 0


def test_empty_document_rejected():
    with pytest.raises(SemanticError, match="no tetrahedra"):
        parse_triangulation("# nothing here\n")


def test_fixed_point_gluing_rejected():
    text = "tet 0: 0/0123 0/1023 1/0123 1/2301\ntet 1: 1/3012 0/2301 0/0123 1/1230\n"
    with pytest.raises(SemanticError, match="non-involutive or fixed-point"):
        parse_triangulation(text)


def test_a_short_row_is_rejected_before_its_partners_are_checked():
    # Tet 0's faces are checked against tet 1's, whose row is short, or
    # is no row at all.
    rows = [[(1, (0, 1, 2, 3))] * 4, [(0, (0, 1, 2, 3))] * 2]
    with pytest.raises(SemanticError, match="tet 1: expected 4 face gluings"):
        Triangulation(rows)
    with pytest.raises(SemanticError, match="^tet 1: 2 is not a row of face gluings"):
        Triangulation([rows[0], 2])
    with pytest.raises(SemanticError, match="^tet 0: 1 is not a row of face gluings"):
        Triangulation([1, 2])


@pytest.mark.parametrize("gluings", [None, 5])
def test_a_gluing_table_that_is_not_a_sequence_is_rejected(gluings):
    with pytest.raises(SemanticError, match="^gluings: {} is not a sequence of rows$".format(
            gluings)):
        Triangulation(gluings)


@pytest.mark.parametrize("entry", [
    (1.5, (0, 1, 2, 3)),
    ("1", (0, 1, 2, 3)),
    (1, (0, True, 2, 3)),
    (1, (0.0, 1.0, 2.0, 3.0)),
    (1, "0123"),
    (1, (0, 1, 2, 3), 0),
    1,
])
def test_a_gluing_that_is_not_int_is_rejected(tri, entry):
    # Tet 0's face 2 is glued to tet 1 by the identity.  A float or string
    # neighbour used to be truncated to it, and a True in the permutation
    # made an equal triangulation that prints another text.
    rows = [list(row) for row in tri.gluings]
    assert rows[0][2] == (1, (0, 1, 2, 3))
    rows[0][2] = entry
    with pytest.raises(SemanticError, match="^tet 0 face 2: .* not an integer neighbour"):
        Triangulation(rows)


def test_non_involutive_gluing_rejected():
    # Break one side of a valid pairing.
    text = "tet 0: 1/0123 1/1230 1/2301 1/3012\ntet 1: 0/0123 0/1230 0/2301 0/3012\n"
    with pytest.raises(SemanticError):
        parse_triangulation(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_triangulation("tet 0: 0/1023 0/1023 1/0123 1/2301\nwhat\n")
    with pytest.raises(ParseError, match="permutation"):
        parse_triangulation("tet 0: 0/1013 0/1023 1/0123 1/2301\n")


def test_unglued_face_rejected():
    with pytest.raises(ParseError, match="4 face gluings"):
        parse_triangulation("tet 0: 0/1023\n")


def test_non_orientable_rejected():
    text = "tet 0: 0/1203 0/2013 0/0231 0/0312\ntet 1: 1/1023 1/1023 1/0132 1/0132\n"
    with pytest.raises(SemanticError, match="non-orientable"):
        parse_triangulation(text)


def test_nonzero_euler_characteristic_rejected():
    # Involutive, closed, connected and orientable, but a vertex link is
    # not a sphere: the complex is not a manifold and chi comes out 1.
    text = "tet 0: 0/1023 0/1023 1/1203 1/0231\ntet 1: 0/2013 0/0312 1/1230 1/3012\n"
    with pytest.raises(SemanticError, match="Euler characteristic is 1"):
        parse_triangulation(text)


def test_reversed_edge_rejected():
    text = "tet 0: 0/1023 0/1023 0/0132 0/0132\ntet 1: 1/1023 1/1023 1/0231 1/0312\n"
    with pytest.raises(SemanticError, match="reverse"):
        parse_triangulation(text)


def test_edge_degrees(tri):
    # 12 tetrahedron edges over 3 classes; the distribution of a two-
    # tetrahedron one-vertex 3-sphere is never uniform (checked by
    # exhausting all such gluing tables), and this table gives 4, 7, 1.
    degrees = sorted(tri.edge_degree(e) for e in range(3))
    assert degrees == [1, 4, 7]
    assert sum(degrees) == 12
    with pytest.raises(SemanticError):
        tri.edge_degree(3)


def test_vertex_degree(tri):
    # Two ends per edge class, three classes, a single vertex.
    assert tri.vertex_degree(0) == 6
    with pytest.raises(SemanticError):
        tri.vertex_degree(1)


def test_degree_sum_identity(tri):
    total = sum(tri.vertex_degree(v) for v in range(len(tri.vertex_classes)))
    assert total == 2 * len(tri.edge_classes)


def test_round_trip_idempotent(tri, tri_text):
    text1 = tri.to_text()
    tri2 = parse_triangulation(text1)
    assert tri2 == tri
    assert tri2.to_text() == text1


def test_subdivision_counts(tri):
    sub = barycentric_subdivide(tri)
    assert sub.tet_count == 48
    assert sub.euler_characteristic() == 0
    assert len(sub.vertex_classes) == 1 + 3 + 4 + 2  # corners, edges, faces, tets
    sub2 = barycentric_subdivide(sub)
    assert sub2.tet_count == 1152
    assert sub2.euler_characteristic() == 0


def test_subdivision_degree_sum(tri):
    sub = barycentric_subdivide(tri)
    total = sum(sub.vertex_degree(v) for v in range(len(sub.vertex_classes)))
    assert total == 2 * len(sub.edge_classes)
    # The class of the original vertex: in the subdivision its edge-ends
    # are one per original edge-end (6), one per face corner (3 * 4), and
    # one per tetrahedron corner (4 * 2).
    corner_class = sub.vertex_class_of[(0, 0)]
    assert sub.vertex_degree(corner_class) == 6 + 12 + 8


def _relabel(tri, tet_perm, vertex_perms):
    rows = [[None] * 4 for _ in range(tri.tet_count)]
    for t in range(tri.tet_count):
        sigma = vertex_perms[t]
        for f in range(4):
            n, p = tri.gluings[t][f]
            tau = vertex_perms[n]
            composed = tuple(tau[p[perm_inverse(sigma)[v]]] for v in range(4))
            rows[tet_perm[t]][sigma[f]] = (tet_perm[n], composed)
    return Triangulation(rows)


@settings(max_examples=30, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_relabelling_invariance(tri, rnd):
    tets = list(range(tri.tet_count))
    rnd.shuffle(tets)
    perms = []
    for _ in range(tri.tet_count):
        p = list(range(4))
        rnd.shuffle(p)
        perms.append(tuple(p))
    other = _relabel(tri, tets, perms)
    assert other.euler_characteristic() == 0
    assert len(other.vertex_classes) == len(tri.vertex_classes)
    assert len(other.edge_classes) == len(tri.edge_classes)
    assert sorted(other.edge_degree(e) for e in range(3)) == [1, 4, 7]
    sub = barycentric_subdivide(other)
    assert sub.euler_characteristic() == 0
    assert sub.tet_count == 48


def test_vertex_class_end_of_edge(tri):
    for t in range(tri.tet_count):
        for e in range(6):
            a, b = EDGE_VERTICES[e]
            ends = {tri.vertex_class_end_of_edge(t, e, a),
                    tri.vertex_class_end_of_edge(t, e, b)}
            assert ends == {0, 1}
    with pytest.raises(SemanticError):
        tri.vertex_class_end_of_edge(0, edge_number(0, 1), 3)


def test_parity_classes():
    # 0 ~ 1 equal, 1 ~ 2 opposite, 3 alone; 4 ~ 5 twice, consistently.
    relations = [(0, 1, True), (1, 2, False), (4, 5, False), (5, 4, False)]
    classes = _parity_classes(6, relations)
    roots = [r for r, _ in classes]
    signs = [s for _, s in classes]
    assert roots[0] == roots[1] == roots[2]
    assert len({roots[0], roots[3], roots[4]}) == 3 and roots[4] == roots[5]
    assert signs[0] == signs[1] == -signs[2]
    assert signs[4] == -signs[5]
    assert _parity_classes(0, []) == []


@pytest.mark.parametrize("relations", [
    [(0, 0, False)],
    [(0, 1, True), (1, 2, True), (2, 0, False)],
    [(0, 1, False), (1, 2, False), (2, 0, False)],
])
def test_parity_classes_contradiction(relations):
    assert _parity_classes(3, relations) is None


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_edge_classes_match_oracle(tri, depth):
    for _ in range(depth):
        tri = barycentric_subdivide(tri)
    oracle = _OracleTri(tri.to_text())
    members = {}
    for te, cid in oracle.edge_class.items():
        members.setdefault(cid, []).append(te)
    assert tri.edge_classes == tuple(tuple(sorted(m)) for _, m in sorted(members.items()))
    assert tri.edge_class_of == oracle.edge_class
    assert tri.edge_sign == oracle.edge_sign


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_face_and_frame_tables_match_oracle(tri, depth):
    for _ in range(depth):
        tri = barycentric_subdivide(tri)
    oracle = _OracleTri(tri.to_text())
    on_edge = {}
    for cid in range(len(oracle.faces)):
        sides = oracle.face_sides(cid)
        assert tri.face_sides[cid] == tuple(sides)
        for k, side in enumerate(sides):
            on_edge.setdefault(side[0], []).append((cid, k))
    assert tri.edge_sides == tuple(tuple(on_edge[e]) for e in range(oracle.n_edges))
    # Side m of a face class runs from the m-th of its representative's
    # corners u0 < u1 < u2, which the gluing carries to the other side.
    for t, (_, _, corners) in enumerate(tri.tet_frames):
        for c, (f, m) in enumerate(corners):
            assert f != c
            rep, _ = oracle.faces[tri.face_class_of[(t, f)]]
            start = sorted(set(range(4)) - {rep[1]})[m]
            if rep != (t, f):
                start = oracle.glue[rep[0]][rep[1]][1][start]
            assert start == c
