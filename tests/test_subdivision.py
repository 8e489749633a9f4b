"""The 48-tetrahedron barycentric subdivision as a second test bed.

Unlike the two-tetrahedron table it has ten vertex classes, edges whose
two ends lie at different vertices, and faces mixing all slot
orientations, so it exercises paths the one-vertex table cannot.
"""

import pytest

from cansurf import barycentric_subdivide, build, generators, replay, vertex_link
from cansurf.moves import E1, V0, apply_with_inverse, default_catalog, neighbors

from oracle import oracle_closure


@pytest.fixture(scope="module")
def sub(tri):
    return barycentric_subdivide(tri)


@pytest.fixture(scope="module")
def sub_catalog(sub):
    return default_catalog(sub)


def test_every_vertex_link_is_a_sphere(sub):
    degrees = []
    for v in range(len(sub.vertex_classes)):
        link = vertex_link(sub, v)
        assert link.validate() == "crudely_normal"
        assert link.euler_characteristic() == 2
        assert link.genus() == 0
        assert len(link.components()) == 1
        assert link.orientable()
        assert link.weight() == sub.vertex_degree(v)
        degrees.append(sub.vertex_degree(v))
    assert sorted(degrees) == [4, 8, 8, 8, 8, 10, 14, 14, 16, 26]


def test_moves_roundtrip_on_subdivision(sub, sub_catalog):
    seed = vertex_link(sub, 7)  # the lightest link, weight 4
    for move_set in ({E1}, {V0}):
        budget = seed.weight() + max(
            sub.vertex_degree(v) for v in range(len(sub.vertex_classes))
        )
        found = neighbors(seed, budget, move_set=move_set, catalog=sub_catalog)
        assert found
        for n in found[:5]:
            assert n.surface.euler_characteristic() == 2
            assert len(n.surface.components()) == 1
            back, inv2 = apply_with_inverse(n.surface, n.inverse, sub_catalog)
            assert back.canonical_key() == seed.canonical_key()
            assert inv2 == n.move


def test_closure_equivalence_and_loops(sub, sub_catalog, successors):
    seed = vertex_link(sub, 7)
    g = build(seed, 6, move_set={E1}, catalog=sub_catalog)
    closure = oracle_closure(seed.to_text(), successors(sub, 6, {E1}, sub_catalog))
    assert {s.to_text() for s in g.vertices.values()} == closure
    assert len(g.vertices) == 27
    # Distinct insertions can reach the same state here, so even the
    # E1-only graph has independent loops.
    gens = generators(g)
    assert gens.rank == len(g.edges) - len(g.vertices) + 1 > 0
    for loop in gens.loops:
        assert replay(seed, loop, sub_catalog).canonical_key() == seed.canonical_key()
