"""The cells of a surface encoding with their incidences, and its
connected components.

``Surface.components``, ``orientable`` and ``genus`` read the cells, and
``components`` is found here too.  Nothing a build, an export or a
replay runs needs them, so ``import cansurf`` does not load this module:
``Surface`` loads it on first use.
"""

from .triangulation import _UnionFind


def cells(surf):
    """All cells of a valid surface with incidence data, for components
    and orientability.

    Returns (points, arcs) where arcs maps (face class, pair) to a dict
    with the endpoint points and the two (tet, piece, face) attachments,
    a piece named by its tet and least curve.
    """
    tri = surf.tri
    piece_of_curve = []
    for tet in range(tri.tet_count):
        # A disk is its curve, and an annulus its sorted pair's first.
        named = {c: (tet, c) for c in range(surf.tet_geometry(tet).curve_count)}
        named.update({c: (tet, a) for a, b in surf.annuli[tet] for c in (a, b)})
        piece_of_curve.append(named)
    arcs = {}
    for cid in range(len(tri.face_classes)):
        layout = surf.face_layout(cid)
        for pair in surf.matchings[cid]:
            endpoints = tuple(layout.point_of_slot(s) for s in pair)
            arcs[(cid, pair)] = {"points": endpoints, "attach": []}
    for tet in range(tri.tet_count):
        geo = surf.tet_geometry(tet)
        for f, (cid, _, _) in enumerate(tri.tet_frames[tet][0]):
            for pair, curve in geo.arc_curves(f, surf.matchings[cid]).items():
                arcs[(cid, pair)]["attach"].append((tet, piece_of_curve[tet][curve], f))
    points = [(e, i) for e in range(len(tri.edge_classes)) for i in range(surf.weights[e])]
    return points, arcs


def components(points, arcs):
    """The connected components of these cells (see ``cells``) as
    frozensets of cell tags: ('pt', e, i), ('arc', face class, pair) and
    ('pc', tet, piece id)."""
    index = {("pt", e, i): n for n, (e, i) in enumerate(points)}
    links = []
    for (cid, pair), data in arcs.items():
        arc = index.setdefault(("arc", cid, pair), len(index))
        for e, i in data["points"]:
            links.append((arc, index[("pt", e, i)]))
        for tet, piece, _ in data["attach"]:
            links.append((arc, index.setdefault(("pc", tet, piece[1]), len(index))))
    uf = _UnionFind(len(index))
    for x, y in links:
        uf.union(x, y)
    groups = {}
    for tag, n in index.items():
        groups.setdefault(uf.find(n), set()).add(tag)
    return sorted((frozenset(g) for g in groups.values()), key=sorted)
