"""Tetrahedral gluing tables for closed orientable 3-manifolds.

A triangulation is given by one line per tetrahedron:

    tet <i>: <n0>/<p0> <n1>/<p1> <n2>/<p2> <n3>/<p3>

Entry j describes the gluing of face j of tetrahedron i (the face opposite
vertex j): it is glued to tetrahedron <nj> via the permutation <pj>, a
4-character word over 0123 mapping each vertex label of tetrahedron i to
the corresponding vertex label of the neighbour.  Lines starting with '#'
are comments.

Each glued face pair is read once, from its lesser (tetrahedron, face)
side, and these pairs are the face classes.  Vertex classes are the
``_UnionFind`` classes of the corners the pairs identify.  Edge classes
and orientability come from ``_parity_classes``, which runs the same
union-find over every element and its opposite: a pair identifies two
tetrahedron edges with equal or opposite intrinsic directions, which
gives each edge class its signs, and it asks the two tetrahedra for
opposite orientations exactly when its permutation is even.  Relations
that contradict each other mean an edge identified with itself in
reverse, or a non-orientable table.  Conventions used throughout the
package:

* Tetrahedron edges are numbered 0..5 in the order
  (0,1), (0,2), (0,3), (1,2), (1,3), (2,3); the intrinsic direction of an
  edge runs from its smaller vertex label to its larger one.
* Every edge class carries a canonical orientation: the intrinsic
  direction of its lexicographically least (tetrahedron, edge) member.
  ``edge_sign[(t, e)]`` is +1 when the intrinsic direction of that member
  agrees with the class orientation and -1 otherwise.
* Class ids (vertex, edge, face) are assigned in order of their least
  member, so they are reproducible across runs and machines.

Three tables describe how the faces and edges of the tetrahedra meet.
They depend on the gluing table alone, so each is built on first use and
kept on the instance:

* ``face_sides[cid]``: the sides of face class cid's representative
  triangle in slot order, (u0 -> u1), (u1 -> u2), (u2 -> u0) for its
  corners u0 < u1 < u2.  Per side: its edge class, +1 when the traversal
  follows the class orientation and -1 otherwise, and its tetrahedron
  edge as seen from the lesser incidence and from the other one.
* ``edge_sides[e]``: the (face class, side) pairs on edge class e, in
  that order.
* ``tet_frames[t]``: per face f of t, (face class, incidence of (t, f) in
  it, the tetrahedron edge of each side); per tetrahedron edge, the two
  (face, side) pairs on it, lower face first; per corner c, the (face,
  side m) pair of the lowest face through c whose side m starts at c.

Validation rejects anything that is not a closed orientable 3-manifold:
unglued or self-glued faces, non-involutive gluing pairs, an edge
identified with itself in reverse, inconsistent orientations, and a
nonzero Euler characteristic.
"""

import functools
import operator

from .errors import ParseError, SemanticError

# Tetrahedron edge numbering and its inverse lookup.
EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_EDGE_INDEX = {pair: k for k, pair in enumerate(EDGE_VERTICES)}


def edge_number(a, b):
    """The index in 0..5 of the tetrahedron edge joining vertices a and b."""
    return _EDGE_INDEX[(a, b) if a < b else (b, a)]


def perm_sign(p):
    s = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                s = -s
    return s


def perm_inverse(p):
    return tuple(sorted(range(4), key=p.__getitem__))


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        # find(x) and find(y), inlined: TetGeometry unions on every trace.
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            parent[y] = x


def _parity_classes(n, relations):
    """Classes of elements 0..n-1 that also carry a parity.

    ``relations`` yields ``(x, y, same)``: x and y lie in one class, with
    equal parity when ``same`` is true and opposite parity otherwise.
    Returns, per element, its class root and its parity (+1 or -1)
    relative to that class, or None when the relations contradict each
    other.  Element x and its opposite n + x are two nodes of one
    ``_UnionFind``; a contradiction joins some x to its own opposite.
    """
    uf = _UnionFind(2 * n)
    union = uf.union
    for x, y, same in relations:
        if same:
            union(x, y)
            union(n + x, n + y)
        else:
            union(x, n + y)
            union(n + x, y)
    find = uf.find
    classes = []
    for x in range(n):
        r, r_opposite = find(x), find(n + x)
        if r == r_opposite:
            return None
        classes.append((r, 1) if r < r_opposite else (r_opposite, -1))
    return classes


def _row(t, row):
    """Tet t's gluings as (neighbour, permutation tuple) pairs, or a
    SemanticError naming tet t unless ``row`` is a sequence, and naming
    its face f unless entry f is such a pair of ints."""
    try:
        entries = enumerate(row)
    except TypeError:
        raise SemanticError("tet {}: {!r} is not a row of face gluings".format(t, row)) from None
    gluings = []
    for f, entry in entries:
        try:
            n, p = entry
            p = tuple(p)
        except (TypeError, ValueError):
            p = None
        if p is None or not {int}.issuperset(map(type, (n, *p))):
            raise SemanticError("tet {} face {}: {!r} is not an integer neighbour and "
                                "permutation".format(t, f, entry))
        gluings.append((n, p))
    return tuple(gluings)


class Triangulation:
    """A validated closed orientable 3-manifold gluing table.

    ``gluings`` holds per tetrahedron a row of (neighbour, permutation)
    pairs, one per face, of ``int`` entries (a ``bool`` is not one); see
    ``_row``.

    Immutable after construction.  The class tables are computed up
    front and the face and frame tables on first use, so instances can be
    shared freely between workers.
    """

    def __init__(self, gluings):
        try:
            rows = enumerate(gluings)
        except TypeError:
            raise SemanticError("gluings: {!r} is not a sequence of rows".format(gluings)) from None
        self.gluings = tuple(_row(t, row) for t, row in rows)
        self._hash = hash(self.gluings)
        self.tet_count = len(self.gluings)
        if self.tet_count == 0:
            raise SemanticError("no tetrahedra")
        self._check_gluings()
        self._build_face_classes()
        self._build_vertex_classes()
        self._build_edge_classes()
        self._check_orientable()
        self._build_ends()
        chi = self.euler_characteristic()
        if chi != 0:
            raise SemanticError(
                "Euler characteristic is {} (expected 0); "
                "the gluing table does not describe a closed 3-manifold".format(chi)
            )

    # -- validation ------------------------------------------------------

    def _check_gluings(self):
        # Every row first, since a gluing is checked against its partner's.
        for t, row in enumerate(self.gluings):
            if len(row) != 4:
                raise SemanticError("tet {}: expected 4 face gluings".format(t))
        for t, row in enumerate(self.gluings):
            for f, (n, p) in enumerate(row):
                if not (0 <= n < self.tet_count):
                    raise SemanticError(
                        "tet {} face {}: neighbour {} out of range".format(t, f, n)
                    )
                if sorted(p) != [0, 1, 2, 3]:
                    raise SemanticError(
                        "tet {} face {}: not a permutation of 0123".format(t, f)
                    )
                if (n, p[f]) == (t, f) or self.gluings[n][p[f]] != (t, perm_inverse(p)):
                    raise SemanticError(
                        "tet {} face {}: non-involutive or fixed-point gluing".format(t, f)
                    )

    def _build_face_classes(self):
        # Each glued pair from its lesser side, so in order of least member.
        self.face_classes = tuple(
            ((t, f), (n, p[f]))
            for t, row in enumerate(self.gluings)
            for f, (n, p) in enumerate(row)
            if (t, f) < (n, p[f])
        )
        self.face_class_of = {tf: cid for cid, pair in enumerate(self.face_classes) for tf in pair}

    def _glued_faces(self):
        """(t, f, n, p) per face class: face f of tet t meets tet n via p."""
        return ((t, f, *self.gluings[t][f]) for (t, f), _ in self.face_classes)

    def _build_vertex_classes(self):
        uf = _UnionFind(4 * self.tet_count)
        for t, f, n, p in self._glued_faces():
            for v in range(4):
                if v != f:
                    uf.union(4 * t + v, 4 * n + p[v])
        roots = {}
        for i in range(4 * self.tet_count):
            roots.setdefault(uf.find(i), []).append(divmod(i, 4))
        self.vertex_classes = tuple(sorted(map(tuple, roots.values())))
        self.vertex_class_of = {
            tv: cid for cid, members in enumerate(self.vertex_classes) for tv in members
        }

    def _build_edge_classes(self):
        # Gluing edge (a, b) of t to (p[a], p[b]) of n keeps the intrinsic
        # direction exactly when p keeps the order of a and b.
        relations = (
            (6 * t + edge_number(a, b), 6 * n + edge_number(p[a], p[b]), p[a] < p[b])
            for t, f, n, p in self._glued_faces()
            for a, b in EDGE_VERTICES
            if a != f and b != f
        )
        classes = _parity_classes(6 * self.tet_count, relations)
        if classes is None:
            raise SemanticError("an edge is identified with itself in reverse")
        roots = {}
        for i, (r, s) in enumerate(classes):
            roots.setdefault(r, []).append((divmod(i, 6), s))
        ordered = sorted(roots.values(), key=lambda members: members[0][0])
        self.edge_classes = tuple(tuple(te for te, _ in m) for m in ordered)
        self.edge_class_of = {}
        self.edge_sign = {}
        for cid, members in enumerate(ordered):
            # Reorient so the least member carries sign +1.
            base = members[0][1]
            for te, s in members:
                self.edge_class_of[te] = cid
                self.edge_sign[te] = s * base

    def _check_orientable(self):
        # Tets glued by an even permutation need opposite orientations.
        relations = ((t, n, perm_sign(p) < 0) for t, _, n, p in self._glued_faces())
        if _parity_classes(self.tet_count, relations) is None:
            raise SemanticError("gluing table is non-orientable")

    def _build_ends(self):
        # Edge class ends: vertex classes at the origin and terminus of the
        # canonical orientation, read off the least member.
        ends = []
        for members in self.edge_classes:
            t, e = members[0]
            a, b = EDGE_VERTICES[e]
            ends.append((self.vertex_class_of[(t, a)], self.vertex_class_of[(t, b)]))
        self.edge_ends = tuple(ends)
        star = {v: [] for v in range(len(self.vertex_classes))}
        for eid, (v0, v1) in enumerate(self.edge_ends):
            star[v0].append((eid, 0))
            star[v1].append((eid, 1))
        self.vertex_edge_ends = {v: tuple(sorted(lst)) for v, lst in star.items()}
        # Per tetrahedron: the classes of its edges 0..5 and faces 0..3.
        self.tet_local_classes = tuple(
            (
                tuple(self.edge_class_of[(t, e)] for e in range(6)),
                tuple(self.face_class_of[(t, f)] for f in range(4)),
            )
            for t in range(self.tet_count)
        )
        # Per tetrahedron: getters of those classes' entries from a
        # sequence indexed by class, as tuples.
        self.tet_local_getters = tuple(
            (operator.itemgetter(*edges), operator.itemgetter(*faces))
            for edges, faces in self.tet_local_classes
        )

    # -- face and frame tables --------------------------------------------

    @functools.cached_property
    def face_sides(self):
        out = []
        for (t, f), _ in self.face_classes:
            u0, u1, u2 = [u for u in range(4) if u != f]
            perm = self.gluings[t][f][1]
            sides = []
            for a, b in ((u0, u1), (u1, u2), (u2, u0)):
                e = edge_number(a, b)
                net = self.edge_sign[(t, e)] if a < b else -self.edge_sign[(t, e)]
                sides.append((self.edge_class_of[(t, e)], net, e, edge_number(perm[a], perm[b])))
            out.append(tuple(sides))
        return tuple(out)

    @functools.cached_property
    def edge_sides(self):
        out = [[] for _ in self.edge_classes]
        for cid, sides in enumerate(self.face_sides):
            for k, side in enumerate(sides):
                out[side[0]].append((cid, k))
        return tuple(map(tuple, out))

    @functools.cached_property
    def tet_frames(self):
        frames = []
        for t in range(self.tet_count):
            faces = []
            edges = [[] for _ in range(6)]
            corners = [None] * 4
            for f in range(4):
                cid = self.face_class_of[(t, f)]
                inc = 0 if self.face_classes[cid][0] == (t, f) else 1
                sides = tuple([side[2 + inc] for side in self.face_sides[cid]])
                faces.append((cid, inc, sides))
                for k, e in enumerate(sides):
                    edges[e].append((f, k))
                    # Side k starts where it meets side k - 1.
                    c, = set(EDGE_VERTICES[e]) & set(EDGE_VERTICES[sides[k - 1]])
                    if corners[c] is None:
                        corners[c] = (f, k)
            frames.append((tuple(faces), tuple(map(tuple, edges)), tuple(corners)))
        return tuple(frames)

    # -- queries ---------------------------------------------------------

    def edge_degree(self, e):
        """Number of tetrahedron-edge corners in edge class e."""
        if not (0 <= e < len(self.edge_classes)):
            raise SemanticError("unknown edge class {}".format(e))
        return len(self.edge_classes[e])

    def vertex_degree(self, v):
        """Number of edge-class ends incident to vertex class v."""
        if not (0 <= v < len(self.vertex_classes)):
            raise SemanticError("unknown vertex class {}".format(v))
        return len(self.vertex_edge_ends[v])

    def euler_characteristic(self):
        return (
            len(self.vertex_classes)
            - len(self.edge_classes)
            + len(self.face_classes)
            - self.tet_count
        )

    def vertex_class_end_of_edge(self, t, e, corner):
        """Which end (0 or 1) of the class of tet-edge (t, e) sits at the
        given tetrahedron corner, with respect to the class orientation."""
        a, b = EDGE_VERTICES[e]
        if corner not in (a, b):
            raise SemanticError("vertex {} is not an endpoint of edge {}".format(corner, e))
        intrinsic_end = 0 if corner == a else 1
        return intrinsic_end if self.edge_sign[(t, e)] > 0 else 1 - intrinsic_end

    def to_text(self):
        lines = []
        for t, row in enumerate(self.gluings):
            entries = " ".join("{}/{}".format(n, "".join(map(str, p))) for (n, p) in row)
            lines.append("tet {}: {}".format(t, entries))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.gluings == other.gluings

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "<Triangulation: {} tets, {} vertices, {} edges, {} faces>".format(
            self.tet_count,
            len(self.vertex_classes),
            len(self.edge_classes),
            len(self.face_classes),
        )


def parse_triangulation(text):
    """Parse a gluing-table document into a validated Triangulation."""
    rows = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("tet"):
            raise ParseError("expected 'tet <i>: ...'", line=lineno)
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "tet":
            raise ParseError("malformed tetrahedron header", line=lineno)
        try:
            index = int(parts[1])
        except ValueError:
            raise ParseError("tetrahedron index is not an integer", line=lineno)
        if index in rows:
            raise ParseError("duplicate entry for tet {}".format(index), line=lineno)
        entries = rest.split()
        if len(entries) != 4:
            raise ParseError(
                "tet {} needs 4 face gluings, found {}".format(index, len(entries)),
                line=lineno,
            )
        row = []
        for col, entry in enumerate(entries):
            n, _, word = entry.partition("/")
            if not word or len(word) != 4 or not n:
                raise ParseError(
                    "face {} of tet {}: expected '<tet>/<perm>'".format(col, index),
                    line=lineno,
                )
            try:
                neighbour = int(n)
            except ValueError:
                raise ParseError(
                    "face {} of tet {}: bad neighbour index".format(col, index),
                    line=lineno,
                )
            if sorted(word) != ["0", "1", "2", "3"]:
                raise ParseError(
                    "face {} of tet {}: '{}' is not a permutation of 0123".format(
                        col, index, word
                    ),
                    line=lineno,
                )
            row.append((neighbour, tuple(int(c) for c in word)))
        rows[index] = row
    if not rows:
        raise SemanticError("no tetrahedra")
    if sorted(rows) != list(range(len(rows))):
        raise SemanticError("tetrahedron indices must be 0..{}".format(len(rows) - 1))
    return Triangulation([rows[i] for i in range(len(rows))])


def barycentric_subdivide(tri):
    """The barycentric subdivision, with 24 tetrahedra per input tetrahedron.

    Each subdivision tetrahedron corresponds to a flag (a, b, c, d), an
    ordering of the vertices of a source tetrahedron; its local vertices
    0, 1, 2, 3 are the source corner a, the midpoint of edge ab, the
    barycenter of face abc, and the barycenter of the tetrahedron.  All
    internal gluings are identity permutations; crossing an original face
    sends flag (a, b, c, d) of t to flag (p(a), p(b), p(c), p(d)) of the
    neighbour.
    """
    import itertools

    flags = list(itertools.permutations(range(4)))
    flag_index = {fl: i for i, fl in enumerate(flags)}

    def sub_index(t, flag):
        return 24 * t + flag_index[flag]

    gluings = []
    for t in range(tri.tet_count):
        for a, b, c, d in flags:
            n, p = tri.gluings[t][d]
            gluings.append([(sub_index(*face), (0, 1, 2, 3)) for face in (
                # Face 0 (opposite the corner): swap the corner with the edge end.
                (t, (b, a, c, d)),
                # Face 1 (opposite the edge midpoint): other edge of the face at a.
                (t, (a, c, b, d)),
                # Face 2 (opposite the face barycenter): other face through edge ab.
                (t, (a, b, d, c)),
                # Face 3 (opposite the tet barycenter): cross the original face abcd^c.
                (n, (p[a], p[b], p[c], p[d])),
            )])
    return Triangulation(gluings)
