"""Tetrahedral gluing tables for closed orientable 3-manifolds.

A triangulation is given by one line per tetrahedron:

    tet <i>: <n0>/<p0> <n1>/<p1> <n2>/<p2> <n3>/<p3>

Entry j describes the gluing of face j of tetrahedron i (the face opposite
vertex j): it is glued to tetrahedron <nj> via the permutation <pj>, a
4-character word over 0123 mapping each vertex label of tetrahedron i to
the corresponding vertex label of the neighbour.  Lines starting with '#'
are comments.

Vertex, edge and face classes of the quotient complex are derived with
union-find over the corner identifications induced by the gluings.
Conventions used throughout the package:

* Tetrahedron edges are numbered 0..5 in the order
  (0,1), (0,2), (0,3), (1,2), (1,3), (2,3); the intrinsic direction of an
  edge runs from its smaller vertex label to its larger one.
* Every edge class carries a canonical orientation: the intrinsic
  direction of its lexicographically least (tetrahedron, edge) member.
  ``edge_sign[(t, e)]`` is +1 when the intrinsic direction of that member
  agrees with the class orientation and -1 otherwise.
* Class ids (vertex, edge, face) are assigned in order of their least
  member, so they are reproducible across runs and machines.

Validation rejects anything that is not a closed orientable 3-manifold:
unglued or self-glued faces, non-involutive gluing pairs, an edge
identified with itself in reverse, inconsistent orientations, and a
nonzero Euler characteristic.
"""

from __future__ import annotations

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
    q = [0, 0, 0, 0]
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


class _SignedUnionFind:
    """Union-find that tracks a relative sign along each merge.

    Used for edge classes, where the sign records whether two tetrahedron
    edges are identified preserving or reversing their intrinsic
    directions, and for the transverse orientation of surface pieces.  A
    merge that forces an element to disagree with itself marks the
    structure as contradictory.
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.contradiction = False

    def find(self, x):
        if self.parent[x] == x:
            return x, 1
        root, s = self.find(self.parent[x])
        self.parent[x] = root
        self.sign[x] *= s
        return root, self.sign[x]

    def union(self, x, y, rel):
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            if sx * sy != rel:
                self.contradiction = True
            return
        self.parent[ry] = rx
        self.sign[ry] = rel * sx * sy


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


class Triangulation:
    """A validated closed orientable 3-manifold gluing table.

    Immutable after construction; all derived class tables are computed
    up front, so instances can be shared freely between workers.
    """

    def __init__(self, gluings):
        self.gluings = tuple(
            tuple((int(n), tuple(p)) for (n, p) in row) for row in gluings
        )
        self.tet_count = len(self.gluings)
        if self.tet_count == 0:
            raise SemanticError("no tetrahedra")
        self._check_gluings()
        self._build_vertex_classes()
        self._build_edge_classes()
        self._build_face_classes()
        self._check_orientable()
        self._build_ends()
        chi = (
            len(self.vertex_classes)
            - len(self.edge_classes)
            + len(self.face_classes)
            - self.tet_count
        )
        if chi != 0:
            raise SemanticError(
                "Euler characteristic is {} (expected 0); "
                "the gluing table does not describe a closed 3-manifold".format(chi)
            )

    # -- validation ------------------------------------------------------

    def _check_gluings(self):
        for t, row in enumerate(self.gluings):
            if len(row) != 4:
                raise SemanticError("tet {}: expected 4 face gluings".format(t))
            for f, (n, p) in enumerate(row):
                if not (0 <= n < self.tet_count):
                    raise SemanticError(
                        "tet {} face {}: neighbour {} out of range".format(t, f, n)
                    )
                if sorted(p) != [0, 1, 2, 3]:
                    raise SemanticError(
                        "tet {} face {}: not a permutation of 0123".format(t, f)
                    )
                f2 = p[f]
                if (n, f2) == (t, f):
                    raise SemanticError(
                        "tet {} face {}: non-involutive or fixed-point gluing".format(
                            t, f
                        )
                    )
                n2, p2 = self.gluings[n][f2]
                if n2 != t or p2 != perm_inverse(p):
                    raise SemanticError(
                        "tet {} face {}: non-involutive or fixed-point gluing".format(
                            t, f
                        )
                    )

    def _build_vertex_classes(self):
        uf = _UnionFind(4 * self.tet_count)
        for t, row in enumerate(self.gluings):
            for f, (n, p) in enumerate(row):
                for v in range(4):
                    if v != f:
                        uf.union(4 * t + v, 4 * n + p[v])
        self.vertex_class_of = {}
        roots = {}
        for t in range(self.tet_count):
            for v in range(4):
                r = uf.find(4 * t + v)
                if r not in roots:
                    roots[r] = []
                roots[r].append((t, v))
        ordered = sorted(roots.values(), key=lambda members: members[0])
        self.vertex_classes = tuple(tuple(m) for m in ordered)
        for cid, members in enumerate(self.vertex_classes):
            for tv in members:
                self.vertex_class_of[tv] = cid

    def _build_edge_classes(self):
        uf = _SignedUnionFind(6 * self.tet_count)
        for t, row in enumerate(self.gluings):
            for f, (n, p) in enumerate(row):
                for a, b in EDGE_VERTICES:
                    if a == f or b == f:
                        continue
                    a2, b2 = p[a], p[b]
                    rel = 1 if a2 < b2 else -1
                    uf.union(6 * t + edge_number(a, b), 6 * n + edge_number(a2, b2), rel)
        if uf.contradiction:
            raise SemanticError("an edge is identified with itself in reverse")
        roots = {}
        for t in range(self.tet_count):
            for e in range(6):
                r, s = uf.find(6 * t + e)
                roots.setdefault(r, []).append(((t, e), s))
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

    def _build_face_classes(self):
        pairs = []
        seen = set()
        for t, row in enumerate(self.gluings):
            for f, (n, p) in enumerate(row):
                if (t, f) in seen:
                    continue
                other = (n, p[f])
                seen.add((t, f))
                seen.add(other)
                pairs.append(tuple(sorted(((t, f), other))))
        pairs.sort()
        self.face_classes = tuple(pairs)
        self.face_class_of = {}
        for cid, (a, b) in enumerate(pairs):
            self.face_class_of[a] = cid
            self.face_class_of[b] = cid

    def _check_orientable(self):
        orient = [0] * self.tet_count
        for start in range(self.tet_count):
            if orient[start]:
                continue
            orient[start] = 1
            stack = [start]
            while stack:
                t = stack.pop()
                for f, (n, p) in enumerate(self.gluings[t]):
                    need = -perm_sign(p) * orient[t]
                    if orient[n] == 0:
                        orient[n] = need
                        stack.append(n)
                    elif orient[n] != need:
                        raise SemanticError("gluing table is non-orientable")
        self.orientation = tuple(orient)

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
            entries = " ".join(
                "{}/{}".format(n, "".join(str(x) for x in p)) for (n, p) in row
            )
            lines.append("tet {}: {}".format(t, entries))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.gluings == other.gluings

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = self._hash = hash(self.gluings)
        return h

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
        for flag in flags:
            a, b, c, d = flag
            row = []
            # Face 0 (opposite the corner): swap the corner with the edge end.
            row.append((sub_index(t, (b, a, c, d)), (0, 1, 2, 3)))
            # Face 1 (opposite the edge midpoint): other edge of the face at a.
            row.append((sub_index(t, (a, c, b, d)), (0, 1, 2, 3)))
            # Face 2 (opposite the face barycenter): other face through edge ab.
            row.append((sub_index(t, (a, b, d, c)), (0, 1, 2, 3)))
            # Face 3 (opposite the tet barycenter): cross the original face abcd^c.
            n, p = tri.gluings[t][d]
            row.append((sub_index(n, (p[a], p[b], p[c], p[d])), (0, 1, 2, 3)))
            gluings.append(row)
    return Triangulation(gluings)
