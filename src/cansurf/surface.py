"""Combinatorial encodings of crudely normal and crudely almost normal
surfaces, up to normal isotopy.

A surface transverse to a triangulation is recorded by three layers of
data, each canonical with respect to the triangulation's class numbering:

* ``weights``: for every edge class e, the number w_e of intersection
  points with e.  Points on e are numbered 0..w_e-1 along the canonical
  orientation of the class.
* ``matchings``: for every face class, a perfect non-crossing matching of
  the boundary slots of the triangle.  The slots are the surface points
  on the three sides, listed in the cyclic order of the representative
  triangle's boundary: side (u0 -> u1), then (u1 -> u2), then (u2 -> u0),
  where u0 < u1 < u2 are the corners of the representative.  Each matched
  pair is an embedded arc; circles in a face are not representable, which
  is exactly the crude normality condition for 2-simplices.
* ``annuli``: for every tetrahedron, an optional pairing of two of its
  boundary curves as the boundary of an unknotted annulus piece.  Every
  unpaired curve bounds a disk piece.

Curves are the closed walks traced by the face arcs across the six edges
of a tetrahedron's boundary sphere; they are numbered by their least
node, a (tetrahedron edge, point index) pair.  An annulus pair is legal
when no other curve of the tetrahedron separates its two curves on the
boundary sphere, which holds exactly when both curves touch a common
complementary region.

Encodings are value objects: equality, hashing and the canonical key all
reduce to the canonical text serialization, whose grammar is::

    edges: <w_0> <w_1> ... <w_{E-1}>
    face <c>: <a>-<b> <a>-<b> ...      # one line per face class, slots a<b
    tet <t>: disks                      # or: annulus <i> <j> (curve ids)

Lines starting with '#' are comments.  The serializer emits every face
and tetrahedron line in class order with pairs sorted, so equal strings
mean equal encodings and conversely.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

from .errors import ParseError, SemanticError
from .triangulation import EDGE_VERTICES, _UnionFind, edge_number

CRUDELY_NORMAL = "crudely_normal"
CRUDELY_ALMOST_NORMAL = "crudely_almost_normal"


def noncrossing_matchings(n):
    """All non-crossing perfect matchings of n cyclically ordered points.

    Yields tuples of (a, b) pairs with a < b, sorted by first element.
    The count for n = 2m is the m-th Catalan number.
    """
    if n % 2:
        return
    def rec(points):
        if not points:
            yield ()
            return
        first = points[0]
        for k in range(1, len(points), 2):
            left = points[1:k]
            right = points[k + 1:]
            for lm in rec(left):
                for rm in rec(right):
                    yield ((first, points[k]),) + lm + rm
    for m in rec(tuple(range(n))):
        yield tuple(sorted(m))


def pairs_cross(p, q):
    """Whether two chords of a circle interleave.  Pairs are (a, b), a < b,
    with endpoints numbered around the circle; the test is cut-invariant."""
    (a, b), (c, d) = p, q
    return (a < c < b < d) or (c < a < d < b)


@functools.lru_cache(maxsize=1 << 16)
def _face_chord_regions(n, pairs):
    """Planar regions of a disk cut by non-crossing chords.

    Returns (region_count, gap_region, chord_sides) where gap g is the
    boundary interval between slots g-1 and g (mod n), gap_region[g] is
    the region touching it, and chord_sides[pair] = (outer, inner), the
    two regions adjacent to the chord.  A face with no slots is a single
    region.
    """
    if n == 0:
        return 1, [0], {}
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    gap_region = [0] * n
    chord_sides = {}
    stack = []
    current = 0
    next_region = 1
    for s in range(n):
        gap_region[s] = current
        if s not in partner:
            raise SemanticError("slot {} is unmatched".format(s))
        if partner[s] > s:
            chord = (s, partner[s])
            chord_sides[chord] = (current, next_region)
            stack.append(current)
            current = next_region
            next_region += 1
        else:
            current = stack.pop()
    if current != 0 or stack:
        raise SemanticError("matching is not balanced")
    return next_region, gap_region, chord_sides


class FaceLayout:
    """Slot bookkeeping for one face class at given edge weights.

    Depends only on the triangulation and the weight vector, not on the
    matchings, so it is shared by every encoding with the same weights.
    """

    def __init__(self, tri, face_class, weights):
        self.face_class = face_class
        rep, other = tri.face_classes[face_class]
        self.incidences = (rep, other)
        t, f = rep
        corners = tuple(sorted(set(range(4)) - {f}))
        self.rep_corners = corners
        u0, u1, u2 = corners
        # side k: ordered pair of representative corner labels.
        side_pairs = ((u0, u1), (u1, u2), (u2, u0))
        self.side_edge = []     # edge class per side
        self.side_net = []      # +1 if traversal follows the class orientation
        for a, b in side_pairs:
            e_local = edge_number(a, b)
            cls = tri.edge_class_of[(t, e_local)]
            traversal = 1 if a < b else -1
            self.side_edge.append(cls)
            self.side_net.append(traversal * tri.edge_sign[(t, e_local)])
        self.side_w = [weights[e] for e in self.side_edge]
        self.side_start = [0, self.side_w[0], self.side_w[0] + self.side_w[1]]
        self.n = sum(self.side_w)
        # Tet-edge of each side as seen from each incidence.
        n2, perm = tri.gluings[t][f]
        self.side_tet_edges = []
        for a, b in side_pairs:
            rep_edge = edge_number(a, b)
            other_edge = edge_number(perm[a], perm[b])
            self.side_tet_edges.append((rep_edge, other_edge))
        self.corner_vertex = tuple(
            tri.vertex_class_of[(t, u)] for u in corners
        )
        # Corner labels as seen from the other incidence.
        self.other_corners = tuple(perm[u] for u in corners)

    def side_of_slot(self, s):
        if s < self.side_start[1]:
            return 0, s
        if s < self.side_start[2]:
            return 1, s - self.side_start[1]
        return 2, s - self.side_start[2]

    def point_of_slot(self, s):
        """The (edge class, class point index) of boundary slot s."""
        k, j = self.side_of_slot(s)
        w = self.side_w[k]
        i = j if self.side_net[k] > 0 else w - 1 - j
        return self.side_edge[k], i

    def slot_of_point(self, k, i):
        """The slot on side k carrying class point index i."""
        w = self.side_w[k]
        j = i if self.side_net[k] > 0 else w - 1 - i
        return self.side_start[k] + j

    def gap_of_class_gap(self, k, q):
        """Circular gap index for class-order gap q (0..w) on side k."""
        if self.n == 0:
            return 0
        w = self.side_w[k]
        j = q if self.side_net[k] > 0 else w - q
        return (self.side_start[k] + j) % self.n

    def corner_gap(self, m):
        """Circular gap containing corner m of the representative triangle."""
        if self.n == 0:
            return 0
        return self.side_start[m] % self.n


@functools.lru_cache(maxsize=1 << 14)
def _face_layout(tri, weights, cid):
    return FaceLayout(tri, cid, weights)


class TetGeometry:
    """Curves and complementary regions on one tetrahedron's boundary."""

    def __init__(self, surface, tet):
        tri = surface.tri
        self.tet = tet
        # Nodes: (tetrahedron edge 0..5, class point index).
        self.node_curve = {}
        adjacency = {}
        arc_copies = []  # (face, chord pair, node_a, node_b)
        for f in range(4):
            cid = tri.face_class_of[(tet, f)]
            layout = surface.face_layout(cid)
            inc = 0 if layout.incidences[0] == (tet, f) else 1
            for pair in surface.matchings[cid]:
                nodes = []
                for s in pair:
                    k, _ = layout.side_of_slot(s)
                    e_cls, i = layout.point_of_slot(s)
                    nodes.append((layout.side_tet_edges[k][inc], i))
                copy_id = len(arc_copies)
                arc_copies.append((f, pair, nodes[0], nodes[1]))
                for end, node in enumerate(nodes):
                    adjacency.setdefault(node, []).append((copy_id, nodes[1 - end]))
        self.arc_copies = arc_copies
        # Trace closed curves; every node has exactly two incident arc ends.
        curves = []
        visited_nodes = set()
        copy_curve = [None] * len(arc_copies)
        for start in sorted(adjacency):
            if start in visited_nodes:
                continue
            walk_nodes = []
            node = start
            prev_copy = None
            while True:
                walk_nodes.append(node)
                visited_nodes.add(node)
                ends = adjacency[node]
                if len(ends) != 2:
                    raise SemanticError(
                        "point {} of tet {} does not meet exactly two arcs".format(
                            node, tet
                        )
                    )
                copy_id, nxt = ends[0] if ends[0][0] != prev_copy else ends[1]
                copy_curve[copy_id] = len(curves)
                prev_copy = copy_id
                node = nxt
                if node == start:
                    break
            curves.append(tuple(sorted(walk_nodes)))
        order = sorted(range(len(curves)), key=lambda c: curves[c][0])
        rank = {old: new for new, old in enumerate(order)}
        self.curves = tuple(curves[old] for old in order)
        self.copy_curve = [rank[c] for c in copy_curve]
        for c, nodes in enumerate(self.curves):
            for node in nodes:
                self.node_curve[node] = c
        self._build_regions(surface)

    def _build_regions(self, surface):
        tri = surface.tri
        tet = self.tet
        # Atoms: (face, local region id) over each face's chord subdivision.
        face_regions = []
        offsets = []
        total = 0
        for f in range(4):
            cid = tri.face_class_of[(tet, f)]
            layout = surface.face_layout(cid)
            count, gap_region, chord_sides = surface.face_regions(cid)
            face_regions.append((layout, gap_region, chord_sides))
            offsets.append(total)
            total += count
        uf = _UnionFind(total)
        find, union = uf.find, uf.union
        for e_local in range(6):
            a, b = EDGE_VERTICES[e_local]
            e_cls = tri.edge_class_of[(tet, e_local)]
            w = surface.weights[e_cls]
            touching = []
            for f in range(4):
                if f == a or f == b:
                    continue
                cid = tri.face_class_of[(tet, f)]
                layout = surface.face_layout(cid)
                inc = 0 if layout.incidences[0] == (tet, f) else 1
                k = next(
                    s for s in range(3) if layout.side_tet_edges[s][inc] == e_local
                )
                touching.append((f, layout, k))
            (fa, la, ka), (fb, lb, kb) = touching
            for q in range(w + 1):
                ga = la.gap_of_class_gap(ka, q)
                gb = lb.gap_of_class_gap(kb, q)
                union(offsets[fa] + face_regions[fa][1][ga],
                      offsets[fb] + face_regions[fb][1][gb])

        self._find = find
        self._offsets = offsets
        self._face_regions = face_regions
        roots = sorted({find(x) for x in range(total)})
        self.regions = roots
        if len(roots) != len(self.curves) + 1:
            raise SemanticError(
                "tet {}: curve system does not cut the boundary sphere into "
                "curves+1 regions".format(tet)
            )
        # Two regions adjacent to each curve, via any of its arc copies.
        adj = [None] * len(self.curves)
        for copy_id, (f, pair, _, _) in enumerate(self.arc_copies):
            c = self.copy_curve[copy_id]
            outer, inner = self._face_regions[f][2][pair]
            sides = (find(self._offsets[f] + outer), find(self._offsets[f] + inner))
            if adj[c] is None:
                adj[c] = sides
        self.curve_adjacent = adj

    def chord_side_roots(self, f, pair):
        """Region roots on the (outer, inner) sides of an arc copy."""
        outer, inner = self._face_regions[f][2][pair]
        return (self._find(self._offsets[f] + outer),
                self._find(self._offsets[f] + inner))

    def corner_region(self, corner):
        """Region root at a tetrahedron corner."""
        f = min(x for x in range(4) if x != corner)
        layout = self._face_regions[f][0]
        inc = 0 if layout.incidences[0] == (self.tet, f) else 1
        corners = layout.rep_corners if inc == 0 else layout.other_corners
        m = corners.index(corner)
        gap = layout.corner_gap(m)
        return self._find(self._offsets[f] + self._face_regions[f][1][gap])

    def curves_sharing_region(self, c1, c2):
        s1 = set(self.curve_adjacent[c1])
        s2 = set(self.curve_adjacent[c2])
        return bool(s1 & s2)

    def curve_sides(self, c):
        """The two sets of region roots separated by curve c."""
        graph = {r: [] for r in self.regions}
        for c2, (r0, r1) in enumerate(self.curve_adjacent):
            if c2 == c:
                continue
            graph[r0].append(r1)
            graph[r1].append(r0)
        start = self.curve_adjacent[c][0]
        side = {start}
        stack = [start]
        while stack:
            r = stack.pop()
            for r2 in graph[r]:
                if r2 not in side:
                    side.add(r2)
                    stack.append(r2)
        other = set(self.regions) - side
        a, b = (side, other) if min(side) < min(other) else (other, side)
        return frozenset(a), frozenset(b)


class Surface:
    """An immutable surface encoding over a fixed triangulation.

    ``weights`` is one integer per edge class, ``matchings`` one pair
    tuple per face class, and ``annuli`` one tuple of curve-id pairs per
    tetrahedron (empty for all-disk tetrahedra; more than one pair is
    representable but invalid).  Construction performs no validation so
    that invalid encodings can be built and classified.
    """

    def __init__(self, tri, weights, matchings, annuli=None):
        self.tri = tri
        self.weights = tuple(int(x) for x in weights)
        self.matchings = tuple(
            tuple(sorted(tuple(sorted(p)) for p in m)) for m in matchings
        )
        if annuli is None:
            annuli = [()] * tri.tet_count
        self.annuli = tuple(
            tuple(sorted(tuple(sorted(p)) for p in per_tet)) for per_tet in annuli
        )
        self._tets = {}
        self._text = None
        self._validation = None

    # -- cached geometry ---------------------------------------------------

    def face_layout(self, cid):
        return _face_layout(self.tri, self.weights, cid)

    def face_regions(self, cid):
        return _face_chord_regions(self.face_layout(cid).n, self.matchings[cid])

    def tet_geometry(self, tet):
        geo = self._tets.get(tet)
        if geo is None:
            geo = TetGeometry(self, tet)
            self._tets[tet] = geo
        return geo

    def release_geometry(self):
        """Drop the per-tet geometry cache.  A fresh dict, not clear():
        other surfaces may share the old one."""
        self._tets = {}

    def curves(self, tet):
        """Canonically ordered boundary curves of the given tetrahedron."""
        return self.tet_geometry(tet).curves

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Classify the encoding.

        Returns CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL, or a string
        ``"invalid: <reason>"`` naming the first violated invariant.
        """
        if self._validation is None:
            self._validation = self._validate()
        return self._validation

    def is_valid(self):
        return self.validate() in (CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL)

    def _validate(self):
        tri = self.tri
        if len(self.weights) != len(tri.edge_classes):
            return "invalid: weight vector length"
        if any(w < 0 for w in self.weights):
            return "invalid: negative edge weight"
        if len(self.matchings) != len(tri.face_classes):
            return "invalid: matching vector length"
        if len(self.annuli) != tri.tet_count:
            return "invalid: annulus vector length"
        for cid in range(len(tri.face_classes)):
            layout = self.face_layout(cid)
            if layout.n % 2:
                return "invalid: face {} has an odd number of boundary points".format(cid)
            pairs = self.matchings[cid]
            slots = [s for p in pairs for s in p]
            if sorted(slots) != list(range(layout.n)):
                return "invalid: face {} matching is not a perfect pairing".format(cid)
            for p, q in itertools.combinations(pairs, 2):
                if pairs_cross(p, q):
                    return "invalid: face {} arcs {} and {} cross".format(cid, p, q)
        for tet in range(tri.tet_count):
            pairs = self.annuli[tet]
            if len(pairs) > 1:
                return "invalid: multiple annuli in tet {}".format(tet)
            if not pairs:
                continue
            try:
                geo = self.tet_geometry(tet)
            except SemanticError as exc:
                return "invalid: {}".format(exc)
            (c1, c2), = pairs
            ncurves = len(geo.curves)
            if not (0 <= c1 < ncurves and 0 <= c2 < ncurves) or c1 == c2:
                return "invalid: annulus pair {} of tet {} is not two distinct curves".format(
                    (c1, c2), tet
                )
            if not geo.curves_sharing_region(c1, c2):
                return "invalid: annulus separation in tet {}".format(tet)
        # Curve tracing everywhere must succeed even for all-disk tets.
        try:
            for tet in range(tri.tet_count):
                self.tet_geometry(tet)
        except SemanticError as exc:
            return "invalid: {}".format(exc)
        if any(self.annuli[t] for t in range(tri.tet_count)):
            return CRUDELY_ALMOST_NORMAL
        return CRUDELY_NORMAL

    def _require_valid(self):
        v = self.validate()
        if v not in (CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL):
            raise SemanticError(v)

    # -- invariants ------------------------------------------------------

    def weight(self):
        return sum(self.weights)

    def cell_counts(self):
        """(points, arcs, disk pieces, annulus pieces)."""
        self._require_valid()
        points = sum(self.weights)
        arcs = sum(len(m) for m in self.matchings)
        disks = 0
        annuli = 0
        for tet in range(self.tri.tet_count):
            ncurves = len(self.tet_geometry(tet).curves)
            paired = sum(len(p) for p in self.annuli[tet])
            disks += ncurves - paired
            annuli += len(self.annuli[tet])
        return points, arcs, disks, annuli

    def euler_characteristic(self):
        points, arcs, disks, _ = self.cell_counts()
        return points - arcs + disks

    def pieces(self, tet):
        """Pieces of the tetrahedron as tuples of curve ids."""
        geo = self.tet_geometry(tet)
        in_annulus = {c for p in self.annuli[tet] for c in p}
        out = [tuple(sorted(p)) for p in self.annuli[tet]]
        out.extend((c,) for c in range(len(geo.curves)) if c not in in_annulus)
        return sorted(out)

    def _piece_of_curve(self, tet):
        lookup = {}
        for piece in self.pieces(tet):
            for c in piece:
                lookup[c] = (tet, piece[0])
        return lookup

    def _cells(self):
        """All cells with incidence data, for components and orientability.

        Returns (points, arcs) where arcs maps (face class, pair) to a dict
        with the endpoint points and the two (tet, piece-id, face, curve)
        attachments.
        """
        self._require_valid()
        tri = self.tri
        piece_lookup = [self._piece_of_curve(t) for t in range(tri.tet_count)]
        arcs = {}
        for cid in range(len(tri.face_classes)):
            layout = self.face_layout(cid)
            for pair in self.matchings[cid]:
                endpoints = tuple(layout.point_of_slot(s) for s in pair)
                arcs[(cid, pair)] = {"points": endpoints, "attach": []}
        for tet in range(tri.tet_count):
            geo = self.tet_geometry(tet)
            for copy_id, (f, pair, _, _) in enumerate(geo.arc_copies):
                cid = tri.face_class_of[(tet, f)]
                curve = geo.copy_curve[copy_id]
                arcs[(cid, pair)]["attach"].append(
                    (tet, piece_lookup[tet][curve], f, curve, pair)
                )
        points = [
            (e, i) for e in range(len(tri.edge_classes)) for i in range(self.weights[e])
        ]
        return points, arcs

    def components(self):
        """Connected components as frozensets of cell tags.

        Cell tags are ('pt', e, i), ('arc', face class, pair) and
        ('pc', tet, piece id).
        """
        points, arcs = self._cells()
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent.setdefault(x, x)
            parent.setdefault(y, y)
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx

        for e, i in points:
            parent.setdefault(("pt", e, i), ("pt", e, i))
        for (cid, pair), data in arcs.items():
            tag = ("arc", cid, pair)
            for e, i in data["points"]:
                union(tag, ("pt", e, i))
            for tet, piece, _, _, _ in data["attach"]:
                union(tag, ("pc", tet, piece[1]))
        groups = {}
        for tag in parent:
            groups.setdefault(find(tag), set()).add(tag)
        return sorted((frozenset(g) for g in groups.values()), key=sorted)

    def orientable(self):
        """Whether the surface admits a consistent transverse orientation."""
        _, arcs = self._cells()
        parent = {}
        parity = {}

        def find(x):
            if parent[x] == x:
                return x, 0
            root, p = find(parent[x])
            parent[x] = root
            parity[x] ^= p
            return root, parity[x]

        ok = True
        side_cache = {}

        def curve_sides(tet, curve):
            key = (tet, curve)
            if key not in side_cache:
                side_cache[key] = self.tet_geometry(tet).curve_sides(curve)
            return side_cache[key]

        for (cid, pair), data in arcs.items():
            bits = []
            for tet, piece, f, curve, arc_pair in data["attach"]:
                geo = self.tet_geometry(tet)
                outer_root, _ = geo.chord_side_roots(f, arc_pair)
                sides = curve_sides(tet, curve)
                if len(piece_curves := self._annulus_partner(tet, curve)) == 2:
                    # Annulus piece: side 0 is the one holding the shared region.
                    c1, c2 = piece_curves
                    shared = (
                        set(geo.curve_adjacent[c1]) & set(geo.curve_adjacent[c2])
                    ).pop()
                    mid_side = sides[0] if shared in sides[0] else sides[1]
                    bit = 0 if outer_root in mid_side else 1
                else:
                    bit = 0 if outer_root in sides[0] else 1
                bits.append((piece, bit))
            (p1, b1), (p2, b2) = bits
            for p in (p1, p2):
                parent.setdefault(p, p)
                parity.setdefault(p, 0)
            r1, q1 = find(p1)
            r2, q2 = find(p2)
            rel = b1 ^ b2
            if r1 == r2:
                if q1 ^ q2 != rel:
                    ok = False
            else:
                parent[r2] = r1
                parity[r2] = rel ^ q1 ^ q2
        return ok

    def _annulus_partner(self, tet, curve):
        for pair in self.annuli[tet]:
            if curve in pair:
                return pair
        return (curve,)

    def genus(self):
        """Total genus over all components (closed orientable surfaces)."""
        self._require_valid()
        if not self.orientable():
            raise SemanticError("surface is non-orientable; genus undefined")
        chi = self.euler_characteristic()
        comps = len(self.components())
        return comps - chi // 2

    # -- serialization ------------------------------------------------------

    def to_text(self):
        if self._text is None:
            lines = ["edges: " + " ".join(str(w) for w in self.weights)]
            for cid, pairs in enumerate(self.matchings):
                body = " ".join("{}-{}".format(a, b) for a, b in pairs)
                lines.append("face {}:{}".format(cid, " " + body if body else ""))
            for tet, per_tet in enumerate(self.annuli):
                if per_tet:
                    body = " ".join(
                        "annulus {} {}".format(a, b) for a, b in per_tet
                    )
                    lines.append("tet {}: {}".format(tet, body))
                else:
                    lines.append("tet {}: disks".format(tet))
            self._text = "\n".join(lines) + "\n"
        return self._text

    def canonical_key(self):
        """Byte string determining the encoding (and its normal isotopy
        class, under the identifications documented in this module)."""
        return self.to_text().encode()

    def short_hash(self):
        return hashlib.sha256(self.canonical_key()).hexdigest()[:12]

    def __eq__(self, other):
        return (
            isinstance(other, Surface)
            and self.tri == other.tri
            and self.weights == other.weights
            and self.matchings == other.matchings
            and self.annuli == other.annuli
        )

    def __hash__(self):
        return hash((self.weights, self.matchings, self.annuli))

    def __repr__(self):
        return "<Surface weight={} {}>".format(self.weight(), self.short_hash())


def empty_surface(tri):
    return Surface(
        tri,
        [0] * len(tri.edge_classes),
        [()] * len(tri.face_classes),
    )


def parse_surface(tri, text):
    """Parse the canonical surface grammar against a triangulation."""
    weights = None
    matchings = {}
    annuli = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        parts = head.split()
        if parts == ["edges"]:
            try:
                weights = tuple(int(x) for x in rest.split())
            except ValueError:
                raise ParseError("edge weights must be integers", line=lineno)
            if len(weights) != len(tri.edge_classes):
                raise SemanticError(
                    "edges line lists {} weights but the triangulation has {} "
                    "edge classes".format(len(weights), len(tri.edge_classes))
                )
        elif len(parts) == 2 and parts[0] == "face":
            try:
                cid = int(parts[1])
            except ValueError:
                raise ParseError("bad face id", line=lineno)
            if not (0 <= cid < len(tri.face_classes)):
                raise SemanticError("face {} does not exist".format(cid))
            pairs = []
            for token in rest.split():
                a, _, b = token.partition("-")
                try:
                    pairs.append((int(a), int(b)))
                except ValueError:
                    raise ParseError(
                        "bad matching pair '{}'".format(token), line=lineno
                    )
            matchings[cid] = tuple(pairs)
        elif len(parts) == 2 and parts[0] == "tet":
            try:
                tet = int(parts[1])
            except ValueError:
                raise ParseError("bad tetrahedron id", line=lineno)
            if not (0 <= tet < tri.tet_count):
                raise SemanticError("tet {} does not exist".format(tet))
            tokens = rest.split()
            if tokens == ["disks"] or not tokens:
                annuli[tet] = ()
                continue
            pairs = []
            while tokens:
                if tokens[0] != "annulus" or len(tokens) < 3:
                    raise ParseError(
                        "expected 'disks' or 'annulus <i> <j>'", line=lineno
                    )
                try:
                    pairs.append((int(tokens[1]), int(tokens[2])))
                except ValueError:
                    raise ParseError("bad annulus curve ids", line=lineno)
                tokens = tokens[3:]
            annuli[tet] = tuple(pairs)
        else:
            raise ParseError("unrecognized line '{}'".format(line), line=lineno)
    if weights is None:
        raise SemanticError("missing 'edges:' line")
    return Surface(
        tri,
        weights,
        [matchings.get(c, ()) for c in range(len(tri.face_classes))],
        [annuli.get(t, ()) for t in range(tri.tet_count)],
    )


def vertex_link(tri, v):
    """The vertex-linking sphere of vertex class v: one point at the
    near end of every incident edge-end, a corner arc in every face
    corner at v, and a disk in every tetrahedron corner at v."""
    if not (0 <= v < len(tri.vertex_classes)):
        raise SemanticError("unknown vertex class {}".format(v))
    weights = [0] * len(tri.edge_classes)
    for e, _end in tri.vertex_edge_ends[v]:
        weights[e] += 1
    probe = Surface(tri, weights, [()] * len(tri.face_classes))
    matchings = []
    for cid in range(len(tri.face_classes)):
        layout = probe.face_layout(cid)
        pairs = []
        for m in range(3):
            if layout.corner_vertex[m] != v:
                continue
            gap = layout.corner_gap(m)
            pairs.append(((gap - 1) % layout.n, gap))
        matchings.append(tuple(pairs))
    return Surface(tri, weights, matchings)


def enumerate_surfaces(tri, max_weight):
    """All valid crudely almost normal encodings of weight <= max_weight.

    Nested systematic generation: weight vectors, then per-face
    non-crossing matchings, then per-tetrahedron annulus choices.
    Includes the empty surface.  Intended for small budgets; the state
    space grows super-exponentially with the weight.
    """
    n_edges = len(tri.edge_classes)

    def weight_vectors(prefix, remaining):
        if len(prefix) == n_edges:
            yield tuple(prefix)
            return
        for w in range(remaining + 1):
            yield from weight_vectors(prefix + [w], remaining - w)

    n_faces = len(tri.face_classes)
    for weights in weight_vectors([], max_weight):
        layouts = [_face_layout(tri, weights, c) for c in range(n_faces)]
        if any(l.n % 2 for l in layouts):
            continue
        per_face = [list(noncrossing_matchings(l.n)) for l in layouts]
        for combo in itertools.product(*per_face):
            base = Surface(tri, weights, combo)
            # Non-crossing perfect matchings per face are valid by
            # construction, so only the annulus layer needs checking.
            base._validation = CRUDELY_NORMAL
            options = []
            for tet in range(tri.tet_count):
                geo = base.tet_geometry(tet)
                choices = [()]
                for c1, c2 in itertools.combinations(range(len(geo.curves)), 2):
                    if geo.curves_sharing_region(c1, c2):
                        choices.append(((c1, c2),))
                options.append(choices)
            yield base
            for annuli in itertools.product(*options):
                if all(not per_tet for per_tet in annuli):
                    continue
                surf = Surface(tri, weights, combo, annuli)
                surf._tets = base._tets
                surf._validation = CRUDELY_ALMOST_NORMAL
                yield surf
