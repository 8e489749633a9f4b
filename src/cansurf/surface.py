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

Geometry is a function of local data, memoized process-wide.  A
``FaceLayout`` depends only on its face's three side weights, and a
``TetGeometry`` only on its tetrahedron's six edge weights and four face
matchings.  ``tet_geometry`` keeps each ``TetGeometry`` in ``_TET_MEMO``
under exactly that data, so surfaces that agree on a tetrahedron share
one curve system there, and ``tet_geometry_of`` reads the curves of an
encoding that has not been built as a ``Surface``, as a move does for
its result.  The tet memo is least-recently-used and holds at most
``max(128, 4 * tet_count)`` entries.

A trace reads tables instead of recomputing slot arithmetic.  Each
``FaceLayout`` stores, per incidence of its face class, the node
(tetrahedron edge, class point index) of every slot, and per side the
circular gap of every class-order gap.  ``_tet_frame`` holds, per
tetrahedron, each face's class, incidence and side edges, and each
tetrahedron edge's two (face, side) pairs.  Both depend on the
triangulation alone (and the layout on its three side weights), so they
are cached and shared by every trace.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools

from .errors import ParseError, SemanticError
from .triangulation import _SignedUnionFind, _UnionFind, edge_number

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


def face_crossing(cid, pairs):
    """The validation failure naming the first two crossing arcs among
    face class cid's pairs, or None when no two cross."""
    for p, q in itertools.combinations(pairs, 2):
        if pairs_cross(p, q):
            return "invalid: face {} arcs {} and {} cross".format(cid, p, q)
    return None


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


@functools.lru_cache(maxsize=1 << 14)
def _face_sides(tri, cid):
    """The sides of face class cid's representative triangle in slot
    order: per side, its edge class and its tetrahedron edge as seen from
    each of the two incidences."""
    (t, f), _ = tri.face_classes[cid]
    u0, u1, u2 = sorted(set(range(4)) - {f})
    _, perm = tri.gluings[t][f]
    return tuple(
        (tri.edge_class_of[(t, edge_number(a, b))], edge_number(a, b),
         edge_number(perm[a], perm[b]))
        for a, b in ((u0, u1), (u1, u2), (u2, u0))
    )


class FaceLayout:
    """Slot bookkeeping for one face class at given side weights.

    Depends only on the triangulation and the weights of the face's three
    sides, not on the matchings, so it is shared by every encoding that
    agrees there.
    """

    def __init__(self, tri, face_class, side_w):
        self.face_class = face_class
        rep, other = tri.face_classes[face_class]
        self.incidences = (rep, other)
        t, f = rep
        corners = tuple(sorted(set(range(4)) - {f}))
        self.rep_corners = corners
        u0, u1, u2 = corners
        # side k: ordered pair of representative corner labels.
        side_pairs = ((u0, u1), (u1, u2), (u2, u0))
        self.side_edge = []       # edge class per side
        self.side_net = []        # +1 if traversal follows the class orientation
        self.side_tet_edges = []  # tet-edge of each side as seen from each incidence
        for (a, b), (cls, rep_edge, other_edge) in zip(side_pairs, _face_sides(tri, face_class)):
            self.side_edge.append(cls)
            self.side_net.append((1 if a < b else -1) * tri.edge_sign[(t, rep_edge)])
            self.side_tet_edges.append((rep_edge, other_edge))
        self.side_w = list(side_w)
        self.side_start = [0, self.side_w[0], self.side_w[0] + self.side_w[1]]
        self.n = sum(self.side_w)
        self.corner_vertex = tuple(
            tri.vertex_class_of[(t, u)] for u in corners
        )
        # Corner labels as seen from the other incidence.
        _, perm = tri.gluings[t][f]
        self.other_corners = tuple(perm[u] for u in corners)

    # Tables for TetGeometry, built on its first trace through this layout.

    @functools.cached_property
    def slot_nodes(self):
        """Per incidence, the node (tet edge, class point index) of every
        slot, with points numbered as point_of_slot numbers them."""
        nodes = ([], [])
        for k, w in enumerate(self.side_w):
            points = range(w) if self.side_net[k] > 0 else range(w - 1, -1, -1)
            for inc in (0, 1):
                e = self.side_tet_edges[k][inc]
                nodes[inc].extend([(e, i) for i in points])
        return tuple(nodes[0]), tuple(nodes[1])

    @functools.cached_property
    def class_gaps(self):
        """Per side, the circular gap of every class-order gap 0..w, as
        gap_of_class_gap numbers them."""
        if self.n == 0:
            return ((0,),) * 3
        return tuple(
            tuple([(start + j) % self.n for j in (range(w + 1) if net > 0 else range(w, -1, -1))])
            for start, w, net in zip(self.side_start, self.side_w, self.side_net)
        )

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
def _side_layout(tri, cid, side_w):
    return FaceLayout(tri, cid, side_w)


@functools.lru_cache(maxsize=1 << 14)
def _face_layout(tri, weights, cid):
    return _side_layout(tri, cid, tuple([weights[e] for e, _, _ in _face_sides(tri, cid)]))


# TetGeometry by (tri, tet, edge weights, face matchings) of that tet,
# least recently used first; see tet_geometry.
_TET_MEMO = collections.OrderedDict()


def tet_geometry(tri, tet, weights, matchings):
    """The curve system of tet with these six edge weights and four face
    matchings (see TetGeometry), looked up in the process-wide
    ``_TET_MEMO`` and traced only on a miss.  The memo drops its least
    recently used entries beyond ``max(128, 4 * tet_count)``; a tracing
    error is raised, not cached."""
    key = (tri, tet, weights, matchings)
    geo = _TET_MEMO.get(key)
    if geo is None:
        geo = TetGeometry(tri, tet, weights, matchings)
        _TET_MEMO[key] = geo
        while len(_TET_MEMO) > max(128, 4 * tri.tet_count):
            _TET_MEMO.popitem(last=False)
    else:
        _TET_MEMO.move_to_end(key)
    return geo


def tet_geometry_of(tri, weights, matchings, tet):
    """``tet_geometry`` of tet in the encoding with these edge class
    weights and face class matchings, which need not be built as a
    Surface.  Matchings must be normalized as ``Surface`` stores them:
    each pair sorted, each face's pairs sorted."""
    edges, faces = tri.tet_local_classes[tet]
    return tet_geometry(
        tri,
        tet,
        tuple([weights[e] for e in edges]),
        tuple([matchings[c] for c in faces]),
    )


@functools.lru_cache(maxsize=1 << 14)
def _tet_frame(tri, tet):
    """How tet's faces and edges meet, independent of any surface: per
    face 0..3, (face class, incidence of (tet, face) in its class, the tet
    edge of each of its three sides); per tet edge 0..5, the two
    (face, side) pairs that contain it, lower face first."""
    faces = []
    edges = [[] for _ in range(6)]
    for f in range(4):
        cid = tri.face_class_of[(tet, f)]
        inc = 0 if tri.face_classes[cid][0] == (tet, f) else 1
        sides = tuple([s[1 + inc] for s in _face_sides(tri, cid)])
        faces.append((cid, inc, sides))
        for k, e in enumerate(sides):
            edges[e].append((f, k))
    return tuple(faces), tuple(map(tuple, edges))


class TetGeometry:
    """Curves and complementary regions on one tetrahedron's boundary.

    A function of the tetrahedron's local data alone: ``weights`` holds
    the weights of its edges 0..5 and ``matchings`` the matchings of its
    faces 0..3, each in its face class's slots.  One instance is shared by
    every surface that agrees there, so it must not be mutated.
    """

    def __init__(self, tri, tet, weights, matchings):
        self.tet = tet
        faces, edge_sides = _tet_frame(tri, tet)
        # Nodes: (tetrahedron edge 0..5, class point index).  Each node
        # lists the nodes its arc ends join it to, in arc order.
        layouts = []
        joined = {}
        arcs = []  # ((face, chord pair), one end node) per arc copy
        for f, (cid, inc, (e0, e1, e2)) in enumerate(faces):
            layout = _side_layout(tri, cid, (weights[e0], weights[e1], weights[e2]))
            layouts.append(layout)
            nodes = layout.slot_nodes[inc]
            n = layout.n
            for pair in matchings[f]:
                a, b = pair
                if not (0 <= a < n and 0 <= b < n):
                    raise SemanticError(
                        "arc {} of face {} of tet {} names a slot outside the "
                        "face's {} slots".format(pair, f, tet, n)
                    )
                na, nb = nodes[a], nodes[b]
                arcs.append(((f, pair), na))
                joined.setdefault(na, []).append(nb)
                joined.setdefault(nb, []).append(na)
        # Trace closed curves; every node has exactly two incident arc ends.
        # Each walk starts at the least node not yet traced, which is the
        # least node of its curve, so curves come out in canonical order.
        curves = []
        visited = set()
        for start in sorted(joined):
            if start in visited:
                continue
            walk = []
            node = start
            prev = None
            while True:
                walk.append(node)
                visited.add(node)
                ends = joined[node]
                if len(ends) != 2:
                    raise SemanticError(
                        "point {} of tet {} does not meet exactly two arcs".format(
                            node, tet
                        )
                    )
                nxt = ends[0] if ends[0] != prev else ends[1]
                prev = node
                node = nxt
                if node == start:
                    break
            curves.append(tuple(sorted(walk)))
        self.curves = tuple(curves)
        self.node_curve = node_curve = {}
        for c, nodes in enumerate(curves):
            for node in nodes:
                node_curve[node] = c
        # Curve of each arc copy, keyed (face, chord pair), in arc-copy order.
        self.arc_curve = {arc: node_curve[node] for arc, node in arcs}
        self._build_regions(matchings, layouts, edge_sides)

    def _build_regions(self, matchings, layouts, edge_sides):
        # Atoms: (face, local region id) over each face's chord subdivision.
        face_regions = []
        offsets = []
        total = 0
        for f, layout in enumerate(layouts):
            count, gap_region, chord_sides = _face_chord_regions(layout.n, matchings[f])
            face_regions.append((layout, gap_region, chord_sides))
            offsets.append(total)
            total += count
        uf = _UnionFind(total)
        find, union = uf.find, uf.union
        # The two faces on each tet edge meet along it in its w + 1 gaps.
        for (fa, ka), (fb, kb) in edge_sides:
            oa, ra = offsets[fa], face_regions[fa][1]
            ob, rb = offsets[fb], face_regions[fb][1]
            for ga, gb in zip(layouts[fa].class_gaps[ka], layouts[fb].class_gaps[kb]):
                union(oa + ra[ga], ob + rb[gb])

        self._find = find
        self._offsets = offsets
        self._face_regions = face_regions
        roots = sorted({find(x) for x in range(total)})
        self.regions = roots
        if len(roots) != len(self.curves) + 1:
            raise SemanticError(
                "tet {}: curve system does not cut the boundary sphere into "
                "curves+1 regions".format(self.tet)
            )
        # Two regions adjacent to each curve, via its first arc copy.
        adj = [None] * len(self.curves)
        for (f, pair), c in self.arc_curve.items():
            if adj[c] is None:
                outer, inner = face_regions[f][2][pair]
                adj[c] = (find(offsets[f] + outer), find(offsets[f] + inner))
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
        self._layouts = None
        self._text = None
        self._validation = None

    # -- cached geometry ---------------------------------------------------

    def face_layout(self, cid):
        """The face class's layout at this surface's weights, kept per
        surface so that a lookup hashes neither weights nor triangulation."""
        layouts = self._layouts
        if layouts is None:
            layouts = self._layouts = [None] * len(self.tri.face_classes)
        layout = layouts[cid]
        if layout is None:
            layout = layouts[cid] = _face_layout(self.tri, self.weights, cid)
        return layout

    def face_regions(self, cid):
        return _face_chord_regions(self.face_layout(cid).n, self.matchings[cid])

    def tet_geometry(self, tet):
        """The tetrahedron's curve system, from this surface's own cache
        or else the module-level ``tet_geometry`` on the tet's local data."""
        geo = self._tets.get(tet)
        if geo is None:
            geo = self._tets[tet] = tet_geometry_of(self.tri, self.weights, self.matchings, tet)
        return geo

    def release_geometry(self):
        """Drop this surface's per-tet geometry and face layout references;
        the shared memos keep recently used ones."""
        self._tets = {}
        self._layouts = None

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
            crossing = face_crossing(cid, pairs)
            if crossing:
                return crossing
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
            for (f, pair), curve in geo.arc_curve.items():
                cid = tri.face_class_of[(tet, f)]
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
        index = {("pt", e, i): n for n, (e, i) in enumerate(points)}
        links = []
        for (cid, pair), data in arcs.items():
            arc = index.setdefault(("arc", cid, pair), len(index))
            for e, i in data["points"]:
                links.append((arc, index[("pt", e, i)]))
            for tet, piece, _, _, _ in data["attach"]:
                links.append((arc, index.setdefault(("pc", tet, piece[1]), len(index))))
        uf = _UnionFind(len(index))
        for x, y in links:
            uf.union(x, y)
        groups = {}
        for tag, n in index.items():
            groups.setdefault(uf.find(n), set()).add(tag)
        return sorted((frozenset(g) for g in groups.values()), key=sorted)

    def orientable(self):
        """Whether the surface admits a consistent transverse orientation."""
        _, arcs = self._cells()
        side_cache = {}

        def curve_sides(tet, curve):
            key = (tet, curve)
            if key not in side_cache:
                side_cache[key] = self.tet_geometry(tet).curve_sides(curve)
            return side_cache[key]

        index = {}
        relations = []
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
                bits.append((index.setdefault(piece, len(index)), bit))
            (p1, b1), (p2, b2) = bits
            relations.append((p1, p2, 1 if b1 == b2 else -1))
        uf = _SignedUnionFind(len(index))
        for p1, p2, rel in relations:
            uf.union(p1, p2, rel)
        return not uf.contradiction

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
    weights = tuple(weights)
    matchings = []
    for cid in range(len(tri.face_classes)):
        layout = _face_layout(tri, weights, cid)
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
                surf._validation = CRUDELY_ALMOST_NORMAL
                yield surf
