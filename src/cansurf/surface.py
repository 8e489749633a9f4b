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

Encodings are value objects: equality and hashing reduce to the
canonical text serialization, which is also the canonical key, and
whose grammar is::

    edges: <w_0> <w_1> ... <w_{E-1}>
    face <c>: <a>-<b> <a>-<b> ...      # one line per face class, slots a<b
    tet <t>: disks                      # or: annulus <i> <j> (curve ids)

Lines starting with '#' are comments, and no line may repeat another's
head.  The serializer emits every face and tetrahedron line in class
order with pairs sorted, so equal strings mean equal encodings and
conversely.

Geometry is a function of local data, memoized process-wide.  A
``FaceLayout`` depends only on its face's three side weights, and a
``TetGeometry`` only on its tetrahedron's six edge weights and four face
matchings.  ``tet_geometry_of``, the one geometry entry point, keeps
each ``TetGeometry`` in ``_tet_memo`` under exactly that data, so
surfaces that agree on a tetrahedron share one curve system there; it
also reads the curves of an encoding that has not been built as a
``Surface``, as a move does for its result.  The tet memo is a
``functools.lru_cache`` of ``_TET_MEMO_ENTRIES`` (16,384) entries, which
holds the tet states a closure keeps coming back to, the 16,000 of the
2-tet vertex link's closure at budget 10 included (see that constant);
each ``Surface`` also keeps its own tetrahedra's geometry.  Since the
memo keeps every entry it holds, a ``TetGeometry`` keeps flat tuples of
ints and pointers to shared tables only, about 1 KB an entry on 2
tetrahedra: the curve of every point, the curve count, the two regions
beside each curve and the region of every face region, with each face's
layout and its row's chord regions (``_face_chord_regions``).  A curve's
nodes and the curve of an arc are read off the point table when asked
for.

Slot arithmetic has one owner per input.  What depends on the
triangulation alone lives on it: ``face_sides`` (each face class's sides
in slot order), ``edge_sides`` and the per-tetrahedron ``tet_frames``.
What also depends on the three side weights of a face lives on its
``FaceLayout``, one per (sides, side weights), built by ``face_layout``
and cached in ``_side_layout``: the weight and first slot of each side
(``side_w``, ``side_start``), from which ``moves._carry`` re-indexes a
whole face side by side when weights change; ``point_of_slot`` and
``slot_of_point``, which number one slot; and two tables a trace reads,
the node (tetrahedron edge, class point index) of every slot per
incidence and the circular gap of every class-order gap per side.
``Surface.face_layout`` keeps each surface's layouts in a list.

Matching rows are interned.  ``Surface`` normalizes each row it does not
share with its source through ``_interned``, one table keyed by the row
that maps it to its sorted row, so equal rows come back as one object.
What depends on a row alone is computed once per process, each in a
``functools.lru_cache`` of ``_ROW_ENTRIES`` (16,384) entries: the face's
text line (``_face_line``, by face class and row); the face's verdict in
``validate``, odd slot count, perfect pairing or crossing
(``_face_verdict``, by face class, slot count and row); the planar
reconnection of two arcs that the moves make (``_planar_reconnection``,
by its arguments); and two tables that candidate generation in
``moves`` reads: what an E1 move reads on each side of a face
(``_side_arcs``, by face layout and row) and the pairs of arcs a face
move can reconnect (``_band_pattern``, by row and the pattern of the
arcs' losing-side curves, behind ``_band_pairs``).  The chord regions
of a row, with the arcs beside each region (``_face_chord_regions``, by
slot count and row), serve the tet traces, ``Surface.chord_regions``
and both generation tables.  The 2-tet vertex link's closure at budget
10 needs 268 rows, 617 face lines and verdicts and 1,433
reconnections.  Generation on the weight-2 sphere's closure on 2 tets
at budget 6 (349 surfaces) fills 67 entries of ``_side_arcs`` and 95 of
``_band_pattern``, each about 300 B; keyed by the curve labels
themselves rather than their pattern, band pairs took 382.  Every slot,
weight and annulus curve id a ``Surface`` holds is an ``int``, since
``True`` and ``1.0`` would key the same entries as ``1``: the
constructor refuses anything else.

A move builds its result from a valid *source* surface and reuses what
the move did not touch: a face class's matching tuple or a tetrahedron's
annulus tuple that is the source's own object is kept, not re-sorted.
The *footprint* of the result is what may differ: the face classes whose
side weights changed or whose matching is not the source's object, and
the tetrahedra of those faces or whose annulus tuple is not the source's
object.  The constructor finds the rows, annuli and weights that differ
from the source's in C-level passes (``itertools.compress`` over
``operator.is_not`` or ``operator.ne``), so its Python-level work
follows the footprint, not the triangulation: it normalizes and formats
only the rows, annuli and weights that changed, takes the source's own
text line object for everything else, takes the source's geometry
outside the footprint, keeps the geometry the move traced inside it, and
keeps no reference to the source.  ``validate`` then checks only the
footprint, in the order a full check would, so it gives a full check's
verdict.  Weights compare by value and tuples by identity.  A rebuilt
row equal to the source's is interned to the source's own object while
the row table holds it, so it stays out of the footprint; once the table
has dropped it, the equal row only makes the footprint larger.  The source of a PINCH or fused
V0+ result is not the surface the move applies to but that surface with
the sphere inserted (see ``moves``), which differs from the result in
the tubed tetrahedron alone.  A surface parsed or built without a
source is checked in full.

Every surface holds its canonical lines, the edges line, one line per
face class and one per tetrahedron, and joins its text from them once,
when it is built; a surface without a source formats every line.

A surface's *support* (``Surface.support``) is where it has cells: the
face classes with arcs and the tetrahedra they bound, which are the
tetrahedra with a nonzero edge weight.  ``moves`` proposes candidates
from the support alone.

The cells with their incidences, which ``components``, ``orientable``
and ``genus`` read, are built in ``cansurf.topology``, and so are the
components; no build, export or replay needs them, so that module is
loaded on first use.
"""

import bisect
import functools
import hashlib
import itertools
import operator

from .errors import ParseError, SemanticError
from .triangulation import _UnionFind, _parity_classes

CRUDELY_NORMAL = "crudely_normal"
CRUDELY_ALMOST_NORMAL = "crudely_almost_normal"
_VALID = (CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL)

# Each per-row table holds at most this many entries.  The weight-2
# sphere's closure on 2 tets at budget 6 holds 70 distinct matching rows,
# and the 2-tet vertex link's at budget 10 a few hundred.
_ROW_ENTRIES = 1 << 14


def pairs_cross(p, q):
    """Whether two chords of a circle interleave.  Pairs are (a, b), a < b,
    with endpoints numbered around the circle; the test is cut-invariant."""
    (a, b), (c, d) = p, q
    return (a < c < b < d) or (c < a < d < b)


def face_crossing(cid, pairs):
    """The validation failure naming the first two crossing arcs among
    face class cid's pairs, or None when no two cross.  Every two pairs
    are tried, but ``validate`` and the moves ask once per distinct row
    (see ``_face_verdict``)."""
    for p, q in itertools.combinations(pairs, 2):
        if pairs_cross(p, q):
            return "invalid: face {} arcs {} and {} cross".format(cid, p, q)
    return None


@functools.lru_cache(maxsize=1 << 16)
def _face_chord_regions(n, pairs):
    """Planar regions of a disk cut by non-crossing chords.

    Returns (region_count, gap_region, chord_sides, beside) where gap g
    is the boundary interval between slots g-1 and g (mod n),
    gap_region[g] is the region touching it, chord_sides[pair] = (outer,
    inner), the two regions adjacent to the chord, and beside[r] lists
    the chords beside region r in order.  A face with no slots is a
    single region.  Shared, so read-only.
    """
    if n == 0:
        return 1, [0], {}, [[]]
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    gap_region = [0] * n
    chord_sides = {}
    beside = [[]]
    stack = []
    current = 0
    for s in range(n):
        gap_region[s] = current
        if s not in partner:
            raise SemanticError("slot {} is unmatched".format(s))
        if partner[s] > s:
            chord = (s, partner[s])
            inner = len(beside)
            chord_sides[chord] = (current, inner)
            beside[current].append(chord)
            beside.append([chord])
            stack.append(current)
            current = inner
        else:
            current = stack.pop()
    if current != 0 or stack:
        raise SemanticError("matching is not balanced")
    return len(beside), gap_region, chord_sides, beside


@functools.lru_cache(maxsize=_ROW_ENTRIES)
def _planar_reconnection(rest, p, q, r, s):
    """Two new arcs joining p and q to r and s, one each, that cross
    neither each other nor the non-crossing arcs in ``rest``; p-r, q-s is
    tried first.  None when neither way is planar.  Kept for the last
    16,384 argument tuples; every caller passes int slots of a valid
    surface's rows."""
    for first, second in (((p, r), (q, s)), ((p, s), (q, r))):
        new = (tuple(sorted(first)), tuple(sorted(second)))
        if not any(pairs_cross(a, b) for a in new for b in rest + new):
            return new
    return None


@functools.lru_cache(maxsize=_ROW_ENTRIES)
def _side_arcs(layout, row):
    """What an E1 move reads on each side of a face with this layout and
    row, per side: the arcs beside each class-order gap 0..w (see
    ``FaceLayout.class_gaps``), their count, and the class points i that
    a returning arc joins to point i + 1, which it does when the region
    of the gap between them is that arc's inside.  Shared, so
    read-only."""
    _, gap_region, _, beside = _face_chord_regions(layout.n, row)
    table = []
    for gaps in layout.class_gaps:
        near = tuple([beside[gap_region[g]] for g in gaps])
        joined = [i for i, g in enumerate(gaps[1:-1]) if near[i + 1] == [(g - 1, g)]]
        table.append((near, sum(map(len, near)), joined))
    return tuple(table)


def _band_pairs(row, lose, annulus):
    """The pairs of arcs of a face with this row, in order, that lie
    beside one of its chord regions and whose losing-side curves
    (``lose``, one per arc in row order) are one curve off the losing
    tetrahedron's ``annulus`` pair or the two curves of that pair: the
    only pairs ``moves._f2_kind`` can accept.  They depend on the labels
    only up to the curves' names, so they are kept per row and label
    pattern (``_band_pattern``): the pair's curves named -1 and -2 and
    every other curve 0, 1, ... by its first arc."""
    names = dict(zip(annulus, (-1, -2)))
    return _band_pattern(row, tuple([names.setdefault(c, len(names) - len(annulus))
                                     for c in lose]))


@functools.lru_cache(maxsize=_ROW_ENTRIES)
def _band_pattern(row, lose):
    """``_band_pairs`` for labels named as it names them.  Shared, so
    read-only."""
    curve = dict(zip(row, lose))
    pairs = []
    for arcs in _face_chord_regions(2 * len(row), row)[3]:
        buckets = {}
        for arc in arcs:
            buckets.setdefault(curve[arc], []).append(arc)
        for c, bucket in buckets.items():
            if c >= 0:
                pairs += itertools.combinations(bucket, 2)
        across = itertools.product(buckets.get(-1, ()), buckets.get(-2, ()))
        pairs += (tuple(sorted(pair)) for pair in across)
    return tuple(pairs)


class FaceLayout:
    """Slot bookkeeping for one face class at given side weights.

    ``sides`` is the face class's entry of ``Triangulation.face_sides``
    and ``side_w`` the weights of its three sides.  Slots number the
    points on the sides in slot order; a layout does not depend on the
    matchings, so it is shared by every encoding that agrees there.
    """

    def __init__(self, sides, side_w):
        self.sides = sides
        self.side_w = side_w
        self.side_start = (0, side_w[0], side_w[0] + side_w[1])
        self.n = sum(side_w)

    # Tables for TetGeometry, built on its first trace through this layout.

    @functools.cached_property
    def slot_nodes(self):
        """Per incidence, the node (tet edge, class point index) of every
        slot, with points numbered as point_of_slot numbers them."""
        nodes = ([], [])
        for (_, net, *tet_edges), w in zip(self.sides, self.side_w):
            points = range(w) if net > 0 else range(w - 1, -1, -1)
            for inc in (0, 1):
                nodes[inc].extend([(tet_edges[inc], i) for i in points])
        return tuple(nodes[0]), tuple(nodes[1])

    @functools.cached_property
    def class_gaps(self):
        """Per side, the circular gap of every class-order gap 0..w: gap q
        lies between class points q - 1 and q, and circular gap g between
        slots g - 1 and g."""
        if self.n == 0:
            return ((0,),) * 3
        return tuple(
            tuple([(start + j) % self.n for j in (range(w + 1) if net > 0 else range(w, -1, -1))])
            for start, w, (_, net, _, _) in zip(self.side_start, self.side_w, self.sides)
        )

    def point_of_slot(self, s):
        """The (edge class, class point index) of boundary slot s."""
        k = (s >= self.side_start[1]) + (s >= self.side_start[2])
        j = s - self.side_start[k]
        e, net = self.sides[k][:2]
        return e, (j if net > 0 else self.side_w[k] - 1 - j)

    def slot_of_point(self, k, i):
        """The slot on side k carrying class point index i."""
        j = i if self.sides[k][1] > 0 else self.side_w[k] - 1 - i
        return self.side_start[k] + j

    def corner_gap(self, m):
        """Circular gap containing corner m of the representative triangle,
        where side m starts."""
        if self.n == 0:
            return 0
        return self.side_start[m] % self.n


@functools.lru_cache(maxsize=1 << 14)
def _side_layout(sides, side_w):
    return FaceLayout(sides, side_w)


def face_layout(tri, weights, cid):
    """The layout of face class cid at these edge class weights."""
    sides = tri.face_sides[cid]
    return _side_layout(sides, (weights[sides[0][0]], weights[sides[1][0]], weights[sides[2][0]]))


# The tet-geometry memo holds at most this many entries: at 1.2 KB or
# less each they stay under a 20 MB ceiling.  Entries measured with
# tracemalloc, key and memo slot included, cost about 1.0 KB on the 2-tet
# closures up to weight 8 (1,053 B for the weight-2 sphere's at budget 6,
# 1,092 B for the vertex link's at budget 8) and 0.5 KB on the 48-tet
# subdivision (505 B for the vertex link's at budget 12), besides the
# shared tables they point into, such as ``_prefix_sums``.
# A closure's working set fits: the weight-2 sphere on 2 tets at budget 6
# visits 415 tet states, and the 2-tet vertex link at budget 10 visits
# 16,000, so its CLI run traces each once, not 28,830 times as at 4,096
# entries, and peaks at 74.1 MB, not 83.5 MB.
_TET_MEMO_ENTRIES = 1 << 14


def tet_geometry_of(tri, weights, matchings, tet):
    """The curve system (see TetGeometry) of tet in the encoding with
    these edge class weights and face class matchings, which need not be
    built as a Surface.  Matchings must be normalized as ``Surface``
    stores them: each pair sorted, each face's pairs sorted.

    Looked up in the process-wide ``_tet_memo`` under the tet's six edge
    weights and four face matchings, and traced only on a miss."""
    edges, faces = tri.tet_local_getters[tet]
    return _tet_memo(tri, tet, edges(weights), faces(matchings))


@functools.lru_cache(maxsize=_TET_MEMO_ENTRIES)
def _tet_memo(tri, tet, weights, matchings):
    # TetGeometry is looked up at call time, so a subclass patched in
    # sees every trace; a tracing error is raised, not cached.
    return TetGeometry(tri, tet, weights, matchings)


@functools.lru_cache(maxsize=1 << 12)
def _prefix_sums(counts):
    """Where each of these counts starts when they are laid end to end,
    and their total last: by a tetrahedron's six edge weights, where each
    edge's points start in its point table, and by its four faces' region
    counts, where each face's atoms start.  One tuple per counts, shared."""
    return (0, *itertools.accumulate(counts))


class TetGeometry:
    """Curves and complementary regions on one tetrahedron's boundary.

    A function of the tetrahedron's local data alone: ``weights`` holds
    the weights of its edges 0..5 and ``matchings`` the matchings of its
    faces 0..3, each in its face class's slots.  One instance is shared by
    every surface that agrees there, so it must not be mutated.

    The tet memo keeps every instance, so an instance holds flat tuples
    and shared tables only: the curve of every point, numbered edge by
    edge from the edge's offset (``point_curve``); ``curve_count``; the
    two region roots beside each curve, which join the regions as a tree,
    as one tuple of two per curve (``curves_sharing_region``,
    ``curves_beside``, ``count_beside``); and the region root of every atom, a region of a
    face cut by its arcs, numbered face by face from the face's offset,
    with each face's layout and shared chord regions.  A curve's nodes
    (``curve_nodes``, the least first) and the curve of an arc copy, that
    of its first slot's point (``arc_curves``), are read off the point
    table when asked for.  The set of regions is the set of the roots.
    """

    __slots__ = ("tet", "curve_count", "_frame", "_offsets", "_points", "_sides", "_faces",
                 "_atoms", "_root")

    def __init__(self, tri, tet, weights, matchings):
        self.tet = tet
        self._frame = frame = tri.tet_frames[tet]
        self._offsets = off = _prefix_sums(weights)
        face_sides = tri.face_sides
        # Each point lists the points its arc ends join it to, in arc order.
        joined = [[] for _ in range(off[6])]
        layouts = []
        for f, (cid, inc, (e0, e1, e2)) in enumerate(frame[0]):
            layout = _side_layout(face_sides[cid], (weights[e0], weights[e1], weights[e2]))
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
                (ea, ia), (eb, ib) = nodes[a], nodes[b]
                pa, pb = off[ea] + ia, off[eb] + ib
                joined[pa].append(pb)
                joined[pb].append(pa)
        # Trace closed curves; every point has exactly two incident arc ends.
        # Each walk starts at the least point not yet traced, which is the
        # least point of its curve, so curves come out in canonical order.
        # A point no arc meets is left for the chord regions to refuse.
        points = [None] * off[6]
        count = 0
        for start, ends in enumerate(joined):
            if points[start] is not None or not ends:
                continue
            node = prev = start
            while points[node] is None:
                points[node] = count
                ends = joined[node]
                if len(ends) != 2:
                    e = bisect.bisect(off, node) - 1
                    raise SemanticError(
                        "point {} of tet {} does not meet exactly two arcs".format(
                            (e, node - off[e]), tet
                        )
                    )
                prev, node = node, ends[ends[0] == prev]
            count += 1
        self._points = tuple(points)
        self.curve_count = count
        # Per face its layout and its shared chord regions, face by face.
        faces = []
        for layout, row in zip(layouts, matchings):
            faces += layout, _face_chord_regions(layout.n, row)
        self._faces = faces = tuple(faces)
        self._atoms = atoms = _prefix_sums((faces[1][0], faces[3][0], faces[5][0], faces[7][0]))
        uf = _UnionFind(atoms[4])
        union = uf.union
        # The two faces on each tet edge meet along it in its w + 1 gaps.
        for (fa, ka), (fb, kb) in frame[1]:
            ra, rb = faces[2 * fa + 1][1], faces[2 * fb + 1][1]
            oa, ob = atoms[fa], atoms[fb]
            for ga, gb in zip(layouts[fa].class_gaps[ka], layouts[fb].class_gaps[kb]):
                union(oa + ra[ga], ob + rb[gb])
        self._root = root = tuple(map(uf.find, range(atoms[4])))
        if len(set(root)) != count + 1:
            raise SemanticError(
                "tet {}: curve system does not cut the boundary sphere into "
                "curves+1 regions".format(tet)
            )
        # Two regions beside each curve, via its first arc copy.
        sides = [None] * (2 * count)
        for f, layout in enumerate(layouts if count else ()):
            nodes = layout.slot_nodes[frame[0][f][1]]
            chord_sides, first = faces[2 * f + 1][2], atoms[f]
            for pair in matchings[f]:
                e, i = nodes[pair[0]]
                c = 2 * points[off[e] + i]
                if sides[c] is None:
                    outer, inner = chord_sides[pair]
                    sides[c], sides[c + 1] = root[first + outer], root[first + inner]
        self._sides = tuple(sides)

    def point_curve(self, e, i):
        """The curve through point i of tet edge e, or None when the edge
        has no such point."""
        off = self._offsets
        return self._points[off[e] + i] if 0 <= i < off[e + 1] - off[e] else None

    def curve_nodes(self, c):
        """Curve c's nodes (tet edge, point index) in order, the least
        first, each found as it is asked for."""
        off, points = self._offsets, self._points
        e = 0
        for p in range(points.index(c), len(points)):
            if points[p] == c:
                while off[e + 1] <= p:
                    e += 1
                yield e, p - off[e]

    def arc_curves(self, f, arcs):
        """{arc: the curve through it} for arc copies of face f (0..3),
        each of which must be an arc of that face."""
        nodes = self._faces[2 * f].slot_nodes[self._frame[0][f][1]]
        off, points = self._offsets, self._points
        return {arc: points[off[e] + i] for arc in arcs for e, i in [nodes[arc[0]]]}

    def chord_side_roots(self, f, pair):
        """Region roots on the (outer, inner) sides of an arc copy."""
        outer, inner = self._faces[2 * f + 1][2][pair]
        return self._root[self._atoms[f] + outer], self._root[self._atoms[f] + inner]

    def corner_region(self, corner):
        """Region root at a tetrahedron corner."""
        f, m = self._frame[2][corner]
        gap = self._faces[2 * f].corner_gap(m)
        return self._root[self._atoms[f] + self._faces[2 * f + 1][1][gap]]

    def curve_regions(self, c):
        """The region roots on the two sides of curve c."""
        return self._sides[2 * c:2 * c + 2]

    def curves_beside(self, region):
        """The curves with the region on one side, in order."""
        return [k >> 1 for k, r in enumerate(self._sides) if r == region]

    def count_beside(self, region):
        """How many curves have the region on one side."""
        return self._sides.count(region)

    def curves_sharing_region(self, c1, c2):
        sides = self._sides
        return not {sides[2 * c1], sides[2 * c1 + 1]}.isdisjoint(sides[2 * c2:2 * c2 + 2])


def _sorted_row(row):
    """A row of pairs with every pair sorted and the pairs in order."""
    return tuple(sorted([tuple(sorted(p)) for p in row]))


def _int_row(row):
    """Whether a row is a tuple of tuple pairs of ints (not bools, which
    would key an int row's cache entries), as ``Surface`` holds rows."""
    return type(row) is tuple and all(
        [type(p) is tuple and len(p) == 2 and type(p[0]) is int is type(p[1]) for p in row]
    )


def _int_pairs(row, place, k):
    """``row`` as a tuple of pairs of ints, or a SemanticError naming
    ``place.format(k)`` when it is not a sequence of pairs of ints."""
    if _int_row(row):
        return row
    try:
        pairs = tuple(map(tuple, row))
    except TypeError:
        pairs = row
    if not _int_row(pairs):
        raise SemanticError("{}: {!r} is not a sequence of pairs of integers".format(
            place.format(k), row))
    return pairs


@functools.lru_cache(maxsize=_ROW_ENTRIES)
def _interned(row):
    # A sorted row is its own entry, and any other row maps to its sorted
    # row's entry, so equal rows come back as one object.
    normal = _sorted_row(row)
    return row if normal == row else _interned(normal)


def _edges_line(weights):
    return "edges: " + " ".join(map(str, weights))


@functools.lru_cache(maxsize=_ROW_ENTRIES)
def _face_line(cid, pairs):
    return "face {}:".format(cid) + "".join([" {}-{}".format(a, b) for a, b in pairs])


@functools.lru_cache(maxsize=_ROW_ENTRIES)
def _face_verdict(cid, n, pairs):
    """What ``validate`` says of face class cid with this row over n
    slots: an odd slot count, no perfect pairing of slots 0..n-1, or the
    first crossing; None when the face passes."""
    if n % 2:
        return "invalid: face {} has an odd number of boundary points".format(cid)
    slots = [s for p in pairs for s in p]
    # The count first: n comes from the weights, so range(n) may not fit.
    if len(slots) != n or sorted(slots) != list(range(n)):
        return "invalid: face {} matching is not a perfect pairing".format(cid)
    return face_crossing(cid, pairs)


def _tet_line(tet, pairs):
    if not pairs:
        return "tet {}: disks".format(tet)
    return "tet {}: ".format(tet) + " ".join(["annulus {} {}".format(a, b) for a, b in pairs])


class Surface:
    """An immutable surface encoding over a fixed triangulation.

    ``weights`` is one integer per edge class, ``matchings`` one pair
    tuple per face class, and ``annuli`` one tuple of curve-id pairs per
    tetrahedron (empty for all-disk tetrahedra; more than one pair is
    representable but invalid), each normalized to sorted tuples.
    Construction refuses a weight, slot or curve id that is not an ``int``
    (a ``bool`` is not one), or a row or annulus entry that is not a
    sequence of pairs, with a ``SemanticError`` naming its edge class,
    face class or tetrahedron, and a whole vector that is not a sequence
    with one naming the vector; ``validate`` classifies everything else.

    ``source``, when given, is a surface classified valid on the same
    triangulation, the same object or an equal one, with as many face
    classes and tetrahedra, such as the surface a move applies to; any
    other is ignored.  Rows that are its
    own tuples are kept without normalizing them, and the result takes
    the source's lines and is built from it over the footprint only (see
    the module docstring).
    ``geometry``, when given, maps tetrahedra to the ``TetGeometry``
    already traced for them on these weights and matchings, as a move
    traces some of its result's; the surface keeps it, so that
    validation does not look it up again.
    """

    def __init__(self, tri, weights, matchings, annuli=None, source=None, geometry=None):
        self.tri = tri
        if annuli is None:
            annuli = [()] * tri.tet_count
        try:
            # A tuple is its own tuple, so the weights stay the source's.
            weights, rows, annuli = tuple(weights), list(matchings), list(annuli)
        except TypeError:
            for name, values in ("weights", weights), ("matchings", matchings), ("annuli", annuli):
                try:
                    iter(values)
                except TypeError:
                    raise SemanticError("{}: {!r} is not a sequence".format(name, values)) from None
            raise
        # An equal triangulation parsed again is the same triangulation.
        if source is not None and (source._validation not in _VALID
                                   or (source.tri is not tri and source.tri != tri)
                                   or len(rows) != len(source.matchings)
                                   or len(annuli) != len(source.annuli)):
            source = None
        self.weights = weights
        self._layouts = None
        if source is not None and weights is source.weights:
            # Same weights, same face layouts: share the source's list.
            self._layouts = source._layouts
        elif not {int}.issuperset(map(type, weights)):
            e = next(e for e, w in enumerate(weights) if type(w) is not int)
            raise SemanticError("edge class {}: weight {!r} is not an integer".format(
                e, weights[e]))
        faces, tets = range(len(rows)), range(len(annuli))
        if source is None:
            lines = [_edges_line(self.weights)] + [None] * (len(rows) + len(annuli))
        else:
            lines = list(source._lines)
            # Only the rows and annuli that are not the source's own objects.
            faces = list(itertools.compress(faces, map(operator.is_not, rows, source.matchings)))
            tets = list(itertools.compress(tets, map(operator.is_not, annuli, source.annuli)))
        changed = []
        for k in faces:
            rows[k] = row = _interned(_int_pairs(rows[k], "face class {} matching", k))
            # A row interned to the source's own object keeps its line and
            # is out of the footprint.
            if source is None or row is not source.matchings[k]:
                lines[1 + k] = _face_line(k, row)
                changed.append(k)
        for tet in tets:
            annuli[tet] = pairs = _sorted_row(_int_pairs(annuli[tet], "tet {} annuli", tet))
            lines[1 + len(rows) + tet] = _tet_line(tet, pairs)
        moved = ()
        if source is not None and self.weights is not source.weights:
            moved = list(itertools.compress(
                itertools.count(), map(operator.ne, self.weights, source.weights)
            ))
            if moved:
                lines[0] = _edges_line(self.weights)
        self.matchings = tuple(rows)
        self.annuli = tuple(annuli)
        self._lines = lines
        self._text = "\n".join(lines) + "\n"
        self._tets = dict(geometry or ())
        self._validation = None
        self._cell_data = None
        # (face classes, tetrahedra) left to validate; None means all.
        self._footprint = None
        if source is None:
            return
        faces = set(changed)
        for e in moved:
            faces.update(cid for cid, _ in tri.edge_sides[e])
        tets = set(tets)
        for cid in faces:
            tets.update(tet for tet, _ in tri.face_classes[cid])
        self._footprint = sorted(faces), sorted(tets)
        # The source's geometry outside the footprint; None is untraced.
        self._tets = {**source._tets, **dict.fromkeys(tets), **self._tets}

    # -- cached geometry ---------------------------------------------------

    def face_layout(self, cid):
        """The face class's layout at this surface's weights, kept per
        surface so that a lookup hashes neither weights nor triangulation."""
        layouts = self._layouts
        if layouts is None:
            layouts = self._layouts = [None] * len(self.tri.face_classes)
        layout = layouts[cid]
        if layout is None:
            layout = layouts[cid] = face_layout(self.tri, self.weights, cid)
        return layout

    def chord_regions(self, cid):
        """Face class cid's chord regions (see ``_face_chord_regions``):
        region count, ``gap_region``, ``chord_sides`` and, per region, the
        arcs beside it in order; shared, so read-only."""
        return _face_chord_regions(self.face_layout(cid).n, self.matchings[cid])

    def arc_labels(self, cid, arcs):
        """Per incidence of face class cid, {arc: its curve in that
        incidence's tetrahedron} for these arcs of the face."""
        return tuple(
            self.tet_geometry(t).arc_curves(f, arcs) for t, f in self.tri.face_classes[cid]
        )

    def tet_geometry(self, tet):
        """The tetrahedron's curve system, from this surface's own cache
        or else ``tet_geometry_of``."""
        geo = self._tets.get(tet)
        if geo is None:
            geo = self._tets[tet] = tet_geometry_of(self.tri, self.weights, self.matchings, tet)
        return geo

    def release_geometry(self):
        """Drop this surface's per-tet geometry and face layout
        references; the shared memos keep recently used geometry."""
        self._tets = {}
        self._layouts = None
        self._cell_data = None

    def support(self):
        """The face classes with arcs and, in order, the tetrahedra they
        bound, which on a valid surface are those with curves."""
        faces = list(itertools.compress(itertools.count(), self.matchings))
        return faces, sorted({tet for cid in faces for tet, _ in self.tri.face_classes[cid]})

    def curves(self, tet):
        """Canonically ordered boundary curves of the given tetrahedron,
        each its nodes in order."""
        geo = self.tet_geometry(tet)
        return tuple(tuple(geo.curve_nodes(c)) for c in range(geo.curve_count))

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Classify the encoding.

        Returns CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL, or a string
        ``"invalid: <reason>"`` naming the first violated invariant.  A
        surface built from a valid source checks only its footprint.
        """
        if self._validation is None:
            self._validation = self._validate()
            self._footprint = None
        return self._validation

    def is_valid(self):
        return self.validate() in _VALID

    def _validate(self):
        """The verdict of ``validate``: over the recorded footprint, or
        over every face class and tetrahedron when there is none."""
        tri = self.tri
        if len(self.weights) != len(tri.edge_classes):
            return "invalid: weight vector length"
        if min(self.weights, default=0) < 0:
            return "invalid: negative edge weight"
        if len(self.matchings) != len(tri.face_classes):
            return "invalid: matching vector length"
        if len(self.annuli) != tri.tet_count:
            return "invalid: annulus vector length"
        if self._footprint is None:
            faces, tets = range(len(tri.face_classes)), range(tri.tet_count)
        else:
            faces, tets = self._footprint
        for cid in faces:
            failure = _face_verdict(cid, self.face_layout(cid).n, self.matchings[cid])
            if failure:
                return failure
        for tet in tets:
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
            ncurves = geo.curve_count
            if not (0 <= c1 < ncurves and 0 <= c2 < ncurves) or c1 == c2:
                return "invalid: annulus pair {} of tet {} is not two distinct curves".format(
                    (c1, c2), tet
                )
            if not geo.curves_sharing_region(c1, c2):
                return "invalid: annulus separation in tet {}".format(tet)
        # Curve tracing everywhere must succeed even for all-disk tets.
        try:
            for tet in tets:
                self.tet_geometry(tet)
        except SemanticError as exc:
            return "invalid: {}".format(exc)
        if any(self.annuli):
            return CRUDELY_ALMOST_NORMAL
        return CRUDELY_NORMAL

    def _require_valid(self):
        v = self.validate()
        if v not in _VALID:
            raise SemanticError(v)

    # -- invariants ------------------------------------------------------

    def weight(self):
        return sum(self.weights)

    def cell_counts(self):
        """(points, arcs, disk pieces, annulus pieces)."""
        self._require_valid()
        curves = sum(self.tet_geometry(tet).curve_count for tet in range(self.tri.tet_count))
        # Every curve bounds a disk but the two of each annulus pair.
        annuli = sum(map(len, self.annuli))
        return sum(self.weights), sum(map(len, self.matchings)), curves - 2 * annuli, annuli

    def euler_characteristic(self):
        points, arcs, disks, _ = self.cell_counts()
        return points - arcs + disks

    def _cached_cells(self):
        """The cells of a valid surface (see ``topology.cells``), built
        once for ``components``, ``orientable`` and ``genus`` and dropped
        with the geometry."""
        if self._cell_data is None:
            self._require_valid()
            from .topology import cells
            self._cell_data = cells(self)
        return self._cell_data

    def components(self):
        """Connected components as frozensets of cell tags (see
        ``topology.components``)."""
        from .topology import components
        return components(*self._cached_cells())

    def orientable(self):
        """Whether the surface admits a consistent transverse orientation.

        The k curves of a tetrahedron cut its boundary sphere into k + 1
        regions, joined as a tree by the curves, so the regions 2-colour
        with the two beside every curve apart.  A piece's side at an arc
        is the colour of the arc's outer region, up to one flip per piece,
        and flipping all of a piece's sides does not change whether the
        pieces' parities contradict each other."""
        _, arcs = self._cached_cells()
        colours = []
        for tet in range(self.tri.tet_count):
            geo = self.tet_geometry(tet)
            tree = zip(geo._sides[::2], geo._sides[1::2], itertools.repeat(False))
            colours.append(_parity_classes(len(geo._root), tree))
        index = {}
        relations = []
        for (_, pair), data in arcs.items():
            bits = []
            for tet, piece, f in data["attach"]:
                outer = self.tet_geometry(tet).chord_side_roots(f, pair)[0]
                bits.append((index.setdefault(piece, len(index)), colours[tet][outer][1]))
            (p1, b1), (p2, b2) = bits
            relations.append((p1, p2, b1 == b2))
        return _parity_classes(len(index), relations) is not None

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
        """The canonical text, joined from the lines once, at construction."""
        return self._text

    def canonical_key(self):
        """The canonical text, which determines the encoding (and its
        normal isotopy class, under the identifications documented in this
        module); one object per surface, so a graph and its edges share it."""
        return self.to_text()

    def short_hash(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]

    def __eq__(self, other):
        return isinstance(other, Surface) and self.tri == other.tri and (
            self.to_text() == other.to_text()
        )

    def __hash__(self):
        return hash(self.to_text())

    def __repr__(self):
        return "<Surface weight={} {}>".format(self.weight(), self.short_hash())


def empty_surface(tri):
    return Surface(
        tri,
        [0] * len(tri.edge_classes),
        [()] * len(tri.face_classes),
    )


def parse_surface(tri, text):
    """Parse the canonical surface grammar against a triangulation.  A
    line whose head repeats an earlier line's is a ParseError."""
    weights = None
    matchings = {}
    annuli = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        parts = head.split()
        if parts == ["edges"]:
            head = "edges"
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
            head = "face {}".format(cid)
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
            head = "tet {}".format(tet)
            tokens = rest.split()
            if tokens == ["disks"]:
                tokens = []
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
        if head in seen:
            raise ParseError("repeated '{}:' line".format(head), line=lineno)
        seen.add(head)
    if weights is None:
        raise SemanticError("missing 'edges:' line")
    return Surface(
        tri,
        weights,
        [matchings.get(c, ()) for c in range(len(tri.face_classes))],
        [annuli.get(t, ()) for t in range(tri.tet_count)],
    )


def _parse_canonical(tri, text):
    """The surface of a canonical text that another process printed with
    ``to_text``, keeping that text object as its own, so that a key made
    from the text is the surface's key.  The text is of a result
    ``neighbors`` returned, so valid: its annulus lines give its
    classification, with no tracing."""
    surf = parse_surface(tri, text)
    surf._text = text
    surf._validation = CRUDELY_ALMOST_NORMAL if any(surf.annuli) else CRUDELY_NORMAL
    return surf


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
    matchings = [()] * len(tri.face_classes)
    # A face class has a corner at v exactly when a side of it does.
    for cid in {cid for e, _ in tri.vertex_edge_ends[v] for cid, _ in tri.edge_sides[e]}:
        (t, f), _ = tri.face_classes[cid]
        layout = face_layout(tri, weights, cid)
        pairs = []
        # Side m of the representative starts at its m-th corner.
        for m, u in enumerate([u for u in range(4) if u != f]):
            if tri.vertex_class_of[(t, u)] != v:
                continue
            gap = layout.corner_gap(m)
            pairs.append(((gap - 1) % layout.n, gap))
        matchings[cid] = tuple(pairs)
    return Surface(tri, weights, matchings)
