"""Elementary moves and pinches as invertible local rewrites.

Every move takes a valid surface encoding to a valid one and carries the
data needed to apply it; ``apply_with_inverse`` also returns the exact
inverse move, expressed against the resulting encoding, so that replaying
``m`` then ``inverse(m)`` restores the original canonical key.

Move kinds
----------

``V0`` (vertex): emit or absorb an innermost bubble parallel to the
vertex link of a vertex class v: one new point at the v end of every
incident edge-end, a corner arc in every face corner at v, and a corner
disk in every tetrahedron corner at v.  In the *fused* form the bubble's
corner disk in one chosen tetrahedron corner is merged with an existing
disk piece into an annulus (the neck of a finger of that piece denting
across the vertex), which is an isotopy and preserves all topological
invariants.  In the *free* form the bubble is a separate sphere sheet;
this is supported by ``apply`` but is surgery, not isotopy, so the
neighbour generator never emits it.  Weight delta: +-vertex degree.
The bubble is the vertex-link sphere of v at its catalog placement: the
fused V0 is the PINCH of that sphere, with the partner as the surface
curve and the corner's curve as the sphere curve, and the fused V0- the
matching UNPINCH; both are recorded as V0.

``E1`` (edge): push a finger of the surface across a segment of an edge
class, inserting two consecutive points into a chosen gap.  In every face
around the edge except one, the new points are joined by an innermost
returning arc; in the chosen face an existing arc adjacent to the gap is
cut and rerouted through the new points.  Requires edge degree >= 2.
Weight delta: +-2.

``F2`` / ``F2'`` (face): reconnect two arcs of one face that bound a
common region, modelling a saddle tangency with the face.  The move names
a *gaining* side: the tetrahedron the saddle band moves into.  On the
losing side the band's strands must form one piece (a disk met twice, or
the two curves of the annulus pair); on the gaining side, merging strands
join two disks into one, and same-curve strands split a disk into the
new annulus pair.  The band splits one curve of each tetrahedron into
two or joins two into one, so the kind is decided before the move: it is
``F2`` when the two arcs lie on one curve in the losing tetrahedron
exactly when they do in the gaining one (these moves change the number
of annulus pieces), and ``F2'`` otherwise (annulus count is preserved).
This is the same as asking for a single curve in both tetrahedra on one
end of the move, so the labelling is invariant under inversion.  Face
classes glued to the same tetrahedron on both sides are not eligible.
Weight delta: 0.

``PINCH`` / ``UNPINCH``: tube the surface to a catalog sphere inside one
tetrahedron, replacing the two disk pieces on the chosen curves by an
annulus pair, or split such an annulus and delete the sphere component.
Vertex-link spheres are inserted at their canonical innermost placement;
spheres loaded from serialized text use block placement at the low end
of every edge class, subject to validation.  Unpinch only recognizes a
component sitting exactly at its catalog placement, which keeps pinch
and unpinch strict inverses.  Weight delta: +-(sphere weight).

Removal (V0-, UNPINCH) is detected locally, from the sphere's own cells:
its points exist, all its arcs are present, and its curves bound disks
except the tube side, whose partner is not one of them.  Catalog entries
are tried in order.  V0 and PINCH/UNPINCH share this code, and E1- the
deletion step.

A move builds one ``Surface``, its result, from the surface it applies
to as its source.  Face classes and tetrahedra the move leaves alone
keep the source's own matching and annulus tuples, so the result takes
their text lines from the source and skips them when it validates (see
``surface``).  The curves of the new encoding, which carry annulus pairs
over, come from ``surface.tet_geometry_of`` on the new weights and
matchings, and the result keeps the geometry its move traced so that
validation does not look it up again.

V0+ and PINCH build on a shared insertion.  ``_insert_sphere`` builds
the source plus the catalog sphere at its placement, each sphere piece a
disk, as a ``Surface`` from the source, validates it over the faces and
tetrahedra the sphere meets, and keeps it, with its point map and shift,
in ``_INSERTIONS``: a least-recently-used table keyed by (catalog entry,
source canonical key) that holds at most ``_INSERTION_ENTRIES`` (64)
insertions or refusals.  PINCH candidates, the PINCH and V0+ applies
and, through them, ``movegraph.replay`` read it, so each sphere is
inserted once per source.  ``_tube_ends`` maps the curves of a
tetrahedron, the source's and the sphere's, into the inserted surface's
geometry once per tetrahedron of an insertion, and ``_tube`` checks a
tube from that map.  A tubed result (PINCH, fused V0+) is the inserted
surface with one tetrahedron's annulus set, built with the inserted
surface as its source, so its footprint, checked and formatted, is that
one tetrahedron.  A free V0+ result equals the inserted surface but is
a new object.  The table keys a source by its text, so it pins no
source and no result.

The neighbour generator proposes exactly the moves that apply.  It reads
small tables instead of trying every pair, gap or corner, and only over
the surface's support (see ``surface``): V0 corners and PINCH tubes in
the tetrahedra with curves, E1+ and face moves on the face classes with
arcs, E1- on the edge classes with two points or more, and V0- and
UNPINCH at the tetrahedra with an annulus.  The tables it reads are
kept per row or per tet state, not per surface (see ``surface``):
``surface._side_arcs``, per face layout and row, gives per side the
arcs beside each class gap, their count and the consecutive points a
returning arc joins.  E1+ reroutes the arcs beside its gap and counts
its bulk ``budget_rejected`` from the same entry, and ``_e1_finger``
runs only where exactly one face side around the edge lacks the
returning arc.  ``Surface.arc_labels`` labels each arc with its curve
in both tetrahedra of its face, and ``surface._band_pairs`` lists, per
row, losing-side label pattern and annulus, the pairs of arcs beside
one region that a face move can reconnect: two arcs of one curve off
the losing tetrahedron's annulus pair, or one arc on each curve of the
pair.  V0+ over the budget is counted per corner by
``TetGeometry.count_beside``, and PINCHes over the budget, per
tetrahedron without an annulus, as its curves times the sphere's.
``_removals`` decides V0- and UNPINCH once per annulus side: it seeks
each vertex link with a curve at that side once, with
``_find_sphere``, which is also what ``_bubble`` and ``_tubed_sphere``
check for one move, and no other vertex link can be there.  A catalog
sphere is sought only in the tetrahedra it meets
(``CatalogSphere.tets``), and ``_find_sphere`` compares weights on the
sphere's own edge classes.

Applying a move costs its footprint, not the triangulation:
``_remap_matchings`` carries only the face classes on the edge classes
whose points shift, ``_map_annuli`` visits only the tetrahedra with an
annulus or a replaced one, and ``_delete_cells`` strips only the face
classes it drops arcs from.

Each precondition lives in one helper that ``_candidate_moves`` and
``apply_with_inverse`` both call before anything is built, reading only
its own move's arcs and nodes, so applying one move builds no table:
``_f2_kind`` decides a face move, and its kind, from the labels of its
two arcs, and ``_f2_separation`` rejects a split that separates the
losing tetrahedron's annulus pair; ``_e1_finger`` finds an E1 deletion
from the face sides and tetrahedra around its edge; ``_bubble`` and
``_tubed_sphere`` find the sphere that V0- and UNPINCH split off, from
the ``_find_sphere`` that generation reads per annulus side; and
``_tube`` checks a PINCH or fused V0+ tube in the shared insertion.
V0+ and E1+ are proposed only where the partner or the rerouted arc
touches the region they move into, which is all they need.
``neighbors`` therefore catches nothing: a generated move that fails
raises.
``apply_with_inverse`` keeps every check for user loops and replay,
result validation included; that validation covers the result's
footprint, which gives the verdict a full check gives because the
source is valid.

Serialization: ``kind@<loc>[k=v,...]``, e.g. ``V0+@v0[corner=1.2,partner=3]``,
``E1-@e2[at=0]``, ``F2'@f1[arcs=0-5:1-2,gain=1]``,
``PINCH@t0[curve=2,sphere=v0,scurve=1]``, ``UNPINCH@t1[side=4]``.
Curve ids always refer to the encoding the move applies to.  The table
``_FORMS`` is the one definition of this grammar: per kind and
direction, the location prefix and the fields in print order, each
with how it prints and how it reads back.  ``Move.to_text`` prints from
it and ``parse_move`` reads with it.  Each move has exactly one text,
the one ``Move.to_text`` prints, and ``parse_move`` accepts only that
text (up to surrounding whitespace): a sign on a kind that takes none,
an unknown, repeated or ignored field, an integer not in plain decimal,
or arc endpoints or the two F2 arcs out of order is a ``ParseError``,
never silently rewritten.

The same table names each kind's apply step, which returns its result
unvalidated, and the name its invalid-result error carries.
``apply_with_inverse`` makes the checks the kinds share once, in this
order: the encoding is valid, the kind is known, the location exists,
an E1 edge has degree at least 2, a fused V0 corner is at its vertex
class, and a PINCH or UNPINCH has a catalog; then, after the kind's
step, the result is crudely normal or crudely almost normal.  A catalog
sphere that does not fit at its placement is refused in the same words
as an invalid result, under the name from the same table.
"""

import bisect
import collections
import functools
import itertools
import operator
import re

from .errors import NotApplicableError, ParseError, SemanticError
from .surface import (
    CRUDELY_ALMOST_NORMAL,
    CRUDELY_NORMAL,
    Surface,
    _band_pairs,
    _face_verdict,
    _planar_reconnection,
    _side_arcs,
    face_layout,
    parse_surface,
    tet_geometry_of,
    vertex_link,
)

V0, E1, F2, F2P, PINCH, UNPINCH = "V0", "E1", "F2", "F2'", "PINCH", "UNPINCH"
ALL_KINDS = (V0, E1, F2, F2P, PINCH, UNPINCH)
DEFAULT_MOVE_SET = frozenset({V0, E1, F2P, PINCH, UNPINCH})


class Move(collections.namedtuple("Move", [
    "kind",
    "location",
    "direction",
    "corner",        # V0 fused: (tet, corner label)
    "partner",       # V0 fused emit: target curve id
    "gap",           # E1: insertion gap / deletion index
    "incidence",     # E1 emit: (face class, side)
    "arc",           # E1 emit: arc to reroute
    "arcs",          # F2-type: the two arcs
    "gain",          # F2-type: gaining incidence 0/1
    "curve",         # PINCH: surface curve / UNPINCH: sphere side
    "sphere",        # PINCH: catalog id
    "sphere_curve",  # PINCH: curve id inside the sphere
], defaults=(1,) + (None,) * 10)):
    """A move by its fields, read-only: ``direction`` defaults to 1 and
    every other optional field to None."""

    def to_text(self):
        """The move's one text, formatted on the first call and kept on
        the instance outside the fields, so ``==``, ``hash`` and ``repr``
        do not see it."""
        text = self.__dict__.get("_text")
        if text is None:
            form = _FORMS.get((self.kind, self.direction > 0))
            if form is None:
                raise SemanticError("unknown move kind {}".format(self.kind))
            if form.free is not None and self.corner is None:
                text = form.free.format(self.location)
            else:
                text = form.text.format(*form.values(self))
            self._text = text
        return text

    def __str__(self):
        return self.to_text()


def parse_move(text):
    """Parse a move from exactly the text ``Move.to_text`` prints for it."""
    text = text.strip()
    m = _MOVE_RE.match(text)
    if not m:
        raise ParseError("bad move syntax: '{}'".format(text))
    # A wrong location prefix or sign, or arc endpoints out of order, read
    # as some move whose own text differs, which the round trip rejects.
    kind, sign, loc, body = m.groups()
    form = _FORMS[kind, sign == "+"]
    fields = {}
    for item in body.split(","):
        key, _, val = item.partition("=")
        fields[key] = val
    values = {}
    if form.free is None or "free" not in fields:
        try:
            values = {attr: read(fields[name]) for name, attr, (_, read) in form.fields}
        except KeyError as exc:
            raise ParseError("bad move parameters in '{}': missing field '{}'".format(
                text, exc.args[0]))
        except ValueError as exc:
            raise ParseError("bad move parameters in '{}': {}".format(text, exc))
    move = Move(kind, int(loc), form.direction, **values)
    printed = move.to_text()
    if printed != text:
        raise ParseError("move text '{}' is not canonical (expected '{}')".format(text, printed))
    return move


# ---------------------------------------------------------------------------
# Sphere catalog


class CatalogSphere:
    def __init__(self, sphere_id, surf, vertex=None):
        self.sphere_id = sphere_id
        self.surface = surf
        self.vertex = vertex
        # Where the sphere meets the triangulation: (edge class, point
        # count) per edge class, and the tetrahedra (see Surface.support).
        self.edges = [(e, k) for e, k in enumerate(surf.weights) if k]
        self.tets = set(surf.support()[1])

    def weight(self):
        return self.surface.weight()


class SphereCatalog:
    """Crudely normal spheres available for pinches."""

    def __init__(self, entries):
        self.entries = list(entries)
        self.by_id = {e.sphere_id: e for e in self.entries}
        if len(self.by_id) != len(self.entries):
            raise SemanticError("duplicate sphere ids in catalog")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def get(self, sphere_id):
        entry = self.by_id.get(sphere_id)
        if entry is None:
            raise SemanticError("no catalog sphere '{}'".format(sphere_id))
        return entry


def default_catalog(tri):
    """One vertex-linking sphere per vertex class."""
    return SphereCatalog(_vertex_sphere(tri, v) for v in range(len(tri.vertex_classes)))


def extend_catalog(catalog, tri, texts):
    """Add user spheres from serialized surface text (block placement)."""
    entries = list(catalog.entries)
    for k, text in enumerate(texts):
        surf = parse_surface(tri, text)
        if surf.validate() != CRUDELY_NORMAL:
            raise SemanticError("catalog sphere {} is not crudely normal".format(k))
        if surf.euler_characteristic() != 2 or len(surf.components()) != 1:
            raise SemanticError("catalog entry {} is not a sphere".format(k))
        entries.append(CatalogSphere("s{}".format(k), surf))
    return SphereCatalog(entries)


# ---------------------------------------------------------------------------
# Reindexing helpers


def _point_map_for_insertions(weights, inserts):
    """Maps for inserting new points into edge classes.

    ``inserts[e]`` is a sorted list of class gaps.  Returns
    (new_weights, shift, inserted) where shift[e] lists the new index of
    each old point of edge class e and inserted[e][k] the new index of
    the k-th insertion; the points of a class not in ``inserts`` keep
    their indices.
    """
    new_weights = list(weights)
    shift = {}
    inserted = {}
    for e, gaps in inserts.items():
        new_weights[e] += len(gaps)
        shift[e] = [i + bisect.bisect_right(gaps, i) for i in range(weights[e])]
        inserted[e] = [g + k for k, g in enumerate(gaps)]
    return tuple(new_weights), shift, inserted


def _point_map_for_deletions(weights, removals):
    """Maps for deleting points.  ``removals[e]`` is a sorted index list.
    Returns (new_weights, shift), shift as for insertions with None for a
    deleted point."""
    new_weights = list(weights)
    shift = {}
    for e, idx in removals.items():
        new_weights[e] -= len(idx)
        if new_weights[e] < 0:
            raise NotApplicableError("removing more points than exist on edge {}".format(e))
        shift[e] = [None if i in idx else i - bisect.bisect_left(idx, i) for i in range(weights[e])]
    return tuple(new_weights), shift


def _carry(old, new, pairs, shift):
    """The pairs of a face class in the slots of layout ``old``, carried to
    layout ``new`` of the same class in one pass over its three sides.
    Each slot keeps its side and follows its point to the new index
    ``shift`` gives it (see ``_point_map_for_insertions``); an arc at a
    point ``shift`` deletes is an error.  Shifts keep the order of
    points, so pairs normalized as ``Surface`` stores them stay
    normalized."""
    slots = []
    for (e, net, _, _), w, new_w, start in zip(old.sides, old.side_w, new.side_w, new.side_start):
        points = shift.get(e)
        if points is None:
            slots += range(start, start + w)
        elif net > 0:
            slots += [None if i is None else start + i for i in points]
        else:
            last = start + new_w - 1
            slots += [None if i is None else last - i for i in reversed(points)]
    carried = tuple([(slots[a], slots[b]) for a, b in pairs])
    if None in slots and any(None in pair for pair in carried):
        raise NotApplicableError("a surviving arc still references a deleted point")
    return carried


def _remap_matchings(surf, new_weights, shift, matchings=None):
    """Re-express matchings, each normalized as ``Surface`` stores it, in
    the slot space of the new weights; they stay normalized.  A face
    whose sides keep their weights gained or lost no points, so its
    slots stay as they are, and one that is also ``surf``'s own tuple
    passes through as that object, which keeps it out of the result's
    footprint (see ``surface``)."""
    tri = surf.tri
    matchings = list(surf.matchings if matchings is None else matchings)
    for cid in {cid for e in shift for cid, _ in tri.edge_sides[e]}:
        matchings[cid] = _carry(
            surf.face_layout(cid), face_layout(tri, new_weights, cid), matchings[cid], shift
        )
    return matchings


def _track_curve(old, geo, curve, shift):
    """The id in ``geo``, the new encoding's geometry of a tetrahedron, of
    a curve of ``old`` there, followed through its first node, the least,
    that ``shift`` (see ``_point_map_for_insertions``) does not delete."""
    tri = old.tri
    tet = geo.tet
    for e_local, i in old.tet_geometry(tet).curve_nodes(curve):
        moved = shift.get(tri.edge_class_of[(tet, e_local)])
        if moved is not None:
            i = moved[i]
        if i is not None:
            return geo.point_curve(e_local, i)
    raise NotApplicableError("curve {} of tet {} would be deleted".format(curve, tet))


def _map_annuli(old, weights, matchings, shift, overrides=None):
    """Carry annulus pairs from ``old`` to the new encoding with these
    weights and matchings, by tracking a surviving node of each member
    curve.  ``overrides`` replaces whole tetrahedra.  Returns the annuli
    and {tet: geometry} for the tetrahedra of the new encoding it traced,
    for the result to keep."""
    overrides = overrides or {}
    annuli = list(old.annuli)
    traced = {}
    for tet in itertools.compress(itertools.count(), old.annuli):
        if tet in overrides:
            continue
        geo = traced[tet] = tet_geometry_of(old.tri, weights, matchings, tet)
        # A valid surface has at most one annulus pair per tetrahedron.
        (pair,) = annuli[tet]
        mapped = tuple(sorted(_track_curve(old, geo, c, shift) for c in pair))
        if mapped[0] == mapped[1]:
            raise NotApplicableError("annulus curves in tet {} would merge".format(tet))
        if mapped != pair:
            annuli[tet] = (mapped,)
    for tet, pairs in overrides.items():
        annuli[tet] = pairs
    return annuli, traced


# ---------------------------------------------------------------------------
# Catalog spheres at their placement: insert, tube, find, delete


def _bubble_point(weights, e, end):
    """Index of the point nearest the given end of edge class e."""
    return 0 if end == 0 else weights[e] - 1


def _corner_node(tri, weights, tet, corner):
    """The node nearest a corner of tet on its first edge there, (0, 1),
    (0, 1), (0, 2) or (0, 3).  On a vertex-link sphere at its placement
    it lies on that corner's curve."""
    e_local = (0, 0, 1, 2)[corner]
    end = tri.vertex_class_end_of_edge(tet, e_local, corner)
    return e_local, _bubble_point(weights, tri.edge_class_of[(tet, e_local)], end)


@functools.lru_cache(maxsize=256)
def _vertex_sphere(tri, v):
    """The vertex-link sphere of v as a catalog entry."""
    return CatalogSphere("v{}".format(v), vertex_link(tri, v), vertex=v)


def _placement_points(weights, entry):
    """Where the catalog sphere's points sit in a surface with these
    weights that holds it at its placement: {e: the index of each of the
    sphere's points on edge class e}, in increasing order.  A vertex
    link sits innermost at its vertex; any other sphere sits at the low
    end of every edge class."""
    sphere = entry.surface
    if entry.vertex is None:
        return {e: list(range(k)) for e, k in entry.edges}
    points = {}
    for e, end in sphere.tri.vertex_edge_ends[entry.vertex]:
        points.setdefault(e, []).append(_bubble_point(weights, e, end))
    return points


def _sphere_arcs(entry, weights, point_map):
    """The catalog sphere's arcs as (face class, pair), in the slots of a
    surface with these weights whose points ``point_map`` gives."""
    sphere = entry.surface
    return [
        (cid, pair)
        for cid, pairs in enumerate(sphere.matchings) if pairs
        for pair in _carry(sphere.face_layout(cid), face_layout(sphere.tri, weights, cid),
                           pairs, point_map)
    ]


@functools.lru_cache(maxsize=256)
def _sphere_cells(entry, weights):
    """(``_placement_points``, ``_sphere_arcs``) of the catalog sphere in
    a surface with these weights, kept for the last 256 (entry, weights)
    pairs: ``_find_sphere`` asks for them at every corner and annulus side
    of a surface, and ``_insert_sphere`` once per insertion.  Shared, so
    read-only."""
    point_map = _placement_points(weights, entry)
    return point_map, _sphere_arcs(entry, weights, point_map)


# A catalog sphere inserted into a source surface, each sphere piece a
# disk: the valid result ``surface``, built from the source; the sphere's
# ``point_map`` (see ``_placement_points``) and the source's point
# ``shift`` there; and ``ends``, {tet: ``_tube_ends`` there}, filled on
# first use.
_Inserted = collections.namedtuple("_Inserted", "surface point_map shift ends")

# _INSERTIONS maps (catalog entry, source canonical key) to (_Inserted,
# None), or to (None, why the sphere does not fit), least recently used
# first, and holds at most this many entries.  Candidate generation
# inserts each catalog sphere into the surface it expands, and the moves
# it proposes apply right after; replay comes back to a few sources.
# The memory an entry frees when dropped, measured with tracemalloc, key
# and tube ends included, is about 2.7 KB on 2 tets and 9 KB on the
# 48-tet subdivision (weights up to 16), so the table stays under 1 MB
# there.
_INSERTION_ENTRIES = 64
_INSERTIONS = collections.OrderedDict()


def _insert_sphere(surf, entry):
    """``surf`` plus the catalog sphere at its placement, each sphere
    piece a disk: (an ``_Inserted``, None), or (None, why) when that
    encoding is invalid, a sphere arc crossing an arc of ``surf`` or an
    annulus pair of ``surf`` ceasing to share a region.  Kept in
    ``_INSERTIONS`` per entry and source text, so a sphere is inserted
    once per source however many moves build on it.  The surface is
    validated over its footprint, the faces and tetrahedra the sphere
    meets; a result built from it keeps its rows and weights."""
    key = (entry, surf.canonical_key())
    inserted = _INSERTIONS.get(key)
    if inserted is not None:
        _INSERTIONS.move_to_end(key)
        return inserted
    inserted = _INSERTIONS[key] = _inserted_surface(surf, entry)
    if len(_INSERTIONS) > _INSERTION_ENTRIES:
        _INSERTIONS.popitem(last=False)
    return inserted


def _inserted_surface(surf, entry):
    """``_insert_sphere`` computed afresh."""
    tri = surf.tri
    new_weights = tuple(map(operator.add, surf.weights, entry.surface.weights))
    point_map, arcs = _sphere_cells(entry, new_weights)
    # The r-th placed point on an edge, at new index u, fills old gap u - r.
    inserts = {e: [u - r for r, u in enumerate(points)] for e, points in point_map.items()}
    _, shift, _ = _point_map_for_insertions(surf.weights, inserts)
    matchings = _remap_matchings(surf, new_weights, shift)
    met = set()
    for cid, pair in arcs:
        matchings[cid] += (pair,)
        met.add(cid)
    # Crossings first: _map_annuli traces curves, which crossing arcs lack.
    for cid in sorted(met):
        matchings[cid] = tuple(sorted(matchings[cid]))
        crossing = _face_verdict(cid, face_layout(tri, new_weights, cid).n, matchings[cid])
        if crossing:
            return None, crossing
    annuli, traced = _map_annuli(surf, new_weights, matchings, shift)
    inserted = Surface(tri, new_weights, matchings, annuli, source=surf, geometry=traced)
    if not inserted.is_valid():
        return None, inserted.validate()
    return _Inserted(inserted, point_map, shift, {}), None


def _tube_ends(surf, entry, inserted, tet):
    """The ids in the inserted surface of the curves in tet of ``surf``,
    one per curve, and of the catalog sphere, one per sphere curve;
    computed once per tetrahedron of an insertion."""
    ends = inserted.ends.get(tet)
    if ends is None:
        geo = inserted.surface.tet_geometry(tet)
        ends = inserted.ends[tet] = tuple(
            [_track_curve(old, geo, c, shift) for c in range(old.tet_geometry(tet).curve_count)]
            for old, shift in ((surf, inserted.shift), (entry.surface, inserted.point_map))
        )
    return ends


def _tube(surf, entry, inserted, tet, curve, s_curve):
    """Tubing curve ``curve`` of ``surf`` in tet to curve ``s_curve`` of
    the catalog sphere, in the ``_Inserted`` of the sphere into ``surf``:
    (their ids there, surface curve first, None), or (None, why)."""
    if surf.annuli[tet]:
        return None, "tet {} already has an annulus".format(tet)
    mine, theirs = _tube_ends(surf, entry, inserted, tet)
    if not (0 <= curve < len(mine)):
        return None, "no curve {} in tet {}".format(curve, tet)
    if not (0 <= s_curve < len(theirs)):
        return None, "sphere {} has no curve {} in tet {}".format(entry.sphere_id, s_curve, tet)
    c1, c2 = mine[curve], theirs[s_curve]
    if c1 == c2:
        return None, "pinch curves coincide"
    if not inserted.surface.tet_geometry(tet).curves_sharing_region(c1, c2):
        return None, "pinch curves are separated in tet {}".format(tet)
    return (c1, c2), None


def _add_sphere(surf, move, entry, tube=None):
    """``surf`` plus the catalog sphere at its placement, each sphere
    piece a disk; with ``tube=(tet, curve, sphere curve)`` the two named
    curves in tet bound an annulus instead.  Returns the unvalidated
    result, built from the inserted surface (see ``_insert_sphere``) so
    that a tube's footprint is its one tetrahedron, and the result's id
    of the tubed sphere curve.  When the sphere does not fit, the error
    names ``move`` as an invalid result does."""
    inserted, why = _insert_sphere(surf, entry)
    if inserted is None:
        name = _FORMS[move.kind, move.direction > 0].name
        raise NotApplicableError("{}: result {}".format(name, why))
    base = inserted.surface
    annuli, geometry, c2 = base.annuli, None, None
    if tube is not None:
        tet = tube[0]
        pair, why = _tube(surf, entry, inserted, *tube)
        if pair is None:
            raise NotApplicableError(why)
        annuli = list(annuli)
        annuli[tet] = (tuple(sorted(pair)),)
        geometry = {tet: base.tet_geometry(tet)}
        c2 = pair[1]
    result = Surface(surf.tri, base.weights, base.matchings, annuli, source=base, geometry=geometry)
    return result, c2


# A catalog sphere found at its placement: the points and arcs to delete,
# the sphere's curve at the tube side and the tube's other curve (None
# without a tube), and why the sphere does not split off (None if it does).
_Found = collections.namedtuple("_Found", "removals arcs sphere_curve keep why")


def _find_sphere(surf, entry, tube=None):
    """The catalog sphere at its placement in ``surf``, found from its own
    cells only.

    ``tube=(tet, side)`` names a curve of the annulus in tet.  Returns
    None unless the sphere's points exist, all its arcs are present and,
    with a tube, side is one of its curves; otherwise a ``_Found``.  Its
    ``why`` says when the sphere is there but does not split off: the
    tube's other curve is also the sphere's, or another sphere curve is
    paired into an annulus.
    """
    if tube is not None and tube[0] not in entry.tets:
        return None
    if any(surf.weights[e] < k for e, k in entry.edges):
        return None
    point_map, arcs = _sphere_cells(entry, surf.weights)
    if not all(pair in surf.matchings[cid] for cid, pair in arcs):
        return None
    sphere = entry.surface

    def curves(tet):
        # The sphere's curves in tet, in order, by their ids in surf.
        geo = surf.tet_geometry(tet)
        return [_track_curve(sphere, geo, c, point_map)
                for c in range(sphere.tet_geometry(tet).curve_count)]

    s_curve = keep = why = None
    if tube is not None:
        tet, side = tube
        mine = curves(tet)
        if side not in mine:
            return None
        (pair,) = surf.annuli[tet]
        keep = pair[0] if pair[1] == side else pair[1]
        if keep in mine:
            why = "annulus tube in tet {} is essential".format(tet)
        s_curve = mine.index(side)
    for tet in itertools.compress(itertools.count(), surf.annuli):
        if why or tet not in entry.tets or (tube is not None and tet == tube[0]):
            continue
        paired = {c for pair in surf.annuli[tet] for c in pair}
        if paired.intersection(curves(tet)):
            why = "sphere {} is paired into the annulus of tet {}".format(entry.sphere_id, tet)
    return _Found(point_map, arcs, s_curve, keep, why)


def _delete_cells(surf, removals, drop, add=(), tube=None):
    """``surf`` without the points in ``removals`` ({edge class: sorted
    indices}) and the arcs in ``drop``, plus the arcs in ``add``; arcs
    are (face class, pair) in the slots of ``surf``.  ``tube=(tet, keep)``
    empties that tet's annulus.  Returns the unvalidated result, the old
    to new point shift and, with a tube, the result's id of ``keep``."""
    tri = surf.tri
    new_weights, shift = _point_map_for_deletions(surf.weights, removals)
    drop = set(drop)
    stripped = list(surf.matchings)
    for cid in {cid for cid, _ in drop}:
        stripped[cid] = tuple(p for p in stripped[cid] if (cid, p) not in drop)
    for cid, pair in add:
        stripped[cid] = tuple(sorted(stripped[cid] + (pair,)))
    matchings = _remap_matchings(surf, new_weights, shift, stripped)
    overrides = {} if tube is None else {tube[0]: ()}
    annuli, traced = _map_annuli(surf, new_weights, matchings, shift, overrides)
    result = Surface(tri, new_weights, matchings, annuli, source=surf, geometry=traced)
    if tube is None:
        return result, shift, None
    return result, shift, _track_curve(surf, result.tet_geometry(tube[0]), tube[1], shift)


# ---------------------------------------------------------------------------
# V0


def _apply_v0_emit(surf, move, catalog):
    tri = surf.tri
    entry = _vertex_sphere(tri, move.location)
    tube = None
    if move.corner is not None:
        tet, corner = move.corner
        sphere = entry.surface
        node = _corner_node(tri, sphere.weights, tet, corner)
        tube = (tet, move.partner, sphere.tet_geometry(tet).point_curve(*node))
    result, _ = _add_sphere(surf, move, entry, tube)
    return result, Move(V0, move.location, direction=-1, corner=move.corner)


def _bubble(surf, v, corner):
    """The bubble that V0- at vertex class v absorbs, fused at ``corner``
    unless that is None: (its ``_Found``, None), or (None, why not).  A
    fused corner's curve must be a side of its tet's annulus; then the
    vertex-link sphere must be at its placement and split off."""
    tri = surf.tri
    tube = None
    if corner is not None:
        tet, c = corner
        pairs = surf.annuli[tet]
        side = None
        if pairs:
            node = _corner_node(tri, surf.weights, tet, c)
            side = surf.tet_geometry(tet).point_curve(*node)
        if side is None or side not in pairs[0]:
            return None, "bubble corner at {}.{} is not fused into an annulus".format(tet, c)
        tube = (tet, side)
    found = _find_sphere(surf, _vertex_sphere(tri, v), tube)
    if found is None:
        return None, "no innermost bubble at vertex class {}".format(v)
    if found.why:
        return None, found.why
    return found, None


def _apply_v0_absorb(surf, move, catalog):
    v = move.location
    found, why = _bubble(surf, v, move.corner)
    if found is None:
        raise NotApplicableError(why)
    tube = None if move.corner is None else (move.corner[0], found.keep)
    result, _, partner = _delete_cells(surf, found.removals, found.arcs, tube=tube)
    return result, Move(V0, v, direction=1, corner=move.corner, partner=partner)


# ---------------------------------------------------------------------------
# E1


def _apply_e1_insert(surf, move, catalog):
    tri = surf.tri
    e = move.location
    w = surf.weights[e]
    gap = move.gap
    if not (0 <= gap <= w):
        raise NotApplicableError("gap {} out of range for edge {}".format(gap, e))
    incidences = tri.edge_sides[e]
    if move.incidence not in incidences:
        raise NotApplicableError("face side {} is not around edge {}".format(move.incidence, e))
    chat, khat = move.incidence
    layout = surf.face_layout(chat)
    arc = tuple(sorted(move.arc))
    if arc not in surf.matchings[chat]:
        raise NotApplicableError("face {} has no arc {}".format(chat, arc))
    _, gap_region, _, beside = surf.chord_regions(chat)
    if arc not in beside[gap_region[layout.class_gaps[khat][gap]]]:
        raise NotApplicableError("arc {} is not adjacent to the insertion gap".format(arc))

    new_weights, shift, inserted = _point_map_for_insertions(surf.weights, {e: [gap, gap]})
    p_lo, p_hi = inserted[e]
    matchings = _remap_matchings(surf, new_weights, shift)
    for cid, k in incidences:
        lay = face_layout(tri, new_weights, cid)
        s1 = lay.slot_of_point(k, p_lo)
        s2 = lay.slot_of_point(k, p_hi)
        if abs(s1 - s2) != 1:
            raise SemanticError("new points are not adjacent slots")
        if (cid, k) == (chat, khat):
            continue
        matchings[cid] = tuple(sorted(matchings[cid] + (tuple(sorted((s1, s2))),)))
    # Reroute through the chosen face.
    lay = face_layout(tri, new_weights, chat)
    (a_new,) = _carry(layout, lay, (arc,), shift)
    pa, pb = lay.slot_of_point(khat, p_lo), lay.slot_of_point(khat, p_hi)
    rest = tuple(p for p in matchings[chat] if p != a_new)
    chosen = _planar_reconnection(rest, *a_new, pa, pb)
    if chosen is None:
        raise NotApplicableError("no planar rerouting through face {}".format(chat))
    matchings[chat] = tuple(sorted(rest + chosen))
    annuli, traced = _map_annuli(surf, new_weights, matchings, shift)
    result = Surface(tri, new_weights, matchings, annuli, source=surf, geometry=traced)
    return result, Move(E1, e, direction=-1, gap=gap)


def _e1_finger(surf, e, k):
    """The finger of points k, k+1 on edge class e, or None.  Every face
    side around e but one joins the two points by a returning arc, and
    the sleeve curves those arcs close bound disks; on the remaining side
    the points end two arcs that run on to other slots x and y.  Returns
    (returning arcs, rerouted incidence, s1, s2, x, y), arcs as (face
    class, pair) and s1, s2 the slots of the points on that side.  Reads
    only the face sides and tetrahedra around e, and stops at the first
    that rules the finger out."""
    tri = surf.tri
    bigons = []
    reroute = None
    for cid, kk in tri.edge_sides[e]:
        lay = surf.face_layout(cid)
        s1, s2 = lay.slot_of_point(kk, k), lay.slot_of_point(kk, k + 1)
        pair = (s1, s2) if s1 < s2 else (s2, s1)
        if pair in surf.matchings[cid]:
            bigons.append((cid, pair))
        elif reroute is None:
            reroute = (cid, kk, s1, s2)
        else:
            return None
    if reroute is None:
        return None
    chat, khat, s1, s2 = reroute
    partner = {}
    for a, b in surf.matchings[chat]:
        partner[a] = b
        partner[b] = a
    x, y = partner[s1], partner[s2]
    if x in (s1, s2) or y in (s1, s2):
        return None
    for tet, e_local in tri.edge_classes[e]:
        if not surf.annuli[tet]:
            continue
        geo = surf.tet_geometry(tet)
        paired = {c for pair in surf.annuli[tet] for c in pair}
        for pt in (k, k + 1):
            cid = geo.point_curve(e_local, pt)
            if cid in paired and all(
                n[1] in (k, k + 1) and tri.edge_class_of[(tet, n[0])] == e
                for n in geo.curve_nodes(cid)
            ):
                return None
    return bigons, (chat, khat), s1, s2, x, y


def _apply_e1_delete(surf, move, catalog):
    e = move.location
    k = move.gap
    if not (0 <= k and k + 1 < surf.weights[e]):
        raise NotApplicableError("no consecutive points {}..{} on edge {}".format(k, k + 1, e))
    finger = _e1_finger(surf, e, k)
    if finger is None:
        raise NotApplicableError("points {}..{} on edge {} are not a finger".format(k, k + 1, e))
    bigons, (chat, khat), s1, s2, x, y = finger
    drop = bigons + [(chat, tuple(sorted((s1, x)))), (chat, tuple(sorted((s2, y))))]
    arc = tuple(sorted((x, y)))
    result, shift, _ = _delete_cells(surf, {e: [k, k + 1]}, drop, add=[(chat, arc)])
    (restored,) = _carry(surf.face_layout(chat), result.face_layout(chat), (arc,), shift)
    return result, Move(E1, e, direction=1, gap=k, incidence=(chat, khat), arc=restored)


# ---------------------------------------------------------------------------
# F2 / F2'


def _f2_kind(surf, cid, alpha, beta, gain, labels):
    """F2 or F2' for the face move on arcs alpha, beta of face class cid
    that gains into incidence ``gain``, or None when its strands do not
    allow it; ``labels`` holds at least their entries of
    ``Surface.arc_labels``.  Decided on the encoding the move applies to:
    the losing strands lie on one curve off the annulus pair or on the
    two curves of the pair, and the gaining strands on one curve of a tet
    without an annulus or on two curves off the pair."""
    incidences = surf.tri.face_classes[cid]
    t_l, t_g = incidences[1 - gain][0], incidences[gain][0]
    lose, win = labels[1 - gain], labels[gain]
    u_a, u_b, v_a, v_b = lose[alpha], lose[beta], win[alpha], win[beta]
    if u_a == u_b:
        if any(u_a in pair for pair in surf.annuli[t_l]):
            return None
    elif surf.annuli[t_l] != ((min(u_a, u_b), max(u_a, u_b)),):
        return None
    if v_a == v_b:
        if surf.annuli[t_g]:
            return None
    elif any(c in pair for pair in surf.annuli[t_g] for c in (v_a, v_b)):
        return None
    return F2 if (u_a == u_b) == (v_a == v_b) else F2P


def _f2_separation(surf, cid, alpha, beta, gain, labels):
    """Whether the face move on arcs alpha, beta of face class cid that
    gains into incidence ``gain`` splits a curve of the losing tetrahedron
    so that the tet's annulus pair stops sharing a region.  Decided on
    that one tetrahedron's geometry after the reconnection."""
    t_l, _ = surf.tri.face_classes[cid][1 - gain]
    lose = labels[1 - gain]
    if not surf.annuli[t_l] or lose[alpha] != lose[beta]:
        return False
    rest = tuple(p for p in surf.matchings[cid] if p not in (alpha, beta))
    chosen = _planar_reconnection(rest, *alpha, *beta)
    if chosen is None:
        return False
    matchings = list(surf.matchings)
    matchings[cid] = tuple(sorted(rest + chosen))
    after = tet_geometry_of(surf.tri, surf.weights, matchings, t_l)
    (pair,) = surf.annuli[t_l]
    return not after.curves_sharing_region(*(_track_curve(surf, after, c, {}) for c in pair))


def _apply_f2(surf, move, catalog):
    tri = surf.tri
    cid = move.location
    incidences = tri.face_classes[cid]
    (t0, _), (t1, _) = incidences
    if t0 == t1:
        raise NotApplicableError(
            "face {} is glued to tet {} on both sides".format(cid, t0)
        )
    alpha, beta = (tuple(sorted(p)) for p in move.arcs)
    if alpha == beta:
        raise NotApplicableError("need two distinct arcs")
    row = surf.matchings[cid]
    for p in (alpha, beta):
        if p not in row:
            raise NotApplicableError("face {} has no arc {}".format(cid, p))
    # The row's own int pairs, which may key _planar_reconnection's cache.
    alpha, beta = row[row.index(alpha)], row[row.index(beta)]
    if not any(alpha in arcs and beta in arcs for arcs in surf.chord_regions(cid)[3]):
        raise NotApplicableError("arcs {} and {} do not bound a common region".format(alpha, beta))
    if move.gain not in (0, 1):
        raise NotApplicableError("gain side must be 0 or 1")
    labels = surf.arc_labels(cid, (alpha, beta))
    kind = _f2_kind(surf, cid, alpha, beta, move.gain, labels)
    if kind is None:
        raise NotApplicableError("strands of arcs {} and {} do not form a band".format(alpha, beta))
    if move.kind != kind:
        raise NotApplicableError(
            "move is declared {} but reconnection is {}".format(move.kind, kind)
        )
    rest = tuple(p for p in surf.matchings[cid] if p not in (alpha, beta))
    chosen = _planar_reconnection(rest, *alpha, *beta)
    if chosen is None:
        raise NotApplicableError("no planar reconnection of {} and {}".format(alpha, beta))
    (t_l, f_l), (t_g, f_g) = incidences[1 - move.gain], incidences[move.gain]
    if _f2_separation(surf, cid, alpha, beta, move.gain, labels):
        raise NotApplicableError(
            "face move: result invalid: annulus separation in tet {}".format(t_l)
        )
    matchings = list(surf.matchings)
    matchings[cid] = tuple(sorted(rest + chosen))
    # The band splits one curve of each tet into two or joins two into one:
    # a losing annulus pair joins, and a split gaining curve becomes the pair.
    geo_l = tet_geometry_of(tri, surf.weights, matchings, t_l)
    geo_g = tet_geometry_of(tri, surf.weights, matchings, t_g)
    joined = set(geo_l.arc_curves(f_l, chosen).values())
    split = set(geo_g.arc_curves(f_g, chosen).values())
    overrides = {}
    if len(joined) == 1:
        overrides[t_l] = ()
    if len(split) == 2:
        overrides[t_g] = (tuple(sorted(split)),)
    annuli, traced = _map_annuli(surf, surf.weights, matchings, {}, overrides)
    traced.update({t_l: geo_l, t_g: geo_g})
    result = Surface(tri, surf.weights, matchings, annuli, source=surf, geometry=traced)
    return result, Move(kind, cid, arcs=tuple(sorted(chosen)), gain=1 - move.gain)


# ---------------------------------------------------------------------------
# PINCH / UNPINCH


def _apply_pinch(surf, move, catalog):
    tet = move.location
    entry = catalog.get(move.sphere)
    result, c2 = _add_sphere(surf, move, entry, (tet, move.curve, move.sphere_curve))
    return result, Move(UNPINCH, tet, curve=c2)


def _tubed_sphere(surf, tet, side, catalog):
    """The catalog sphere that UNPINCH at ``side`` of tet's annulus splits
    off: ((entry, its ``_Found``), None), or (None, why not).  The first
    entry found at its placement decides."""
    pairs = surf.annuli[tet]
    if len(pairs) != 1 or side not in pairs[0]:
        return None, "tet {} has no annulus with side {}".format(tet, side)
    for entry in catalog:
        found = _find_sphere(surf, entry, (tet, side))
        if found is not None:
            return (None, found.why) if found.why else ((entry, found), None)
    return None, (
        "side {} of tet {} is not tubed to a catalog sphere at its "
        "placement".format(side, tet)
    )


def _apply_unpinch(surf, move, catalog):
    tet = move.location
    tubed, why = _tubed_sphere(surf, tet, move.curve, catalog)
    if tubed is None:
        raise NotApplicableError(why)
    entry, found = tubed
    result, _, keep = _delete_cells(surf, found.removals, found.arcs, tube=(tet, found.keep))
    inverse = Move(PINCH, tet, curve=keep, sphere=entry.sphere_id, sphere_curve=found.sphere_curve)
    return result, inverse


# ---------------------------------------------------------------------------
# Public entry points


# A location kind: its text prefix, its noun in errors, how many there are.
_Place = collections.namedtuple("_Place", "prefix noun count")
_VERTEX = _Place("v", "vertex class", lambda tri: len(tri.vertex_classes))
_EDGE = _Place("e", "edge class", lambda tri: len(tri.edge_classes))
_FACE = _Place("f", "face class", lambda tri: len(tri.face_classes))
_TET = _Place("t", "tet", lambda tri: tri.tet_count)


# A field type: a format template over the value of a Move attribute, and
# its reader.
_INT = ("{}", int)
_NAME = ("{}", str)


def _pair(sep, item=_INT, ordered=False):
    """The field type of two ``item`` values joined by sep, read back in
    sorted order when ``ordered``."""
    template, read = item

    def read_pair(text):
        a, _, b = text.partition(sep)
        pair = (read(a), read(b))
        return tuple(sorted(pair)) if ordered else pair

    return template.replace("{", "{[0]") + sep + template.replace("{", "{[1]"), read_pair


# Arcs are built with their endpoints sorted and two arcs in sorted order,
# so a text in any other order fails the round trip.
_DOTTED = _pair(".")
_ARC = _pair("-", ordered=True)
_ARCS = _pair(":", _ARC, ordered=True)

_Form = collections.namedtuple("_Form", "direction place fields apply name text values free")


def _forms(*specs):
    """The move table from (kind, sign, location, fields, apply step,
    name) per kind and direction; see ``_FORMS``.  Each entry's ``text``
    formats ``values(move)``, the location and then each field's value,
    and V0's ``free`` is the text of a move without a corner."""
    forms = {}
    for kind, sign, place, fields, apply, name in specs:
        head = "{}{}@{}{{0}}[".format(kind, sign, place.prefix)
        body = ",".join(
            "{}={}".format(field, template.replace("{", "{" + str(k)))
            for k, (field, _, (template, _)) in enumerate(fields, 1)
        )
        values = operator.attrgetter("location", *(attr for _, attr, _ in fields))
        free = head + "free]" if kind == V0 else None
        direction = -1 if sign == "-" else 1
        form = _Form(direction, place, fields, apply, name, head + body + "]", values, free)
        for positive in (True, False) if sign == "" else (sign == "+",):
            forms[kind, positive] = form
    return forms


_CORNER = ("corner", "corner", _DOTTED)
_F2_FIELDS = (("arcs", "arcs", _ARCS), ("gain", "gain", _INT))

# Each move kind and direction by (kind, direction > 0), a kind printed
# without a sign under both; see the module docstring.
_FORMS = _forms(
    (V0, "+", _VERTEX, (_CORNER, ("partner", "partner", _INT)), _apply_v0_emit, "V0 emit"),
    (V0, "-", _VERTEX, (_CORNER,), _apply_v0_absorb, "V0 absorb"),
    (E1, "+", _EDGE, (("gap", "gap", _INT), ("side", "incidence", _DOTTED), ("arc", "arc", _ARC)),
     _apply_e1_insert, "E1 insert"),
    (E1, "-", _EDGE, (("at", "gap", _INT),), _apply_e1_delete, "E1 delete"),
    (F2, "", _FACE, _F2_FIELDS, _apply_f2, "face move"),
    (F2P, "", _FACE, _F2_FIELDS, _apply_f2, "face move"),
    (PINCH, "", _TET, (("curve", "curve", _INT), ("sphere", "sphere", _NAME),
                       ("scurve", "sphere_curve", _INT)), _apply_pinch, "pinch"),
    (UNPINCH, "", _TET, (("side", "curve", _INT),), _apply_unpinch, "unpinch"),
)

_MOVE_RE = re.compile(r"^({})([+-]?)@[{}](\d+)\[(.*)\]$".format(
    "|".join(ALL_KINDS), "".join(sorted({form.place.prefix for form in _FORMS.values()}))
))


def apply_with_inverse(surf, move, catalog=None):
    """Apply a move to a valid encoding; returns (result, inverse move).
    Makes the checks the kinds share (see the module docstring) around
    the kind's own apply step."""
    if not surf.is_valid():
        raise SemanticError("cannot apply a move to an invalid encoding")
    form = _FORMS.get((move.kind, move.direction > 0))
    if form is None:
        raise SemanticError("unknown move kind {}".format(move.kind))
    tri = surf.tri
    loc = move.location
    if not (0 <= loc < form.place.count(tri)):
        raise NotApplicableError("unknown {} {}".format(form.place.noun, loc))
    if move.kind == E1 and tri.edge_degree(loc) < 2:
        raise NotApplicableError("edge {} has degree < 2".format(loc))
    if move.kind == V0 and move.corner is not None:
        tet, c = move.corner
        if not (0 <= tet < tri.tet_count and 0 <= c < 4):
            raise NotApplicableError("bad corner {}.{}".format(tet, c))
        if tri.vertex_class_of[(tet, c)] != loc:
            raise NotApplicableError("corner {}.{} is not at vertex class {}".format(tet, c, loc))
    if move.kind in (PINCH, UNPINCH) and catalog is None:
        raise SemanticError("{} requires a sphere catalog".format(form.name))
    result, inverse = form.apply(surf, move, catalog)
    verdict = result.validate()
    if verdict not in (CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL):
        raise NotApplicableError("{}: result {}".format(form.name, verdict))
    return result, inverse


def apply(surf, move, catalog=None):
    result, _ = apply_with_inverse(surf, move, catalog)
    return result


Neighbor = collections.namedtuple("Neighbor", "move inverse surface")


def _removals(surf, tet, move_set, catalog):
    """The V0- and UNPINCH moves at tet's annulus, each side decided once.
    A vertex link at its placement has a curve at the side exactly where
    the node of a corner at its vertex class lies on it, so each such
    link is sought once (``_find_sphere``) and decides V0- at those
    corners, as ``_bubble`` would, and UNPINCH, as ``_tubed_sphere``
    would, for a catalog entry; no other vertex link can be there."""
    tri = surf.tri
    geo = surf.tet_geometry(tet)
    for side in surf.annuli[tet][0]:
        found = {}
        for c in range(4):
            if geo.point_curve(*_corner_node(tri, surf.weights, tet, c)) != side:
                continue
            v = tri.vertex_class_of[tet, c]
            if v not in found:
                found[v] = _find_sphere(surf, _vertex_sphere(tri, v), (tet, side))
            if V0 in move_set and found[v] and not found[v].why:
                yield Move(V0, v, direction=-1, corner=(tet, c))
        for entry in catalog if UNPINCH in move_set and catalog is not None else ():
            if entry.vertex is None:
                tubed = _find_sphere(surf, entry, (tet, side))
            else:
                tubed = found.get(entry.vertex)
            if tubed:
                if not tubed.why:
                    yield Move(UNPINCH, tet, curve=side)
                break


def _candidate_moves(surf, move_set, catalog, budget, stats):
    tri = surf.tri
    weight = surf.weight()
    faces, tets = surf.support()
    if V0 in move_set:
        for tet in tets:
            if surf.annuli[tet]:
                continue
            geo = surf.tet_geometry(tet)
            for corner in range(4):
                v = tri.vertex_class_of[tet, corner]
                region = geo.corner_region(corner)
                if weight + len(tri.vertex_edge_ends[v]) > budget:
                    stats["budget_rejected"] += geo.count_beside(region)
                    continue
                for c in geo.curves_beside(region):
                    yield Move(V0, v, direction=1, corner=(tet, corner), partner=c)
    if E1 in move_set:
        over = weight + 2 > budget
        for cid in faces:
            table = _side_arcs(surf.face_layout(cid), surf.matchings[cid])
            for k, (e, *_) in enumerate(tri.face_sides[cid]):
                if len(tri.edge_classes[e]) < 2:
                    continue
                near, count, _ = table[k]
                if over:
                    stats["budget_rejected"] += count
                    continue
                for gap, arcs in enumerate(near):
                    for arc in arcs:
                        yield Move(E1, e, direction=1, gap=gap, incidence=(cid, k), arc=arc)
        # The edge classes with two points or more; a finger at points k,
        # k + 1 has their returning arc on every face side around e but one.
        for e in itertools.compress(
            itertools.count(), map(operator.lt, itertools.repeat(1), surf.weights)
        ):
            sides = tri.edge_sides[e]
            if len(tri.edge_classes[e]) < 2:
                continue
            joined = [0] * surf.weights[e]
            for cid, k in sides:
                for i in _side_arcs(surf.face_layout(cid), surf.matchings[cid])[k][2]:
                    joined[i] += 1
            for k, n in enumerate(joined):
                if n == len(sides) - 1 and _e1_finger(surf, e, k) is not None:
                    yield Move(E1, e, direction=-1, gap=k)
    if F2 in move_set or F2P in move_set:
        for cid in faces:
            (t0, _), (t1, _) = tri.face_classes[cid]
            arcs = surf.matchings[cid]
            if t0 == t1 or len(arcs) < 2:
                continue
            labels = surf.arc_labels(cid, arcs)
            for gain, t_l in ((0, t1), (1, t0)):
                annulus = surf.annuli[t_l][0] if surf.annuli[t_l] else ()
                for alpha, beta in _band_pairs(arcs, tuple(labels[1 - gain].values()), annulus):
                    kind = _f2_kind(surf, cid, alpha, beta, gain, labels)
                    if kind not in move_set or _f2_separation(surf, cid, alpha, beta, gain, labels):
                        continue
                    yield Move(kind, cid, arcs=(alpha, beta), gain=gain)
    if PINCH in move_set and catalog is not None:
        curves = [(tet, surf.tet_geometry(tet).curve_count) for tet in tets if not surf.annuli[tet]]
        for entry in catalog:
            # The tubes (tet, curve, sphere curve), as (tet, curves, sphere curves).
            tubes = [
                (tet, n, entry.surface.tet_geometry(tet).curve_count)
                for tet, n in curves if tet in entry.tets
            ]
            if weight + entry.weight() > budget:
                stats["budget_rejected"] += sum(n * m for _, n, m in tubes)
                continue
            if not tubes:
                continue
            inserted, _ = _insert_sphere(surf, entry)
            if inserted is None:
                continue
            for tet, n, m in tubes:
                for c1, c2 in itertools.product(range(n), range(m)):
                    if _tube(surf, entry, inserted, tet, c1, c2)[0] is not None:
                        yield Move(PINCH, tet, curve=c1, sphere=entry.sphere_id, sphere_curve=c2)
    if V0 in move_set or UNPINCH in move_set:
        for tet in itertools.compress(itertools.count(), surf.annuli):
            yield from _removals(surf, tet, move_set, catalog)


def check_move_set(move_set):
    """The collection of move kinds as a frozenset; the first kind not in
    ``ALL_KINDS`` is a SemanticError."""
    for name in move_set:
        if name not in ALL_KINDS:
            raise SemanticError(
                "unknown move kind '{}' (choose from {})".format(name, ",".join(ALL_KINDS))
            )
    return frozenset(move_set)


def neighbors(surf, budget, move_set=DEFAULT_MOVE_SET, catalog=None, stats=None, known=()):
    """All single-move neighbours within the weight budget.

    Returns Neighbor(move, inverse, surface) records sorted by the result's
    canonical key and then the move serialization.  ``stats``, when given,
    accumulates ``budget_rejected`` (candidate moves dropped for exceeding
    the budget before other applicability checks) and ``pinched_spheres``
    counters.

    ``known`` holds move texts whose edges the caller already has, namely
    the inverses of edges found into this surface from surfaces expanded
    before it.  Those moves are generated and counted in ``stats`` like
    any other, but not applied and not returned: applying the inverse of
    an edge's move gives back the edge's source and move, so the result
    would only repeat the edge.  ``movegraph.build`` uses this to apply
    each edge once: a serial build passes the set it collected for the
    surface, and a pooled build sends it to the worker with the surface's
    text.  An unknown move kind is refused, as ``check_move_set`` says.
    """
    move_set = check_move_set(move_set)
    if not surf.is_valid():
        raise SemanticError("neighbours of an invalid encoding")
    if surf.weight() > budget:
        raise SemanticError("surface weight exceeds the budget")
    if stats is None:
        stats = {}
    stats.setdefault("budget_rejected", 0)
    stats.setdefault("pinched_spheres", {})
    out = []
    for move in _candidate_moves(surf, move_set, catalog, budget, stats):
        if move.kind == PINCH:
            counts = stats["pinched_spheres"]
            counts[move.sphere] = counts.get(move.sphere, 0) + 1
        if known and move.to_text() in known:
            continue
        result, inverse = apply_with_inverse(surf, move, catalog)
        out.append(Neighbor(move, inverse, result))
    out.sort(key=lambda n: (n.surface.canonical_key(), n.move.to_text()))
    return out
