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
new annulus pair.  The kind is ``F2`` when the two arcs lie on a single
curve in both tetrahedra on either end of the move (these moves change
the number of annulus pieces) and ``F2'`` otherwise (annulus count is
preserved); this labelling is invariant under inversion.  Face classes
glued to the same tetrahedron on both sides are not eligible.  Weight
delta: 0.

``PINCH`` / ``UNPINCH``: tube the surface to a catalog sphere inside one
tetrahedron, replacing the two disk pieces on the chosen curves by an
annulus pair, or split such an annulus and delete the sphere component.
Vertex-link spheres are inserted at their canonical innermost placement;
spheres loaded from serialized text use block placement at the low end
of every edge class, subject to validation.  Unpinch only recognizes a
component sitting exactly at its catalog placement, which keeps pinch
and unpinch strict inverses.  Weight delta: +-(sphere weight).

Serialization: ``kind@<loc>[k=v,...]``, e.g. ``V0+@v0[corner=1.2,partner=3]``,
``E1-@e2[at=0]``, ``F2'@f1[arcs=0-5:1-2,gain=1]``,
``PINCH@t0[curve=2,sphere=v0,scurve=1]``, ``UNPINCH@t1[side=4]``.
Curve ids always refer to the encoding the move applies to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import NotApplicableError, ParseError, SemanticError
from .surface import (
    CRUDELY_ALMOST_NORMAL,
    CRUDELY_NORMAL,
    Surface,
    _face_layout,
    parse_surface,
    pairs_cross,
    vertex_link,
)
from .triangulation import EDGE_VERTICES

V0, E1, F2, F2P, PINCH, UNPINCH = "V0", "E1", "F2", "F2'", "PINCH", "UNPINCH"
ALL_KINDS = (V0, E1, F2, F2P, PINCH, UNPINCH)
DEFAULT_MOVE_SET = frozenset({V0, E1, F2P, PINCH, UNPINCH})

_LOC_PREFIX = {V0: "v", E1: "e", F2: "f", F2P: "f", PINCH: "t", UNPINCH: "t"}


@dataclass(frozen=True)
class Move:
    kind: str
    location: int
    direction: int = 1
    corner: Optional[tuple] = None        # V0 fused: (tet, corner label)
    partner: Optional[int] = None         # V0 fused emit: target curve id
    gap: Optional[int] = None             # E1: insertion gap / deletion index
    incidence: Optional[tuple] = None     # E1 emit: (face class, side)
    arc: Optional[tuple] = None           # E1 emit: arc to reroute
    arcs: Optional[tuple] = None          # F2-type: the two arcs
    gain: Optional[int] = None            # F2-type: gaining incidence 0/1
    curve: Optional[int] = None           # PINCH: surface curve / UNPINCH: sphere side
    sphere: Optional[str] = None          # PINCH: catalog id
    sphere_curve: Optional[int] = None    # PINCH: curve id inside the sphere

    def to_text(self):
        prefix = _LOC_PREFIX[self.kind]
        if self.kind == V0:
            head = "V0+" if self.direction > 0 else "V0-"
            if self.corner is None:
                body = "free"
            else:
                body = "corner={}.{}".format(*self.corner)
                if self.direction > 0:
                    body += ",partner={}".format(self.partner)
            return "{}@{}{}[{}]".format(head, prefix, self.location, body)
        if self.kind == E1:
            if self.direction > 0:
                body = "gap={},side={}.{},arc={}-{}".format(
                    self.gap, self.incidence[0], self.incidence[1], *self.arc
                )
                return "E1+@{}{}[{}]".format(prefix, self.location, body)
            return "E1-@{}{}[at={}]".format(prefix, self.location, self.gap)
        if self.kind in (F2, F2P):
            (a, b), (c, d) = self.arcs
            body = "arcs={}-{}:{}-{},gain={}".format(a, b, c, d, self.gain)
            return "{}@{}{}[{}]".format(self.kind, prefix, self.location, body)
        if self.kind == PINCH:
            body = "curve={},sphere={},scurve={}".format(
                self.curve, self.sphere, self.sphere_curve
            )
            return "PINCH@{}{}[{}]".format(prefix, self.location, body)
        if self.kind == UNPINCH:
            return "UNPINCH@{}{}[side={}]".format(prefix, self.location, self.curve)
        raise SemanticError("unknown move kind {}".format(self.kind))

    def __str__(self):
        return self.to_text()


_MOVE_RE = re.compile(r"^(V0|E1|F2'|F2|PINCH|UNPINCH)([+-]?)@([veft])(\d+)\[(.*)\]$")


def parse_move(text):
    m = _MOVE_RE.match(text.strip())
    if not m:
        raise ParseError("bad move syntax: '{}'".format(text.strip()))
    kind, sign, prefix, loc, body = m.groups()
    if prefix != _LOC_PREFIX[kind]:
        raise ParseError("move {} expects location prefix '{}'".format(kind, _LOC_PREFIX[kind]))
    loc = int(loc)
    fields = {}
    if body:
        for item in body.split(","):
            key, _, val = item.partition("=")
            fields[key] = val
    try:
        if kind == V0:
            if sign not in "+-":
                raise ParseError("V0 needs a direction sign")
            direction = 1 if sign == "+" else -1
            if "free" in fields:
                return Move(V0, loc, direction=direction)
            t, _, w = fields["corner"].partition(".")
            corner = (int(t), int(w))
            partner = int(fields["partner"]) if direction > 0 else None
            return Move(V0, loc, direction=direction, corner=corner, partner=partner)
        if kind == E1:
            if sign == "+":
                c, _, k = fields["side"].partition(".")
                a, _, b = fields["arc"].partition("-")
                return Move(
                    E1, loc, direction=1, gap=int(fields["gap"]),
                    incidence=(int(c), int(k)), arc=(int(a), int(b)),
                )
            if sign == "-":
                return Move(E1, loc, direction=-1, gap=int(fields["at"]))
            raise ParseError("E1 needs a direction sign")
        if kind in (F2, F2P):
            first, _, second = fields["arcs"].partition(":")
            a, _, b = first.partition("-")
            c, _, d = second.partition("-")
            return Move(
                kind, loc,
                arcs=((int(a), int(b)), (int(c), int(d))),
                gain=int(fields["gain"]),
            )
        if kind == PINCH:
            return Move(
                PINCH, loc, curve=int(fields["curve"]), sphere=fields["sphere"],
                sphere_curve=int(fields["scurve"]),
            )
        if kind == UNPINCH:
            return Move(UNPINCH, loc, curve=int(fields["side"]))
    except (KeyError, ValueError) as exc:
        raise ParseError("bad move parameters in '{}': {}".format(text.strip(), exc))
    raise ParseError("unknown move kind")


# ---------------------------------------------------------------------------
# Sphere catalog


class CatalogSphere:
    def __init__(self, sphere_id, surf, vertex=None):
        self.sphere_id = sphere_id
        self.surface = surf
        self.vertex = vertex

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
    entries = [
        CatalogSphere("v{}".format(v), vertex_link(tri, v), vertex=v)
        for v in range(len(tri.vertex_classes))
    ]
    return SphereCatalog(entries)


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
    (new_weights, shift, inserted) where shift(e, i) is the new index of
    old point i and inserted[e][k] the new index of the k-th insertion.
    """
    new_weights = list(weights)
    inserted = {}
    for e, gaps in inserts.items():
        new_weights[e] += len(gaps)
        inserted[e] = [g + k for k, g in enumerate(gaps)]

    def shift(e, i):
        gaps = inserts.get(e)
        if not gaps:
            return i
        return i + sum(1 for g in gaps if g <= i)

    return tuple(new_weights), shift, inserted


def _point_map_for_deletions(weights, removals):
    """Maps for deleting points.  ``removals[e]`` is a sorted index list."""
    new_weights = list(weights)
    for e, idx in removals.items():
        new_weights[e] -= len(idx)
        if new_weights[e] < 0:
            raise NotApplicableError("removing more points than exist on edge {}".format(e))

    def shift(e, i):
        idx = removals.get(e)
        if not idx:
            return i
        if i in idx:
            raise NotApplicableError("a surviving arc still references a deleted point")
        return i - sum(1 for r in idx if r < i)

    return tuple(new_weights), shift


def _remap_matchings(surf, new_weights, shift, matchings=None):
    """Re-express matchings in the slot space of the new weights."""
    tri = surf.tri
    if matchings is None:
        matchings = surf.matchings
    out = []
    for cid, pairs in enumerate(matchings):
        old = surf.face_layout(cid)
        new = _face_layout(tri, new_weights, cid)
        remapped = []
        for pair in pairs:
            slots = []
            for s in pair:
                k, _ = old.side_of_slot(s)
                e, i = old.point_of_slot(s)
                slots.append(new.slot_of_point(k, shift(e, i)))
            remapped.append(tuple(sorted(slots)))
        out.append(tuple(sorted(remapped)))
    return out


def _shift_node(tri, tet, shift, node):
    edge_local, i = node
    e = tri.edge_class_of[(tet, edge_local)]
    return edge_local, shift(e, i)


def _map_annuli(old, new, shift, overrides=None, removed_points=None):
    """Carry annulus pairs from ``old`` to ``new`` by tracking a surviving
    node of each member curve.  ``overrides`` replaces whole tetrahedra."""
    overrides = overrides or {}
    removed = removed_points or {}
    annuli = []
    for tet in range(old.tri.tet_count):
        if tet in overrides:
            annuli.append(overrides[tet])
            continue
        pairs = []
        for a, b in old.annuli[tet]:
            geo_old = old.tet_geometry(tet)
            geo_new = new.tet_geometry(tet)
            mapped = []
            for cid in (a, b):
                rep = None
                for node in geo_old.curves[cid]:
                    e = old.tri.edge_class_of[(tet, node[0])]
                    if node[1] not in removed.get(e, ()):
                        rep = node
                        break
                if rep is None:
                    raise NotApplicableError(
                        "an annulus curve in tet {} would be deleted".format(tet)
                    )
                new_node = _shift_node(old.tri, tet, shift, rep)
                mapped.append(geo_new.node_curve[new_node])
            if mapped[0] == mapped[1]:
                raise NotApplicableError(
                    "annulus curves in tet {} would merge".format(tet)
                )
            pairs.append(tuple(sorted(mapped)))
        annuli.append(tuple(pairs))
    return annuli


def _require_valid_result(surf, context):
    v = surf.validate()
    if v not in (CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL):
        raise NotApplicableError("{}: result {}".format(context, v))
    return surf


def _curve_of_copy(geo, f, pair):
    for copy_id, (cf, cpair, _, _) in enumerate(geo.arc_copies):
        if cf == f and cpair == pair:
            return geo.copy_curve[copy_id]
    raise SemanticError("arc {} not found on face {}".format(pair, f))


def _edge_incidences(surf, e):
    """All (face class, side) incidences around edge class e, in order."""
    out = []
    for cid in range(len(surf.tri.face_classes)):
        layout = surf.face_layout(cid)
        for k in range(3):
            if layout.side_edge[k] == e:
                out.append((cid, k))
    return out


# ---------------------------------------------------------------------------
# V0


def _bubble_inserts(tri, weights, v):
    inserts = {}
    for e, end in tri.vertex_edge_ends[v]:
        inserts.setdefault(e, []).append(0 if end == 0 else weights[e])
    for e in inserts:
        inserts[e].sort()
    return inserts


def _bubble_point(tri, new_weights, e, end):
    return 0 if end == 0 else new_weights[e] - 1


def _corner_bubble_nodes(tri, new_weights, tet, corner):
    """The three nodes of the corner bubble curve at a tetrahedron corner."""
    nodes = []
    for e_local in range(6):
        a, b = EDGE_VERTICES[e_local]
        if corner not in (a, b):
            continue
        e = tri.edge_class_of[(tet, e_local)]
        end = tri.vertex_class_end_of_edge(tet, e_local, corner)
        nodes.append((e_local, _bubble_point(tri, new_weights, e, end)))
    return sorted(nodes)


def _insert_bubble(surf, v):
    """Insert the innermost vertex-link bubble at v; all pieces disks."""
    tri = surf.tri
    inserts = _bubble_inserts(tri, surf.weights, v)
    new_weights, shift, _ = _point_map_for_insertions(surf.weights, inserts)
    matchings = _remap_matchings(surf, new_weights, shift)
    for cid in range(len(tri.face_classes)):
        layout = _face_layout(tri, new_weights, cid)
        extra = []
        for m in range(3):
            if layout.corner_vertex[m] != v:
                continue
            gap = layout.corner_gap(m)
            extra.append(tuple(sorted(((gap - 1) % layout.n, gap))))
        matchings[cid] = tuple(sorted(matchings[cid] + tuple(extra)))
    base = Surface(tri, new_weights, matchings)
    annuli = _map_annuli(surf, base, shift)
    return new_weights, matchings, annuli, shift


def _apply_v0_emit(surf, move):
    tri = surf.tri
    v = move.location
    if not (0 <= v < len(tri.vertex_classes)):
        raise NotApplicableError("unknown vertex class {}".format(v))
    new_weights, matchings, annuli, shift = _insert_bubble(surf, v)
    if move.corner is None:
        result = Surface(tri, new_weights, matchings, annuli)
        inverse = Move(V0, v, direction=-1)
        return _require_valid_result(result, "V0 emit"), inverse
    tet, corner = move.corner
    if not (0 <= tet < tri.tet_count) or not (0 <= corner < 4):
        raise NotApplicableError("bad corner {}.{}".format(tet, corner))
    if tri.vertex_class_of[(tet, corner)] != v:
        raise NotApplicableError("corner {}.{} is not at vertex class {}".format(tet, corner, v))
    if surf.annuli[tet]:
        raise NotApplicableError("tet {} already has an annulus".format(tet))
    old_geo = surf.tet_geometry(tet)
    if not (0 <= move.partner < len(old_geo.curves)):
        raise NotApplicableError("no curve {} in tet {}".format(move.partner, tet))
    probe = Surface(tri, new_weights, matchings, annuli)
    geo = probe.tet_geometry(tet)
    bubble_nodes = _corner_bubble_nodes(tri, new_weights, tet, corner)
    c_bubble = geo.node_curve[bubble_nodes[0]]
    if list(geo.curves[c_bubble]) != bubble_nodes:
        raise NotApplicableError("corner bubble curve is obstructed at {}.{}".format(tet, corner))
    rep = old_geo.curves[move.partner][0]
    c_partner = geo.node_curve[_shift_node(tri, tet, shift, rep)]
    if c_partner == c_bubble:
        raise NotApplicableError("partner curve coincides with the bubble")
    annuli = list(annuli)
    annuli[tet] = (tuple(sorted((c_bubble, c_partner))),)
    result = Surface(tri, new_weights, matchings, annuli)
    inverse = Move(V0, v, direction=-1, corner=move.corner)
    return _require_valid_result(result, "V0 emit"), inverse


def _detect_bubble(surf, v):
    """Locate the innermost bubble at v.  Returns (corner curves, arcs)."""
    tri = surf.tri
    for e, end in tri.vertex_edge_ends[v]:
        need = sum(1 for ee, _ in tri.vertex_edge_ends[v] if ee == e)
        if surf.weights[e] < need:
            raise NotApplicableError("no bubble point on edge {}".format(e))
    corner_arcs = {}
    for cid in range(len(tri.face_classes)):
        layout = surf.face_layout(cid)
        for m in range(3):
            if layout.corner_vertex[m] != v:
                continue
            gap = layout.corner_gap(m)
            pair = tuple(sorted(((gap - 1) % layout.n, gap)))
            if pair not in surf.matchings[cid]:
                raise NotApplicableError(
                    "no corner arc at corner {} of face {}".format(m, cid)
                )
            corner_arcs.setdefault(cid, []).append(pair)
    corner_curves = {}
    for tet, corner in tri.vertex_classes[v]:
        geo = surf.tet_geometry(tet)
        nodes = _corner_bubble_nodes(tri, surf.weights, tet, corner)
        cid = geo.node_curve.get(tuple(nodes[0]))
        if cid is None or list(geo.curves[cid]) != nodes:
            raise NotApplicableError(
                "no corner bubble curve at {}.{}".format(tet, corner)
            )
        corner_curves[(tet, corner)] = cid
    return corner_curves, corner_arcs


def _apply_v0_absorb(surf, move):
    tri = surf.tri
    v = move.location
    if not (0 <= v < len(tri.vertex_classes)):
        raise NotApplicableError("unknown vertex class {}".format(v))
    corner_curves, corner_arcs = _detect_bubble(surf, v)
    partner_old = None
    if move.corner is not None:
        if move.corner not in corner_curves:
            raise NotApplicableError("corner {}.{} is not at vertex class {}".format(*move.corner, v))
        tet, corner = move.corner
        c_bubble = corner_curves[(tet, corner)]
        pairs = surf.annuli[tet]
        if len(pairs) != 1 or c_bubble not in pairs[0]:
            raise NotApplicableError(
                "bubble corner at {}.{} is not fused into an annulus".format(tet, corner)
            )
        partner_old = pairs[0][0] if pairs[0][1] == c_bubble else pairs[0][1]
        if partner_old in {
            c for (t2, _), c in corner_curves.items() if t2 == tet
        }:
            raise NotApplicableError("annulus joins the bubble to itself")
    for (tet, corner), cid in corner_curves.items():
        if move.corner is not None and (tet, corner) == tuple(move.corner):
            continue
        if any(cid in pair for pair in surf.annuli[tet]):
            raise NotApplicableError(
                "bubble corner at {}.{} is paired into an annulus".format(tet, corner)
            )
    removals = {}
    for e, end in tri.vertex_edge_ends[v]:
        removals.setdefault(e, []).append(_bubble_point(tri, surf.weights, e, end))
    for e in removals:
        removals[e] = sorted(set(removals[e]))
        if len(removals[e]) != sum(1 for ee, _ in tri.vertex_edge_ends[v] if ee == e):
            raise NotApplicableError("bubble points collide on edge {}".format(e))
    new_weights, shift = _point_map_for_deletions(surf.weights, removals)
    stripped = []
    for cid, pairs in enumerate(surf.matchings):
        drop = set(corner_arcs.get(cid, ()))
        stripped.append(tuple(p for p in pairs if p not in drop))
    matchings = _remap_matchings(surf, new_weights, shift, stripped)
    overrides = {}
    if move.corner is not None:
        overrides[move.corner[0]] = ()
    probe = Surface(tri, new_weights, matchings)
    annuli = _map_annuli(
        surf, probe, shift, overrides=overrides, removed_points=removals
    )
    result = Surface(tri, new_weights, matchings, annuli)
    if move.corner is None:
        inverse = Move(V0, v, direction=1)
    else:
        tet, corner = move.corner
        geo_old = surf.tet_geometry(tet)
        rep = next(
            node
            for node in geo_old.curves[partner_old]
            if node[1] not in removals.get(tri.edge_class_of[(tet, node[0])], ())
        )
        partner_new = result.tet_geometry(tet).node_curve[
            _shift_node(tri, tet, shift, rep)
        ]
        inverse = Move(V0, v, direction=1, corner=move.corner, partner=partner_new)
    return _require_valid_result(result, "V0 absorb"), inverse


# ---------------------------------------------------------------------------
# E1


def _apply_e1_insert(surf, move):
    tri = surf.tri
    e = move.location
    if not (0 <= e < len(tri.edge_classes)):
        raise NotApplicableError("unknown edge class {}".format(e))
    if tri.edge_degree(e) < 2:
        raise NotApplicableError("edge {} has degree < 2".format(e))
    w = surf.weights[e]
    gap = move.gap
    if not (0 <= gap <= w):
        raise NotApplicableError("gap {} out of range for edge {}".format(gap, e))
    incidences = _edge_incidences(surf, e)
    if move.incidence not in incidences:
        raise NotApplicableError("face side {} is not around edge {}".format(move.incidence, e))
    chat, khat = move.incidence
    layout = surf.face_layout(chat)
    arc = tuple(sorted(move.arc))
    if arc not in surf.matchings[chat]:
        raise NotApplicableError("face {} has no arc {}".format(chat, arc))
    _, gap_region, chord_sides = surf.face_regions(chat)
    r_gap = gap_region[layout.gap_of_class_gap(khat, gap)]
    if r_gap not in chord_sides[arc]:
        raise NotApplicableError("arc {} is not adjacent to the insertion gap".format(arc))

    new_weights, shift, inserted = _point_map_for_insertions(surf.weights, {e: [gap, gap]})
    p_lo, p_hi = inserted[e]
    matchings = _remap_matchings(surf, new_weights, shift)
    for cid, k in incidences:
        lay = _face_layout(tri, new_weights, cid)
        s1 = lay.slot_of_point(k, p_lo)
        s2 = lay.slot_of_point(k, p_hi)
        if abs(s1 - s2) != 1:
            raise SemanticError("new points are not adjacent slots")
        if (cid, k) == (chat, khat):
            continue
        matchings[cid] = tuple(sorted(matchings[cid] + (tuple(sorted((s1, s2))),)))
    # Reroute through the chosen face.
    lay = _face_layout(tri, new_weights, chat)
    a_new = []
    for s in arc:
        k, _ = layout.side_of_slot(s)
        ecls, i = layout.point_of_slot(s)
        a_new.append(lay.slot_of_point(k, shift(ecls, i)))
    pa, pb = lay.slot_of_point(khat, p_lo), lay.slot_of_point(khat, p_hi)
    rest = tuple(p for p in matchings[chat] if p != tuple(sorted(a_new)))
    chosen = None
    for first, second in (((a_new[0], pa), (a_new[1], pb)),
                          ((a_new[0], pb), (a_new[1], pa))):
        candidate = rest + (tuple(sorted(first)), tuple(sorted(second)))
        if not any(
            pairs_cross(p, q)
            for idx, p in enumerate(candidate)
            for q in candidate[idx + 1:]
        ):
            chosen = candidate
            break
    if chosen is None:
        raise NotApplicableError("no planar rerouting through face {}".format(chat))
    matchings[chat] = tuple(sorted(chosen))
    probe = Surface(tri, new_weights, matchings)
    annuli = _map_annuli(surf, probe, shift)
    result = Surface(tri, new_weights, matchings, annuli)
    inverse = Move(E1, e, direction=-1, gap=gap)
    return _require_valid_result(result, "E1 insert"), inverse


def _apply_e1_delete(surf, move):
    tri = surf.tri
    e = move.location
    if not (0 <= e < len(tri.edge_classes)):
        raise NotApplicableError("unknown edge class {}".format(e))
    if tri.edge_degree(e) < 2:
        raise NotApplicableError("edge {} has degree < 2".format(e))
    k = move.gap
    w = surf.weights[e]
    if not (0 <= k and k + 1 < w):
        raise NotApplicableError("no consecutive points {}..{} on edge {}".format(k, k + 1, e))
    incidences = _edge_incidences(surf, e)
    bigons = []
    reroutes = []
    for cid, kk in incidences:
        lay = surf.face_layout(cid)
        s1, s2 = lay.slot_of_point(kk, k), lay.slot_of_point(kk, k + 1)
        pair = tuple(sorted((s1, s2)))
        if pair in surf.matchings[cid]:
            bigons.append((cid, kk, pair))
        else:
            reroutes.append((cid, kk, s1, s2))
    if len(reroutes) != 1:
        raise NotApplicableError(
            "points {}..{} on edge {} are not a finger (need exactly one "
            "rerouted face, found {})".format(k, k + 1, e, len(reroutes))
        )
    chat, khat, s1, s2 = reroutes[0]
    partner = {}
    for a, b in surf.matchings[chat]:
        partner[a] = b
        partner[b] = a
    x, y = partner[s1], partner[s2]
    if x in (s1, s2) or y in (s1, s2):
        raise NotApplicableError("rerouted arcs degenerate at edge {}".format(e))
    # Bigon curves must bound disks, not annuli.
    for tet in range(tri.tet_count):
        if not surf.annuli[tet]:
            continue
        geo = surf.tet_geometry(tet)
        for e_local in range(6):
            if tri.edge_class_of[(tet, e_local)] != e:
                continue
            for pt in (k, k + 1):
                cid = geo.node_curve.get((e_local, pt))
                if cid is None:
                    continue
                nodes = geo.curves[cid]
                if all(n[1] in (k, k + 1) and tri.edge_class_of[(tet, n[0])] == e for n in nodes):
                    if any(cid in pair for pair in surf.annuli[tet]):
                        raise NotApplicableError(
                            "finger sleeve in tet {} is paired into an annulus".format(tet)
                        )
    removals = {e: [k, k + 1]}
    new_weights, shift = _point_map_for_deletions(surf.weights, removals)
    stripped = []
    for cid, pairs in enumerate(surf.matchings):
        drop = {p for (c2, _, p) in bigons if c2 == cid}
        keep = [p for p in pairs if p not in drop]
        if cid == chat:
            keep = [p for p in keep if p not in (tuple(sorted((s1, x))), tuple(sorted((s2, y))))]
            keep.append(tuple(sorted((x, y))))
        stripped.append(tuple(keep))
    matchings = _remap_matchings(surf, new_weights, shift, stripped)
    probe = Surface(tri, new_weights, matchings)
    annuli = _map_annuli(surf, probe, shift, removed_points=removals)
    result = Surface(tri, new_weights, matchings, annuli)
    lay_old = surf.face_layout(chat)
    restored = []
    for s in (x, y):
        kk, _ = lay_old.side_of_slot(s)
        ecls, i = lay_old.point_of_slot(s)
        restored.append(_face_layout(tri, new_weights, chat).slot_of_point(kk, shift(ecls, i)))
    inverse = Move(
        E1, e, direction=1, gap=k, incidence=(chat, khat),
        arc=tuple(sorted(restored)),
    )
    return _require_valid_result(result, "E1 delete"), inverse


# ---------------------------------------------------------------------------
# F2 / F2'


def _apply_f2(surf, move):
    tri = surf.tri
    cid = move.location
    if not (0 <= cid < len(tri.face_classes)):
        raise NotApplicableError("unknown face class {}".format(cid))
    layout = surf.face_layout(cid)
    (t0, f0), (t1, f1) = layout.incidences
    if t0 == t1:
        raise NotApplicableError(
            "face {} is glued to tet {} on both sides".format(cid, t0)
        )
    alpha, beta = (tuple(sorted(p)) for p in move.arcs)
    if alpha == beta:
        raise NotApplicableError("need two distinct arcs")
    for p in (alpha, beta):
        if p not in surf.matchings[cid]:
            raise NotApplicableError("face {} has no arc {}".format(cid, p))
    _, _, chord_sides = surf.face_regions(cid)
    if not set(chord_sides[alpha]) & set(chord_sides[beta]):
        raise NotApplicableError("arcs {} and {} do not bound a common region".format(alpha, beta))
    if move.gain not in (0, 1):
        raise NotApplicableError("gain side must be 0 or 1")
    g = move.gain
    lose = 1 - g
    t_g, f_g = layout.incidences[g]
    t_l, f_l = layout.incidences[lose]
    geo_l = surf.tet_geometry(t_l)
    geo_g = surf.tet_geometry(t_g)
    u_a, u_b = _curve_of_copy(geo_l, f_l, alpha), _curve_of_copy(geo_l, f_l, beta)
    v_a, v_b = _curve_of_copy(geo_g, f_g, alpha), _curve_of_copy(geo_g, f_g, beta)
    annulus_members_l = {c for pair in surf.annuli[t_l] for c in pair}
    annulus_members_g = {c for pair in surf.annuli[t_g] for c in pair}
    if u_a == u_b:
        if u_a in annulus_members_l:
            raise NotApplicableError("losing strands lie on an annulus boundary")
        losing_same = True
    else:
        if surf.annuli[t_l] != ((min(u_a, u_b), max(u_a, u_b)),):
            raise NotApplicableError("losing strands lie on two separate pieces")
        losing_same = False
    if v_a == v_b:
        if surf.annuli[t_g]:
            raise NotApplicableError("gaining tet already has an annulus")
        gaining_same = True
    else:
        if v_a in annulus_members_g or v_b in annulus_members_g:
            raise NotApplicableError("gaining strands touch an annulus piece")
        gaining_same = False
    same_both_pre = losing_same and gaining_same

    (a, b), (c, d) = alpha, beta
    rest = tuple(p for p in surf.matchings[cid] if p not in (alpha, beta))
    chosen = None
    for first, second in (((a, c), (b, d)), ((a, d), (b, c))):
        candidate = rest + (tuple(sorted(first)), tuple(sorted(second)))
        if not any(
            pairs_cross(p, q)
            for idx, p in enumerate(candidate)
            for q in candidate[idx + 1:]
        ):
            chosen = (tuple(sorted(first)), tuple(sorted(second)))
            break
    if chosen is None:
        raise NotApplicableError("no planar reconnection of {} and {}".format(alpha, beta))
    matchings = list(surf.matchings)
    matchings[cid] = tuple(sorted(rest + chosen))
    probe = Surface(tri, surf.weights, matchings)
    # Untouched tetrahedra keep identical curve systems.
    geo_l_new = probe.tet_geometry(t_l)
    geo_g_new = probe.tet_geometry(t_g)
    overrides = {}
    if losing_same:
        pairs = []
        for pa, pb in surf.annuli[t_l]:
            mapped = tuple(
                sorted(
                    geo_l_new.node_curve[geo_l.curves[x][0]] for x in (pa, pb)
                )
            )
            pairs.append(mapped)
        overrides[t_l] = tuple(pairs)
    else:
        overrides[t_l] = ()
    if gaining_same:
        na = _curve_of_copy(geo_g_new, f_g, chosen[0])
        nb = _curve_of_copy(geo_g_new, f_g, chosen[1])
        if na == nb:
            raise NotApplicableError("gaining strands did not split")
        overrides[t_g] = (tuple(sorted((na, nb))),)
    else:
        pairs = []
        for pa, pb in surf.annuli[t_g]:
            mapped = tuple(
                sorted(
                    geo_g_new.node_curve[geo_g.curves[x][0]] for x in (pa, pb)
                )
            )
            pairs.append(mapped)
        overrides[t_g] = tuple(pairs)
    annuli = []
    for tet in range(tri.tet_count):
        annuli.append(overrides.get(tet, surf.annuli[tet]))
    result = Surface(tri, surf.weights, matchings, annuli)
    result._tets.update(
        {t: geo for t, geo in surf._tets.items() if t not in (t_l, t_g)}
    )
    # Classification is symmetric: F2 when the arcs lie on a single curve in
    # both tetrahedra on either end of the move.
    la = _curve_of_copy(geo_l_new, f_l, chosen[0]) == _curve_of_copy(geo_l_new, f_l, chosen[1])
    ga = _curve_of_copy(geo_g_new, f_g, chosen[0]) == _curve_of_copy(geo_g_new, f_g, chosen[1])
    same_both_post = la and ga
    kind = F2 if (same_both_pre or same_both_post) else F2P
    if move.kind != kind:
        raise NotApplicableError(
            "move is declared {} but reconnection is {}".format(move.kind, kind)
        )
    inverse = Move(kind, cid, arcs=tuple(sorted(chosen)), gain=lose)
    return _require_valid_result(result, "face move"), inverse


# ---------------------------------------------------------------------------
# PINCH / UNPINCH


def _sphere_placement(surf, entry):
    """Insertion plan and sphere-point map for adding a catalog sphere."""
    tri = surf.tri
    sphere = entry.surface
    inserts = {}
    point_map = {}
    if entry.vertex is not None:
        v = entry.vertex
        for e, end in tri.vertex_edge_ends[v]:
            inserts.setdefault(e, []).append(0 if end == 0 else surf.weights[e])
        for e in inserts:
            inserts[e].sort()
        new_weights, shift, _ = _point_map_for_insertions(surf.weights, inserts)
        for e, end in tri.vertex_edge_ends[v]:
            s_idx = _bubble_point(tri, sphere.weights, e, end)
            point_map[(e, s_idx)] = _bubble_point(tri, new_weights, e, end)
    else:
        for e in range(len(tri.edge_classes)):
            k = sphere.weights[e]
            if k:
                inserts[e] = [0] * k
        new_weights, shift, inserted = _point_map_for_insertions(surf.weights, inserts)
        for e, new_idx in inserted.items():
            for s_idx, u_idx in enumerate(new_idx):
                point_map[(e, s_idx)] = u_idx
    return inserts, new_weights, shift, point_map


def _insert_sphere(surf, entry):
    tri = surf.tri
    sphere = entry.surface
    _, new_weights, shift, point_map = _sphere_placement(surf, entry)
    matchings = _remap_matchings(surf, new_weights, shift)
    for cid in range(len(tri.face_classes)):
        s_lay = sphere.face_layout(cid)
        u_lay = _face_layout(tri, new_weights, cid)
        extra = []
        for pair in sphere.matchings[cid]:
            slots = []
            for s in pair:
                kk, _ = s_lay.side_of_slot(s)
                ecls, i = s_lay.point_of_slot(s)
                slots.append(u_lay.slot_of_point(kk, point_map[(ecls, i)]))
            extra.append(tuple(sorted(slots)))
        matchings[cid] = tuple(sorted(tuple(matchings[cid]) + tuple(extra)))
    return new_weights, matchings, shift, point_map


def _apply_pinch(surf, move, catalog):
    tri = surf.tri
    tet = move.location
    if not (0 <= tet < tri.tet_count):
        raise NotApplicableError("unknown tet {}".format(tet))
    if catalog is None:
        raise SemanticError("pinch requires a sphere catalog")
    entry = catalog.get(move.sphere)
    if surf.annuli[tet]:
        raise NotApplicableError("tet {} already has an annulus".format(tet))
    geo_old = surf.tet_geometry(tet)
    if not (0 <= move.curve < len(geo_old.curves)):
        raise NotApplicableError("no curve {} in tet {}".format(move.curve, tet))
    sphere_geo = entry.surface.tet_geometry(tet)
    if not (0 <= move.sphere_curve < len(sphere_geo.curves)):
        raise NotApplicableError(
            "sphere {} has no curve {} in tet {}".format(move.sphere, move.sphere_curve, tet)
        )
    new_weights, matchings, shift, point_map = _insert_sphere(surf, entry)
    probe = Surface(tri, new_weights, matchings)
    annuli = _map_annuli(surf, probe, shift)
    geo_new = probe.tet_geometry(tet)
    rep = geo_old.curves[move.curve][0]
    c1 = geo_new.node_curve[_shift_node(tri, tet, shift, rep)]
    s_rep = sphere_geo.curves[move.sphere_curve][0]
    s_e = tri.edge_class_of[(tet, s_rep[0])]
    c2 = geo_new.node_curve[(s_rep[0], point_map[(s_e, s_rep[1])])]
    if c1 == c2:
        raise NotApplicableError("pinch curves coincide")
    annuli = list(annuli)
    annuli[tet] = (tuple(sorted((c1, c2))),)
    result = Surface(tri, new_weights, matchings, annuli)
    v = result.validate()
    if v not in (CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL):
        raise NotApplicableError(
            "sphere {} is not disjointly addable here ({})".format(move.sphere, v)
        )
    inverse = Move(UNPINCH, tet, curve=c2)
    return result, inverse


def _component_cells(surf, tet, curve):
    """Split the annulus of ``tet`` into disks and return the component
    containing the given curve's piece.  Curve systems are unaffected by
    the piece assignment, so geometry caches are shared."""
    annuli = list(surf.annuli)
    annuli[tet] = ()
    split = Surface(surf.tri, surf.weights, surf.matchings, annuli)
    split._tets = surf._tets
    for comp in split.components():
        if ("pc", tet, curve) in comp:
            return split, comp
    raise SemanticError("component lookup failed")


def _expected_sphere_cells(surf, entry):
    """Points and arcs the catalog sphere occupies at its placement,
    expressed in the coordinates of ``surf`` (which must contain it)."""
    tri = surf.tri
    sphere = entry.surface
    points = set()
    point_map = {}
    if entry.vertex is not None:
        v = entry.vertex
        for e, end in tri.vertex_edge_ends[v]:
            s_idx = _bubble_point(tri, sphere.weights, e, end)
            u_idx = _bubble_point(tri, surf.weights, e, end)
            points.add((e, u_idx))
            point_map[(e, s_idx)] = u_idx
    else:
        for e in range(len(tri.edge_classes)):
            for i in range(sphere.weights[e]):
                points.add((e, i))
                point_map[(e, i)] = i
    arcs = set()
    for cid in range(len(tri.face_classes)):
        s_lay = sphere.face_layout(cid)
        u_lay = surf.face_layout(cid)
        for pair in sphere.matchings[cid]:
            slots = []
            for s in pair:
                kk, _ = s_lay.side_of_slot(s)
                ecls, i = s_lay.point_of_slot(s)
                slots.append(u_lay.slot_of_point(kk, point_map[(ecls, i)]))
            arcs.add((cid, tuple(sorted(slots))))
    return points, arcs, point_map


def _apply_unpinch(surf, move, catalog):
    tri = surf.tri
    tet = move.location
    if not (0 <= tet < tri.tet_count):
        raise NotApplicableError("unknown tet {}".format(tet))
    if catalog is None:
        raise SemanticError("unpinch requires a sphere catalog")
    pairs = surf.annuli[tet]
    if len(pairs) != 1 or move.curve not in pairs[0]:
        raise NotApplicableError(
            "tet {} has no annulus with side {}".format(tet, move.curve)
        )
    keep = pairs[0][0] if pairs[0][1] == move.curve else pairs[0][1]
    split, comp = _component_cells(surf, tet, move.curve)
    if any(tag[0] == "pc" and tag[1] == tet and tag[2] == keep for tag in comp):
        raise NotApplicableError("annulus tube in tet {} is essential".format(tet))
    comp_points = {(tag[1], tag[2]) for tag in comp if tag[0] == "pt"}
    comp_arcs = {(tag[1], tag[2]) for tag in comp if tag[0] == "arc"}
    matched = None
    for entry in catalog:
        points, arcs, point_map = _expected_sphere_cells(surf, entry)
        if points == comp_points and arcs == comp_arcs:
            matched = (entry, point_map)
            break
    if matched is None:
        raise NotApplicableError(
            "split-off component is not a catalog sphere at its canonical placement"
        )
    entry, point_map = matched
    removals = {}
    for e, i in comp_points:
        removals.setdefault(e, []).append(i)
    for e in removals:
        removals[e].sort()
    new_weights, shift = _point_map_for_deletions(surf.weights, removals)
    stripped = []
    for cid, pairs_ in enumerate(surf.matchings):
        drop = {p for (c2, p) in comp_arcs if c2 == cid}
        stripped.append(tuple(p for p in pairs_ if p not in drop))
    matchings = _remap_matchings(surf, new_weights, shift, stripped)
    probe = Surface(tri, new_weights, matchings)
    annuli = _map_annuli(
        surf, probe, shift, overrides={tet: ()}, removed_points=removals
    )
    result = Surface(tri, new_weights, matchings, annuli)
    geo_old = surf.tet_geometry(tet)
    rep = next(
        node
        for node in geo_old.curves[keep]
        if node[1] not in removals.get(tri.edge_class_of[(tet, node[0])], ())
    )
    keep_new = result.tet_geometry(tet).node_curve[_shift_node(tri, tet, shift, rep)]
    # Which standalone curve of the sphere did we remove?
    inverse_map = {(e, u): s for (e, s), u in point_map.items()}
    side_nodes = set()
    for node in geo_old.curves[move.curve]:
        e = tri.edge_class_of[(tet, node[0])]
        side_nodes.add((node[0], inverse_map[(e, node[1])]))
    sphere_geo = entry.surface.tet_geometry(tet)
    s_curve = None
    for cidx, nodes in enumerate(sphere_geo.curves):
        if set(nodes) == side_nodes:
            s_curve = cidx
            break
    if s_curve is None:
        raise SemanticError("unpinch could not identify the sphere curve")
    inverse = Move(PINCH, tet, curve=keep_new, sphere=entry.sphere_id, sphere_curve=s_curve)
    return _require_valid_result(result, "unpinch"), inverse


# ---------------------------------------------------------------------------
# Public entry points


def apply_with_inverse(surf, move, catalog=None):
    """Apply a move to a valid encoding; returns (result, inverse move)."""
    if not surf.is_valid():
        raise SemanticError("cannot apply a move to an invalid encoding")
    if move.kind == V0:
        if move.direction > 0:
            return _apply_v0_emit(surf, move)
        return _apply_v0_absorb(surf, move)
    if move.kind == E1:
        if move.direction > 0:
            return _apply_e1_insert(surf, move)
        return _apply_e1_delete(surf, move)
    if move.kind in (F2, F2P):
        return _apply_f2(surf, move)
    if move.kind == PINCH:
        return _apply_pinch(surf, move, catalog)
    if move.kind == UNPINCH:
        return _apply_unpinch(surf, move, catalog)
    raise SemanticError("unknown move kind {}".format(move.kind))


def apply(surf, move, catalog=None):
    result, _ = apply_with_inverse(surf, move, catalog)
    return result


def pinch(surf, tet, curve, catalog, sphere_id, sphere_curve, budget=None):
    """Tube the surface to a catalog sphere; see the module docstring."""
    entry = catalog.get(sphere_id)
    if budget is not None and surf.weight() + entry.weight() > budget:
        raise NotApplicableError("pinch would exceed the weight budget")
    move = Move(PINCH, tet, curve=curve, sphere=sphere_id, sphere_curve=sphere_curve)
    return apply(surf, move, catalog)


class Neighbor:
    __slots__ = ("move", "inverse", "surface")

    def __init__(self, move, inverse, surface):
        self.move = move
        self.inverse = inverse
        self.surface = surface

    def __iter__(self):
        return iter((self.move, self.inverse, self.surface))


def _candidate_moves(surf, move_set, catalog, budget, stats):
    tri = surf.tri
    weight = surf.weight()
    if V0 in move_set:
        for v in range(len(tri.vertex_classes)):
            over = weight + tri.vertex_degree(v) > budget
            for tet, corner in tri.vertex_classes[v]:
                if surf.annuli[tet]:
                    continue
                geo = surf.tet_geometry(tet)
                region = geo.corner_region(corner)
                members = {c for pair in surf.annuli[tet] for c in pair}
                for c, adj in enumerate(geo.curve_adjacent):
                    if region not in adj or c in members:
                        continue
                    if over:
                        stats["budget_rejected"] += 1
                        continue
                    yield Move(V0, v, direction=1, corner=(tet, corner), partner=c)
            for tet, corner in tri.vertex_classes[v]:
                if surf.annuli[tet]:
                    yield Move(V0, v, direction=-1, corner=(tet, corner))
    if E1 in move_set:
        for e in range(len(tri.edge_classes)):
            if tri.edge_degree(e) < 2:
                continue
            over = weight + 2 > budget
            incidences = _edge_incidences(surf, e)
            for gap in range(surf.weights[e] + 1):
                for cid, k in incidences:
                    layout = surf.face_layout(cid)
                    _, gap_region, chord_sides = surf.face_regions(cid)
                    r = gap_region[layout.gap_of_class_gap(k, gap)]
                    for arc, sides in chord_sides.items():
                        if r not in sides:
                            continue
                        if over:
                            stats["budget_rejected"] += 1
                            continue
                        yield Move(E1, e, direction=1, gap=gap, incidence=(cid, k), arc=arc)
            for k in range(surf.weights[e] - 1):
                yield Move(E1, e, direction=-1, gap=k)
    if F2 in move_set or F2P in move_set:
        for cid in range(len(tri.face_classes)):
            layout = surf.face_layout(cid)
            (t0, _), (t1, _) = layout.incidences
            if t0 == t1:
                continue
            _, _, chord_sides = surf.face_regions(cid)
            chords = sorted(chord_sides)
            for i, alpha in enumerate(chords):
                for beta in chords[i + 1:]:
                    if not set(chord_sides[alpha]) & set(chord_sides[beta]):
                        continue
                    for gain in (0, 1):
                        # The kind is known only after applying; emit both
                        # labels and let apply reject the wrong one.
                        for kind in (F2, F2P):
                            if kind in move_set:
                                yield Move(kind, cid, arcs=(alpha, beta), gain=gain)
    if PINCH in move_set and catalog is not None:
        for entry in catalog:
            over = weight + entry.weight() > budget
            for tet in range(tri.tet_count):
                if surf.annuli[tet]:
                    continue
                n_sphere = len(entry.surface.tet_geometry(tet).curves)
                n_here = len(surf.tet_geometry(tet).curves)
                for c1 in range(n_here):
                    for c2 in range(n_sphere):
                        if over:
                            stats["budget_rejected"] += 1
                            continue
                        yield Move(
                            PINCH, tet, curve=c1, sphere=entry.sphere_id, sphere_curve=c2
                        )
    if UNPINCH in move_set and catalog is not None:
        for tet in range(tri.tet_count):
            for pair in surf.annuli[tet]:
                for side in pair:
                    yield Move(UNPINCH, tet, curve=side)


def neighbors(surf, budget, move_set=DEFAULT_MOVE_SET, catalog=None, stats=None):
    """All single-move neighbours within the weight budget.

    Returns Neighbor(move, inverse, surface) records sorted by the result's
    canonical key and then the move serialization.  ``stats``, when given,
    accumulates ``budget_rejected`` (candidate moves dropped for exceeding
    the budget before other applicability checks), ``generated`` and
    ``pinched_spheres`` counters.
    """
    if not surf.is_valid():
        raise SemanticError("neighbours of an invalid encoding")
    if surf.weight() > budget:
        raise SemanticError("surface weight exceeds the budget")
    if stats is None:
        stats = {}
    stats.setdefault("budget_rejected", 0)
    stats.setdefault("generated", 0)
    stats.setdefault("pinched_spheres", {})
    out = []
    for move in _candidate_moves(surf, frozenset(move_set), catalog, budget, stats):
        try:
            result, inverse = apply_with_inverse(surf, move, catalog)
        except NotApplicableError:
            continue
        if result.weight() > budget:
            stats["budget_rejected"] += 1
            continue
        if result.validate() not in (CRUDELY_NORMAL, CRUDELY_ALMOST_NORMAL):
            continue
        out.append(Neighbor(move, inverse, result))
        stats["generated"] += 1
        if move.kind == PINCH:
            counts = stats["pinched_spheres"]
            counts[move.sphere] = counts.get(move.sphere, 0) + 1
    out.sort(key=lambda n: (n.surface.canonical_key(), n.move.to_text()))
    return out
