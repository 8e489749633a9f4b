"""Brute-force reference implementations for the test suite.

Everything here is deliberately re-implemented from first principles,
and nothing is imported from ``cansurf``: the oracle reads gluing-table
text and writes surface text, re-deriving edge and face classes with its
own union-find, tracing curves with its own walker, and deciding annulus
admissibility with a crossing-parity argument instead of the region
machinery of the surface module.

Capabilities:

* ``oracle_matchings``: every non-crossing perfect matching of points on
  a triangle boundary, by exhaustive generation of all pairings followed
  by a crossing filter.
* ``oracle_surfaces``: every valid crudely almost normal encoding up to
  a small weight bound (hard cap 8), as canonical serializations.  Each
  candidate is valid by construction: its face rows are non-crossing
  matchings, and a tetrahedron carries at most one annulus, joining two
  curves that share a region.
* ``oracle_closure``: the fixed point of a successor map on surface
  texts, by a plain work-list loop.

These are exponential-time by design; they exist to check the fast
implementations on small instances.
"""

import itertools


class OracleError(ValueError):
    """An input the oracle cannot or will not enumerate."""


ORACLE_WEIGHT_CAP = 8

_EDGE_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _all_pairings(items):
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _all_pairings(rest):
            yield [(first, items[i])] + sub


def _crossing(p, q):
    (a, b), (c, d) = sorted(p), sorted(q)
    if a > c:
        (a, b), (c, d) = (c, d), (a, b)
    return a < c < b < d


def oracle_matchings(points_per_side):
    """All non-crossing perfect matchings of the boundary points of a
    triangle whose three sides carry the given numbers of points.

    Returns (count, matchings); each matching is a sorted tuple of
    sorted index pairs over the cyclic point numbering.
    """
    total = sum(points_per_side)
    if total % 2:
        raise OracleError("odd number of boundary points has no perfect matching")
    found = []
    for pairing in _all_pairings(range(total)):
        ok = True
        for i, p in enumerate(pairing):
            for q in pairing[i + 1:]:
                if _crossing(p, q):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(sorted(tuple(sorted(p)) for p in pairing)))
    found.sort()
    return len(found), found


# ---------------------------------------------------------------------------
# Independent triangulation bookkeeping


class _OracleTri:
    """A from-scratch reading of the gluing table text."""

    def __init__(self, text):
        rows = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(":")
            idx = int(head.split()[1])
            entries = []
            for token in rest.split():
                n, _, word = token.partition("/")
                entries.append((int(n), tuple(int(c) for c in word)))
            rows[idx] = entries
        self.n = len(rows)
        self.glue = [rows[i] for i in range(self.n)]
        # edge classes with orientation, own union-find
        size = 6 * self.n
        parent = list(range(size))
        sign = [1] * size

        def find(x):
            if parent[x] == x:
                return x, 1
            r, s = find(parent[x])
            parent[x] = r
            sign[x] *= s
            return r, sign[x]

        def union(x, y, rel):
            rx, sx = find(x)
            ry, sy = find(y)
            if rx != ry:
                parent[ry] = rx
                sign[ry] = rel * sx * sy

        def enum(a, b):
            return _EDGE_PAIRS.index((a, b) if a < b else (b, a))

        for t in range(self.n):
            for f, (n2, p) in enumerate(self.glue[t]):
                for a, b in _EDGE_PAIRS:
                    if f in (a, b):
                        continue
                    rel = 1 if p[a] < p[b] else -1
                    union(6 * t + enum(a, b), 6 * n2 + enum(p[a], p[b]), rel)
        classes = {}
        for t in range(self.n):
            for e in range(6):
                r, s = find(6 * t + e)
                classes.setdefault(r, []).append(((t, e), s))
        ordered = sorted(classes.values(), key=lambda m: m[0][0])
        self.edge_class = {}
        self.edge_sign = {}
        for cid, members in enumerate(ordered):
            base = members[0][1]
            for te, s in members:
                self.edge_class[te] = cid
                self.edge_sign[te] = s * base
        self.n_edges = len(ordered)
        # face classes
        pairs = set()
        for t in range(self.n):
            for f, (n2, p) in enumerate(self.glue[t]):
                pairs.add(tuple(sorted(((t, f), (n2, p[f])))))
        self.faces = sorted(pairs)

    def face_sides(self, cid):
        """Per side of face class cid: (edge class, net orientation, and
        the tet-edge as seen from each of the two incidences)."""
        (t, f), (t2, f2) = self.faces[cid]
        u = sorted(set(range(4)) - {f})
        perm = self.glue[t][f][1]
        sides = []
        for a, b in ((u[0], u[1]), (u[1], u[2]), (u[2], u[0])):
            e_local = _EDGE_PAIRS.index((a, b) if a < b else (b, a))
            e2_local = _EDGE_PAIRS.index(
                (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
            )
            traversal = 1 if a < b else -1
            sides.append(
                (
                    self.edge_class[(t, e_local)],
                    traversal * self.edge_sign[(t, e_local)],
                    e_local,
                    e2_local,
                )
            )
        return sides


class _SlotTable:
    """Slot positions of one face class at fixed weights (rebuilt here)."""

    def __init__(self, sides, weights):
        self.sides = sides
        self.w = [weights[e] for (e, _, _, _) in sides]
        self.start = [0, self.w[0], self.w[0] + self.w[1]]
        self.n = sum(self.w)

    def decode(self, s):
        k = 2 if s >= self.start[2] else (1 if s >= self.start[1] else 0)
        j = s - self.start[k]
        e, net, e_rep, e_oth = self.sides[k]
        i = j if net > 0 else self.w[k] - 1 - j
        return k, e, i, e_rep, e_oth


def _trace_curves(nodes_arcs):
    """Trace closed curves through nodes with exactly two arc ends each.
    ``nodes_arcs``: node -> list of (arc id, other node)."""
    curves = []
    seen = set()
    node_curve = {}
    for start in sorted(nodes_arcs):
        if start in seen:
            continue
        walk = []
        node, prev = start, None
        while True:
            walk.append(node)
            seen.add(node)
            first, second = nodes_arcs[node]
            arc, nxt = first if first[0] != prev else second
            prev = arc
            node = nxt
            if node == start:
                break
        curves.append(tuple(sorted(walk)))
    curves.sort()
    for cid, nodes in enumerate(curves):
        for nd in nodes:
            node_curve[nd] = cid
    return curves, node_curve


def _tet_curves(tri, tet, weights, matchings):
    """Curves on one tetrahedron boundary: independent re-derivation."""
    nodes_arcs = {}
    arc_id = 0
    for cid, pairs in enumerate(matchings):
        (ta, fa), (tb, fb) = tri.faces[cid]
        table = _SlotTable(tri.face_sides(cid), weights)
        for inc, (tt, ff) in enumerate(((ta, fa), (tb, fb))):
            if tt != tet:
                continue
            for pair in pairs:
                ends = []
                for s in pair:
                    _, e, i, e_rep, e_oth = table.decode(s)
                    ends.append((e_rep if inc == 0 else e_oth, i))
                nodes_arcs.setdefault(ends[0], []).append(((arc_id, inc, cid), ends[1]))
                nodes_arcs.setdefault(ends[1], []).append(((arc_id, inc, cid), ends[0]))
                arc_id += 1
    return _trace_curves(nodes_arcs)


def _gap_parities(tri, tet, weights, matchings, curves, node_curve):
    """Crossing parity of every curve along walks between edge gaps.

    Walking just inside a face, passing an arc endpoint crosses that
    arc's curve; walking along an edge past a surface point crosses the
    point's curve.  Closed walks on the sphere cross every closed curve
    evenly, so the parity vector of a gap relative to a base gap is path
    independent, and two gaps lie in the same complementary region
    exactly when their parity vectors agree.
    """
    local_w = {}
    for e_local in range(6):
        local_w[e_local] = weights[tri.edge_class[(tet, e_local)]]
    gaps = [(e, q) for e in range(6) for q in range(local_w[e] + 1)]
    moves = {g: [] for g in gaps}
    for e in range(6):
        for q in range(local_w[e]):
            vec = 1 << node_curve[(e, q)]
            moves[(e, q)].append(((e, q + 1), vec))
            moves[(e, q + 1)].append(((e, q), vec))
    # Walks just inside each face of the tet, between consecutive gaps of
    # the face boundary (crossing one arc endpoint), and around corners
    # (crossing nothing).
    for cid, pairs in enumerate(matchings):
        (ta, fa), (tb, fb) = tri.faces[cid]
        table = _SlotTable(tri.face_sides(cid), weights)
        for inc, (tt, ff) in enumerate(((ta, fa), (tb, fb))):
            if tt != tet:
                continue
            # boundary sequence: side gaps and the slots between them
            slot_curve = {}
            for pair in pairs:
                for s in pair:
                    _, e, i, e_rep, e_oth = table.decode(s)
                    slot_curve[s] = node_curve[(e_rep if inc == 0 else e_oth, i)]

            def side_gap(k, j):
                e, net, e_rep, e_oth = table.sides[k]
                q = j if net > 0 else table.w[k] - j
                return ((e_rep if inc == 0 else e_oth), q)

            for k in range(3):
                # between consecutive gaps along side k: crossing one slot
                for j in range(table.w[k]):
                    s = table.start[k] + j
                    vec = 1 << slot_curve[s]
                    a, b = side_gap(k, j), side_gap(k, j + 1)
                    moves[a].append((b, vec))
                    moves[b].append((a, vec))
                # around the corner joining side k to side k+1: no crossing
                a = side_gap(k, table.w[k])
                b = side_gap((k + 1) % 3, 0)
                moves[a].append((b, 0))
                moves[b].append((a, 0))
    base = gaps[0]
    par = {base: 0}
    stack = [base]
    while stack:
        g = stack.pop()
        for g2, vec in moves[g]:
            p2 = par[g] ^ vec
            if g2 not in par:
                par[g2] = p2
                stack.append(g2)
            elif par[g2] != p2:
                raise OracleError("inconsistent crossing parities")
    return par


def _admissible_pairs(tri, tet, weights, matchings):
    """Curve pairs that cobound a region, by the parity criterion."""
    curves, node_curve = _tet_curves(tri, tet, weights, matchings)
    if not curves:
        return curves, []
    par = _gap_parities(tri, tet, weights, matchings, curves, node_curve)
    flank = {}
    for e in range(6):
        wq = weights[tri.edge_class[(tet, e)]]
        for q in range(wq):
            c = node_curve[(e, q)]
            flank.setdefault(c, set()).add(par[(e, q)])
            flank.setdefault(c, set()).add(par[(e, q + 1)])
    pairs = []
    for c1, c2 in itertools.combinations(range(len(curves)), 2):
        if flank.get(c1, set()) & flank.get(c2, set()):
            pairs.append((c1, c2))
    return curves, pairs


# ---------------------------------------------------------------------------
# Surface enumeration


def _serialize(weights, matchings, annuli):
    lines = ["edges: " + " ".join(str(w) for w in weights)]
    for cid, pairs in enumerate(matchings):
        body = " ".join("{}-{}".format(a, b) for a, b in pairs)
        lines.append("face {}:{}".format(cid, " " + body if body else ""))
    for tet, per_tet in enumerate(annuli):
        if per_tet:
            body = " ".join("annulus {} {}".format(a, b) for a, b in per_tet)
            lines.append("tet {}: {}".format(tet, body))
        else:
            lines.append("tet {}: disks".format(tet))
    return "\n".join(lines) + "\n"


def oracle_surface_stream(tri_text, max_weight):
    """Yield canonical serializations of every valid crudely almost
    normal encoding of weight <= max_weight, balanced weight vectors
    first.  Lets membership checks stop early; the state space grows
    super-exponentially with skewed weight vectors."""
    if max_weight > ORACLE_WEIGHT_CAP:
        raise OracleError(
            "oracle weight cap is {} (asked for {})".format(ORACLE_WEIGHT_CAP, max_weight)
        )
    tri = _OracleTri(tri_text)

    def weight_vectors(prefix, remaining):
        if len(prefix) == tri.n_edges:
            yield tuple(prefix)
            return
        for w in range(remaining + 1):
            yield from weight_vectors(prefix + [w], remaining - w)

    ordered = sorted(weight_vectors([], max_weight), key=lambda v: (max(v), v))
    for weights in ordered:
        tables = [_SlotTable(tri.face_sides(c), weights) for c in range(len(tri.faces))]
        if any(t.n % 2 for t in tables):
            continue
        per_face = [oracle_matchings([t.w[0], t.w[1], t.w[2]])[1] for t in tables]
        for combo in itertools.product(*per_face):
            options = []
            for tet in range(tri.n):
                _, pairs = _admissible_pairs(tri, tet, weights, combo)
                options.append([()] + [((a, b),) for a, b in pairs])
            for annuli in itertools.product(*options):
                yield _serialize(weights, combo, annuli)


def oracle_surfaces(tri_text, max_weight):
    """The full set of serializations from oracle_surface_stream."""
    return set(oracle_surface_stream(tri_text, max_weight))


def oracle_closure(seed_text, successors):
    """Every text reachable from ``seed_text`` (a canonical serialization)
    by repeated ``successors``, a callable from a text to the texts one
    move away.

    The oracle has no moves of its own yet: the tests pass in the texts
    ``cansurf.moves.neighbors`` returns.  So until it derives successors
    itself, this checks ``build``'s wave, merge and known-skip machinery
    against a plain loop over the same ``neighbors``, and not the moves
    themselves.
    """
    known = {seed_text}
    frontier = [seed_text]
    while frontier:
        for out in successors(frontier.pop()):
            if out not in known:
                known.add(out)
                frontier.append(out)
    return known
