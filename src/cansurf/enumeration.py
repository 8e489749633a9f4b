"""Every valid encoding up to a weight, for the tests and the demos.

Nothing a build, an export or a replay runs needs this module, so
``import cansurf`` does not load it: the package reads its two names,
``noncrossing_matchings`` and ``enumerate_surfaces``, from here on first
use.
"""

import itertools

from .surface import Surface, face_layout


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
        layouts = [face_layout(tri, weights, c) for c in range(n_faces)]
        if any(l.n % 2 for l in layouts):
            continue
        per_face = [list(noncrossing_matchings(l.n)) for l in layouts]
        for combo in itertools.product(*per_face):
            # Valid by construction; checking it traces every tetrahedron,
            # as the annulus choices below need.
            base = Surface(tri, weights, combo)
            base.validate()
            options = []
            for tet in range(tri.tet_count):
                geo = base.tet_geometry(tet)
                choices = [()]
                for c1, c2 in itertools.combinations(range(geo.curve_count), 2):
                    if geo.curves_sharing_region(c1, c2):
                        choices.append(((c1, c2),))
                options.append(choices)
            yield base
            for annuli in itertools.product(*options):
                if all(not per_tet for per_tet in annuli):
                    continue
                # Built from the base, so only its annuli are checked.
                yield Surface(tri, weights, base.matchings, annuli, source=base)
