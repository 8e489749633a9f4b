"""An independent check of generator loops against a move-graph export.

Reads the JSON export of ``cansurf graph`` or ``cansurf generators``
(``--out-json``) and the loops file (``--out-loops``), and checks, from
those two documents alone, that the loops are a spanning-tree basis of
the graph's cycles:

* every loop is a closed walk on exported edges that starts at the seed,
  where each (vertex, move text) names exactly one edge: an edge (u, v,
  move, inverse) is crossed from u by its move and from v by its inverse;
* there are exactly E - V + 1 loops;
* each loop crosses exactly one edge outside the breadth-first tree that
  ``cansurf.movegraph`` documents, rooted at the seed with each vertex's
  neighbours taken in (encoding, move, inverse) order, and no two loops
  cross the same one.

It imports nothing from ``cansurf``, so it does not check the code that
wrote the documents with that code.  Run it as
``python tests/loopcheck.py EXPORT.json LOOPS.txt``.
"""

import collections
import json
import sys


class LoopError(ValueError):
    """The loops are not a spanning-tree basis of the exported graph."""


def check_loops(export_text, loops_text):
    """Check the loops file against the JSON export; returns the number of
    loops, or raises LoopError naming the first failure."""
    doc = json.loads(export_text)
    vertices, edges, seed = doc["vertices"], doc["edges"], doc["seed"]
    step = {}
    adjacency = collections.defaultdict(list)
    for k, edge in enumerate(edges):
        u, v, move, inverse = edge["u"], edge["v"], edge["move"], edge["inverse"]
        for x, text, y in ((u, move, v), (v, inverse, u)):
            if step.setdefault((x, text), (k, y)) != (k, y):
                raise LoopError("vertex {} has two edges named {}".format(x, text))
        adjacency[u].append((vertices[v]["encoding"], move, inverse, v, k))
        if u != v:
            adjacency[v].append((vertices[u]["encoding"], inverse, move, u, k))
    tree = set()
    reached = {seed}
    order = [seed]
    for u in order:
        for _, _, _, v, k in sorted(adjacency[u]):
            if v not in reached:
                reached.add(v)
                tree.add(k)
                order.append(v)
    if len(reached) != len(vertices):
        raise LoopError("the graph is not connected")
    loops = [line.split() for line in loops_text.splitlines() if not line.startswith("#")]
    rank = len(edges) - len(vertices) + 1
    if len(loops) != rank:
        raise LoopError("{} loops for E - V + 1 = {}".format(len(loops), rank))
    owner = {}
    for i, loop in enumerate(loops):
        x = seed
        crossed = []
        for j, text in enumerate(loop):
            if (x, text) not in step:
                raise LoopError("loop {} step {}: no edge {} at vertex {}".format(i, j, text, x))
            k, x = step[x, text]
            if k not in tree:
                crossed.append(k)
        if x != seed:
            raise LoopError("loop {} ends at vertex {}, not at the seed".format(i, x))
        if len(crossed) != 1:
            raise LoopError("loop {} crosses {} non-tree edges".format(i, len(crossed)))
        if owner.setdefault(crossed[0], i) != i:
            raise LoopError("loops {} and {} cross the same non-tree edge {}".format(
                owner[crossed[0]], i, crossed[0]))
    return len(loops)


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as export, open(sys.argv[2], encoding="utf-8") as loops:
        print("{} loops ok".format(check_loops(export.read(), loops.read())))
