"""Breadth-first closure of a seed surface under elementary moves, and
free generators of the resulting graph's fundamental group.

The graph is the connected component of the seed: vertices are keyed by
their canonical texts, edges are moves connecting them.  An edge is
stored once, as (u, v, move from u, move from v) with u <= v as texts
(ASCII, so in byte order), and the edge multiset is deduplicated on that
quadruple, so parallel edges produced by genuinely different moves
survive.  Edge endpoints are the key objects ``vertices`` holds, each
the ``canonical_key()`` of its stored surface, so no edge keeps a copy.

Each edge is applied once.  Applying the inverse m' of an edge's move m
to its target v gives back its source u and m, so when v is expanded the
candidate m' would only find the edge again.  ``build`` therefore keeps,
for every vertex found but not yet expanded, the set of inverse texts of
the edges found into it, and ``neighbors(..., known=...)`` generates and
counts those moves but does not apply them.  A serial build pops a
vertex's set as it expands the vertex, so an edge between two sources of
one wave is applied from the first of them only.  A pool build pops the
sets of a whole wave when it dispatches the wave and sends each with its
source text; results within the dispatched wave get no entry, so an
edge between two of its sources is applied from both ends.  Either way
the map holds only frontier vertices, and the edge set, the statistics
and every export are those of applying every candidate.

The serial closure passes Surface objects.  With workers > 1 a frontier
wave fans out over a process pool, and text crosses only that boundary;
only results that are new vertices are parsed back, classified from
their annulus lines without re-tracing and keyed by the text the
worker sent, which is canonical, so the parent formats none of them
again; a worker keeps the text it was sent in the same way.  Each source's
neighbours are merged in frontier order as soon as it is expanded, so
the vertex numbering, the edge set and every export are byte-identical
regardless of the worker count.  The sorted frontier goes to the pool in
batches of ``_POOL_BATCH`` (16) consecutive sources, one batch per task.
A worker clears the process-wide tet-geometry memo (see ``surface``) on
the first source of each batch only: which worker runs which batch varies
from run to run, and a memo carried over between batches would make the
work a batch does depend on that, while within a batch neighbouring
sources share most of their tetrahedron states.  16 was measured on the
2-tet S3 closure of a weight-2 sphere at budget 6 (349 vertices, waves
of up to 118 sources) with 2 workers, building, exporting and replaying
its loops: batches of 8, 16 and 32 sources traced tet geometry 1,877,
1,727 and 1,609 times where the serial run traced 830.  Larger batches
save traces, but 16 still splits every wave of 50 or more sources into
at least four batches for two workers to share.  When a limit stops a
pool build, batches that have not started are cancelled and the run
waits for those already running.  Workers know the time limit's deadline
and skip every source they reach after it, so that wait is at most one
source expansion per worker.

Generators of the fundamental group: a breadth-first spanning tree is
rooted at the seed, and every non-tree edge (u, v, m) contributes one
loop, tree-path(seed -> u) + m + reversed tree-path(seed -> v).  The
number of loops equals |edges| - |vertices| + 1.

Replay memo: the loops share most of their moves, so ``replay`` applies
each distinct move once per process.  ``_REPLAY_MEMO`` maps (triangulation,
catalog content as (sphere id, vertex, sphere key) per entry, source
canonical key, move text) to the result ``Surface`` or to the rejection
text; a miss runs the full ``apply_with_inverse``, result validation
included, and a cached rejection is raised again with the current step
index.  ``apply_with_inverse`` refuses an invalid source, so a parsed
seed is validated in full at the first step and every later source is a
result already found valid; each result is therefore validated over its
footprint (see ``surface``), as in ``build``, with no second full pass.
A malformed move text and any error other than ``SemanticError`` are
never cached.  The memo is least-recently-used and holds at most
``_REPLAY_MEMO_TET_ENTRIES // tet_count`` entries, which keeps it under
64 MB (see that constant).  Memoized surfaces pin no tet geometry:
``replay`` releases each surface's geometry when it steps off it, and
``surface._TET_MEMO`` keeps the recent geometry.  That memo holds a
small closure's tet states (see ``surface._TET_MEMO_ENTRIES``), so loops
replayed in any order trace each state they visit once.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import json
import os
import time

from .errors import PartialGraphError, SemanticError
from .moves import DEFAULT_MOVE_SET, apply_with_inverse, check_move_set, neighbors, parse_move
from .surface import _TET_MEMO, CRUDELY_ALMOST_NORMAL, CRUDELY_NORMAL, parse_surface


class Limits:
    def __init__(self, max_vertices=None, max_seconds=None):
        self.max_vertices = max_vertices
        self.max_seconds = max_seconds


class MoveGraph:
    def __init__(self, tri, seed_key, budget, move_set, partial=False):
        self.tri = tri
        self.seed_key = seed_key
        self.budget = budget
        self.move_set = frozenset(move_set)
        self.vertices = {}          # canonical text -> Surface
        self.edges = set()          # (u_key, v_key, move_u_to_v, move_v_to_u)
        self.partial = partial
        self.stats = {}

    def add_edge(self, u_key, v_key, move_text, inverse_text):
        if u_key == v_key:
            a, b = sorted((move_text, inverse_text))
            self.edges.add((u_key, u_key, a, b))
        elif u_key <= v_key:
            self.edges.add((u_key, v_key, move_text, inverse_text))
        else:
            self.edges.add((v_key, u_key, inverse_text, move_text))

    def rank(self):
        return len(self.edges) - len(self.vertices) + 1

    def sorted_vertices(self):
        return sorted(self.vertices)

    def sorted_edges(self):
        return sorted(self.edges)

    def adjacency(self):
        adj = {key: [] for key in self.vertices}
        for u, v, muv, mvu in self.sorted_edges():
            adj[u].append((v, muv, mvu))
            if u != v:
                adj[v].append((u, mvu, muv))
        for key in adj:
            adj[key].sort()
        return adj


class GeneratorSet:
    """Free generators of the graph's fundamental group, as move loops."""

    def __init__(self, loops, rank):
        self.loops = loops
        self.rank = rank

    def __len__(self):
        return len(self.loops)

    def to_text(self):
        lines = ["# one generator loop per line; moves apply left to right"]
        for loop in self.loops:
            lines.append(" ".join(loop) if loop else "#<empty>")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parallel workers

_WORKER = {}

# Sources per pool task; see the module docstring.
_POOL_BATCH = 16


def _worker_init(tri, budget, move_set, catalog, deadline):
    _WORKER["tri"] = tri
    _WORKER["budget"] = budget
    _WORKER["move_set"] = move_set
    _WORKER["catalog"] = catalog
    _WORKER["deadline"] = deadline


def _worker_neighbors(surf_text, first_of_batch, known=()):
    """(found, stats) for one source of a batch, skipping the moves in
    ``known`` (see ``neighbors``); (None, None) once the build's deadline
    (a ``time.monotonic`` value) has passed."""
    deadline = _WORKER["deadline"]
    if deadline is not None and time.monotonic() > deadline:
        return None, None
    if first_of_batch:
        _TET_MEMO.clear()
    surf = _parse_canonical(_WORKER["tri"], surf_text)
    stats = {}
    found = neighbors(
        surf, _WORKER["budget"], _WORKER["move_set"], _WORKER["catalog"], stats, known=known
    )
    return [(n.move.to_text(), n.inverse.to_text(), n.surface.to_text()) for n in found], stats


def _parse_canonical(tri, text):
    """The surface of a canonical text that another process printed with
    ``to_text``, keeping that text as its own, so it is not formatted
    again."""
    surf = parse_surface(tri, text)
    surf._text = text
    return surf


def _expand_serial(graph, keys, catalog, known):
    """Expand vertices in process, each as it is reached: (key, stats,
    found) per source, found holding (move text, inverse text, result
    key, result Surface) for the moves not in the source's ``known``
    entry, which is popped."""
    for key in keys:
        surf = graph.vertices[key]
        stats = {}
        found = neighbors(surf, graph.budget, graph.move_set, catalog, stats, known=known.pop(key))
        surf.release_geometry()
        yield key, stats, [
            (n.move.to_text(), n.inverse.to_text(), n.surface.canonical_key(), n.surface)
            for n in found
        ]


def _expand_pool(pool, graph, keys, known):
    """As _expand_serial, over the pool in batches of _POOL_BATCH
    consecutive sources; the whole wave is dispatched, and its ``known``
    entries popped, before the first result.  Results stay text until
    merged."""
    texts = [graph.vertices[k].to_text() for k in keys]
    firsts = [i % _POOL_BATCH == 0 for i in range(len(texts))]
    skips = [known.pop(k) for k in keys]
    results = pool.map(_worker_neighbors, texts, firsts, skips, chunksize=_POOL_BATCH)
    for key, (found, stats) in zip(keys, results):
        if found is None:
            yield key, stats, None
        else:
            yield key, stats, [(m, i, r, r) for m, i, r in found]


def build(
    seed,
    budget,
    move_set=DEFAULT_MOVE_SET,
    catalog=None,
    limits=None,
    workers=1,
):
    """Breadth-first closure of the seed under the move set.

    The move kinds must be known, and the seed valid, crudely normal and
    within the budget.  Raises PartialGraphError (carrying the partial
    graph) when a limit triggers, instead of silently truncating.  Limits
    are checked after every new vertex and every expanded source, and a
    pool worker checks the time limit before every source it expands.
    The pool starts at most ``os.cpu_count()`` processes.
    """
    move_set = check_move_set(move_set)
    cls = seed.validate()
    if cls != CRUDELY_NORMAL:
        raise SemanticError("seed must be crudely normal, got: {}".format(cls))
    if seed.weight() > budget:
        raise SemanticError(
            "seed weight {} exceeds the budget {}".format(seed.weight(), budget)
        )
    limits = limits or Limits()
    tri = seed.tri
    graph = MoveGraph(tri, seed.canonical_key(), budget, move_set)
    graph.stats = {"budget_rejected": 0, "pinched_spheres": collections.Counter()}
    graph.vertices[seed.canonical_key()] = seed
    start_time = time.monotonic()
    deadline = None if limits.max_seconds is None else start_time + limits.max_seconds
    frontier = [seed.canonical_key()]
    # Vertex not yet expanded (or dispatched) -> inverse texts of the
    # edges found into it; see the module docstring.
    known = {seed.canonical_key(): set()}

    def stop(reason):
        graph.partial = True
        raise PartialGraphError(reason, graph)

    def check_limits():
        if limits.max_vertices is not None and len(graph.vertices) > limits.max_vertices:
            stop("vertex limit {} exceeded".format(limits.max_vertices))
        if deadline is not None and time.monotonic() > deadline:
            stop("time limit {}s exceeded".format(limits.max_seconds))

    pool = None
    if workers > 1:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, os.cpu_count() or 1),
            initializer=_worker_init,
            initargs=(tri, budget, graph.move_set, catalog, deadline),
        )
    try:
        while frontier:
            frontier.sort()
            if pool is None:
                wave = _expand_serial(graph, frontier, catalog, known)
            else:
                wave = _expand_pool(pool, graph, frontier, known)
            next_frontier = []
            for src_key, stats, found in wave:
                if found is None:
                    # A worker reached the deadline before this source.
                    stop("time limit {}s exceeded".format(limits.max_seconds))
                graph.stats["budget_rejected"] += stats["budget_rejected"]
                graph.stats["pinched_spheres"].update(stats["pinched_spheres"])
                for move_text, inverse_text, result_key, result in found:
                    stored = graph.vertices.get(result_key)
                    if stored is not None:
                        # The key object the graph holds, not a copy.
                        result_key = stored.canonical_key()
                    else:
                        if pool is not None:
                            # neighbors returns only valid results, so the
                            # annulus lines give the classification; the
                            # worker's text is the key.
                            result = _parse_canonical(tri, result_key)
                            result._validation = (
                                CRUDELY_ALMOST_NORMAL if any(result.annuli) else CRUDELY_NORMAL
                            )
                        graph.vertices[result_key] = result
                        next_frontier.append(result_key)
                        known[result_key] = set()
                        check_limits()
                    graph.add_edge(src_key, result_key, move_text, inverse_text)
                    if result_key in known:
                        known[result_key].add(inverse_text)
                check_limits()
            frontier = next_frontier
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    graph.stats["vertices"] = len(graph.vertices)
    graph.stats["edges"] = len(graph.edges)
    graph.stats["rank"] = graph.rank()
    graph.stats["wall_time"] = time.monotonic() - start_time
    return graph


def generators(graph):
    """Spanning-tree generators of the graph's fundamental group."""
    if graph.partial:
        raise SemanticError("cannot extract generators from a partial graph")
    adj = graph.adjacency()
    parent = {graph.seed_key: None}   # key -> (parent key, move there, move back)
    order = [graph.seed_key]
    for u in order:  # grows as the search reaches new vertices
        for v, muv, mvu in adj[u]:
            if v not in parent:
                parent[v] = (u, muv, mvu)
                order.append(v)
    if len(parent) != len(graph.vertices):
        raise SemanticError("graph is not connected")

    def to_seed(key):
        """The tree edges from key up to the seed, as parent entries."""
        steps = []
        while parent[key] is not None:
            steps.append(parent[key])
            key = parent[key][0]
        return steps

    loops = []
    for u, v, muv, mvu in graph.sorted_edges():
        if parent[v] == (u, muv, mvu) or parent[u] == (v, mvu, muv):
            continue  # a tree edge
        to_u = [m for _, m, _ in reversed(to_seed(u))]
        loops.append(to_u + [muv] + [back for _, _, back in to_seed(v)])
    rank = graph.rank()
    if len(loops) != rank:
        raise SemanticError(
            "generator count {} does not match rank {}".format(len(loops), rank)
        )
    return GeneratorSet(loops, rank)


# Replay verdicts by (triangulation, catalog content, source key, move
# text), least recently used first; see replay.
_REPLAY_MEMO = collections.OrderedDict()

# _REPLAY_MEMO holds at most this many entries divided by the tet count:
# a 64 MB ceiling over 4 KB per tetrahedron per entry.  Entries measured
# with tracemalloc cost about 2 KB on 2 tets and 18 KB on 48 (weights up
# to 12), both under that charge.
_REPLAY_MEMO_TET_ENTRIES = (64 << 20) // (4 << 10)


def replay(seed, move_texts, catalog=None):
    """Apply a sequence of serialized moves from the seed; returns the
    final surface, which may be shared with other calls.  Raises
    ParseError for a malformed move and SemanticError naming the failing
    step and its move for one that does not apply."""
    tri = seed.tri
    book = None if catalog is None else tuple(
        (e.sphere_id, e.vertex, e.surface.canonical_key()) for e in catalog
    )
    surf = seed
    for step, text in enumerate(move_texts):
        key = (tri, book, surf.canonical_key(), text)
        verdict = _REPLAY_MEMO.get(key)
        if verdict is None:
            move = parse_move(text)
            try:
                verdict, _ = apply_with_inverse(surf, move, catalog)
            except SemanticError as exc:
                verdict = str(exc)
            _REPLAY_MEMO[key] = verdict
            while len(_REPLAY_MEMO) > _REPLAY_MEMO_TET_ENTRIES // tri.tet_count:
                _REPLAY_MEMO.popitem(last=False)
        else:
            _REPLAY_MEMO.move_to_end(key)
        if isinstance(verdict, str):
            raise SemanticError("step {} ({}): {}".format(step, text, verdict))
        if surf is not seed:
            surf.release_geometry()
        surf = verdict
    return surf


# ---------------------------------------------------------------------------
# Export


def export_json(graph, provenance=None):
    keys = graph.sorted_vertices()
    index = {k: i for i, k in enumerate(keys)}
    doc = {
        "format": "cansurf-movegraph/1",
        "partial": graph.partial,
        "budget": graph.budget,
        "move_set": sorted(graph.move_set),
        "triangulation_sha256": hashlib.sha256(graph.tri.to_text().encode()).hexdigest(),
        "provenance": provenance or {},
        "seed": index[graph.seed_key],
        "vertices": [
            {
                "encoding": graph.vertices[k].to_text(),
                "weight": graph.vertices[k].weight(),
                "classification": graph.vertices[k].validate(),
            }
            for k in keys
        ],
        "edges": [
            {"u": index[u], "v": index[v], "move": muv, "inverse": mvu}
            for u, v, muv, mvu in graph.sorted_edges()
        ],
        "rank": graph.rank(),
        "statistics": {
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "rank": graph.rank(),
            "budget_rejected": graph.stats.get("budget_rejected", 0),
            "pinched_spheres": dict(sorted(graph.stats.get("pinched_spheres", {}).items())),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def export_dot(graph):
    names = {k: graph.vertices[k].short_hash() for k in graph.sorted_vertices()}
    lines = ["graph movegraph {"]
    for k, name in names.items():
        lines.append('  n{} [label="w={}"];'.format(name, graph.vertices[k].weight()))
    for u, v, muv, _ in graph.sorted_edges():
        lines.append('  n{} -- n{} [label="{}"];'.format(names[u], names[v], muv))
    lines.append("}")
    return "\n".join(lines) + "\n"


def import_json(tri, text):
    """Rebuild a MoveGraph from its JSON export (for round trips)."""
    doc = json.loads(text)
    if doc.get("format") != "cansurf-movegraph/1":
        raise SemanticError("not a movegraph export")
    surfaces = [parse_surface(tri, v["encoding"]) for v in doc["vertices"]]
    keys = [s.canonical_key() for s in surfaces]
    graph = MoveGraph(
        tri,
        keys[doc["seed"]],
        doc["budget"],
        frozenset(doc["move_set"]),
        partial=doc["partial"],
    )
    for s, k in zip(surfaces, keys):
        graph.vertices[k] = s
    for e in doc["edges"]:
        graph.edges.add((keys[e["u"]], keys[e["v"]], e["move"], e["inverse"]))
    graph.stats = dict(doc.get("statistics", {}))
    return graph
