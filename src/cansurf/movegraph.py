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
counts those moves but does not apply them.  A vertex's set is popped as
the build expands the vertex, or when it sends the vertex to a worker
with its text; results found after that add nothing to it, so an edge
between a worker's source and an earlier source of the same wave is
applied from both ends.  Either way the map holds only frontier
vertices, and the edge set, the statistics and every export are those
of applying every candidate.

The serial closure passes Surface objects.  With workers > 1 the build
runs n = ``min(workers, os.cpu_count())`` processes, the parent included,
and at least one worker: n - 1 worker processes live for the whole build,
each talking to the parent over its own pair of OS pipes (shares in,
replies out, one pickle each), so the parent runs no threads.  Each
sorted wave is cut into n contiguous shares of equal size, give or take
one, the parent's never the smaller, so a wave of one source (the
seed's) stays in the parent.  The parent sends the non-empty shares 2..n
to the workers, expands share 1 itself as a serial build
does, on Surface objects and with its own warm tet-geometry memo (see
``surface``), and then merges the workers' results share by share, so
every source's neighbours are merged in frontier order and the vertex
numbering, the edge set and every export are byte-identical regardless
of the worker count.  Text crosses only the pipes: a worker parses each
source from the text it was sent, keeping that text as the surface's
own, and returns (move, inverse, result) texts; only results that are
new vertices are parsed back, classified from their annulus lines
without re-tracing and keyed by the worker's text, which is canonical,
so the parent formats none of them again.  A worker clears its memo once,
when it starts; since it always gets the same share of the same wave,
its memo, and so the work it does, is the same on every run.  Building
the 2-tet S3 closure of a weight-2 sphere at budget 6 (349 vertices)
from a cleared memo on two processes traces 577 tet states, parent and
worker together, against 417 serial.  The parent starts each worker with
``os.fork`` itself, so the pool imports no process-pool module (only
``pickle``), and a worker inherits the parent's tables instead of
importing the package afresh (spawning, which does, doubled the build
time of that closure).  A worker leaves by ``os._exit``, running none of
the parent's cleanup.  Where the platform has no ``os.fork`` the build
starts no workers and the parent expands every wave whole.  When a limit
stops a pooled build, or an error or KeyboardInterrupt leaves it, the
workers are sent SIGTERM without waiting for their shares; every worker
is reaped before ``build`` returns or raises.  Workers know the time
limit's deadline and stop at the first source they reach after it, so a
build that waits on a share waits at most one source expansion past it.

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
never cached.  A miss takes its move from ``_replay_move``, which parses
each distinct text once per process and keeps the last 4,096 parsed
moves (the 817 misses of replaying the ``s3-sphere-b6`` loops use 170
texts); a ParseError is raised again on every call.  The memo is
least-recently-used and holds at most ``_REPLAY_MEMO_TET_ENTRIES //
tet_count`` entries, which keeps it under 64 MB (see that constant).
Memoized surfaces pin no tet geometry: ``replay`` releases each
surface's geometry when it steps off it, and ``surface._TET_MEMO`` keeps
the recent geometry.  That memo holds a small closure's tet states (see
``surface._TET_MEMO_ENTRIES``), so loops replayed in any order trace
each state they visit once.
"""

from __future__ import annotations

import collections
import functools
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


def _start_worker(pool, args):
    """Fork a pool worker that runs ``_worker_main(share reader, reply
    writer, *args)`` over two new pipes, and add (pid, share writer, reply
    reader) to ``pool``.  The worker closes the parent's ends of its own
    pipes and of the workers before it, so each sees end of file when the
    parent closes its end, and leaves by ``os._exit``: it runs none of the
    parent's cleanup and flushes none of its buffers."""
    share_in, share_out = os.pipe()
    reply_in, reply_out = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (share_in, share_out, reply_in, reply_out):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in [share_out, reply_in] + [f.fileno() for w in pool for f in w[1:]]:
                os.close(fd)
            _worker_main(open(share_in, "rb"), open(reply_out, "wb"), *args)
            code = 0
        except BaseException:  # reported here: the worker never unwinds into the parent's frames
            import traceback

            os.write(2, traceback.format_exc().encode())  # past sys.stderr and its buffer
        finally:
            os._exit(code)
    os.close(share_in)
    os.close(reply_out)
    pool.append((pid, open(share_out, "wb"), open(reply_in, "rb")))


def _worker_main(share_in, reply_out, tri, budget, move_set, catalog, deadline):
    """A pool worker: expands each share the parent pickles to
    ``share_in``, pickling its reply to ``reply_out``, until the parent
    closes its end."""
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends the pool
    _TET_MEMO.clear()
    try:
        while True:
            texts, skips = pickle.load(share_in)
            try:
                reply = _expand_share(tri, budget, move_set, catalog, deadline, texts, skips)
            except Exception as exc:  # raised again in the parent
                reply = exc
            pickle.dump(reply, reply_out)
            reply_out.flush()
    except (EOFError, BrokenPipeError):
        pass


def _expand_share(tri, budget, move_set, catalog, deadline, texts, skips):
    """(found, stats) per source text of a share, in order, skipping the
    moves in the source's ``skips`` entry (see ``neighbors``); found holds
    (move text, inverse text, result text).  Stops at the first source
    reached after the deadline (a ``time.monotonic`` value), so a short
    list means the time limit."""
    out = []
    for text, known in zip(texts, skips):
        if deadline is not None and time.monotonic() > deadline:
            break
        stats = {}
        found = neighbors(
            _parse_canonical(tri, text), budget, move_set, catalog, stats, known=known
        )
        out.append((
            [(n.move.to_text(), n.inverse.to_text(), n.surface.to_text()) for n in found],
            stats,
        ))
    return out


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
    With ``workers`` > 1 the build runs ``min(workers, os.cpu_count())``
    processes, the parent included, and at least one worker where the
    platform has ``os.fork`` (elsewhere none); no worker outlives the
    call.  ``stats`` counts the sources the workers expanded
    (``pool_sources``) and the bytes of the texts they returned
    (``pool_text_bytes``); both are 0 for a serial build.
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
    graph.stats = {
        "budget_rejected": 0,
        "pinched_spheres": collections.Counter(),
        "pool_sources": 0,
        "pool_text_bytes": 0,
    }
    graph.vertices[seed.canonical_key()] = seed
    start_time = time.monotonic()
    deadline = None if limits.max_seconds is None else start_time + limits.max_seconds
    frontier = [seed.canonical_key()]
    # Vertex not yet expanded (or sent to a worker) -> inverse texts of
    # the edges found into it; see the module docstring.
    known = {seed.canonical_key(): set()}
    next_frontier = []

    def stop(reason):
        graph.partial = True
        raise PartialGraphError(reason, graph)

    def check_limits():
        if limits.max_vertices is not None and len(graph.vertices) > limits.max_vertices:
            stop("vertex limit {} exceeded".format(limits.max_vertices))
        if deadline is not None and time.monotonic() > deadline:
            stop("time limit {}s exceeded".format(limits.max_seconds))

    def merge(src_key, stats, found):
        graph.stats["budget_rejected"] += stats["budget_rejected"]
        graph.stats["pinched_spheres"].update(stats["pinched_spheres"])
        for move_text, inverse_text, result_key, result in found:
            stored = graph.vertices.get(result_key)
            if stored is not None:
                # The key object the graph holds, not a copy.
                result_key = stored.canonical_key()
            else:
                if result is None:
                    # A worker's text: neighbors returns only valid
                    # results, so the annulus lines give the
                    # classification, and the text is the key.
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

    pool = []  # (pid, share writer, reply reader) per worker
    try:
        if workers > 1 and hasattr(os, "fork"):
            import pickle

            for _ in range(max(min(workers, os.cpu_count() or 1) - 1, 1)):
                _start_worker(pool, (tri, budget, graph.move_set, catalog, deadline))
        while frontier:
            # Contiguous shares of the sorted wave: the parent expands the
            # first, never the smaller, and the workers the others, and
            # they merge in order.  A worker with no sources is sent none.
            frontier.sort()
            cuts = [-(-len(frontier) * i // (len(pool) + 1)) for i in range(len(pool) + 2)]
            shares = [frontier[a:b] for a, b in zip(cuts, cuts[1:])]
            sent = [(worker, share) for worker, share in zip(pool, shares[1:]) if share]
            for (_, share_out, _), share in sent:
                pickle.dump((share, [known.pop(key) for key in share]), share_out)
                share_out.flush()
                for key in share:
                    # Expanded by a worker, so the parent needs no geometry.
                    graph.vertices[key].release_geometry()
            for src_key, stats, found in _expand_serial(graph, shares[0], catalog, known):
                merge(src_key, stats, found)
            for (_, _, reply_in), share in sent:
                results = pickle.load(reply_in)
                if isinstance(results, Exception):
                    raise results
                for src_key, (found, stats) in zip(share, results):
                    graph.stats["pool_sources"] += 1
                    # Texts are ASCII, one byte per character.
                    graph.stats["pool_text_bytes"] += sum(
                        len(m) + len(i) + len(r) for m, i, r in found
                    )
                    merge(src_key, stats, [(m, i, r, None) for m, i, r in found])
                if len(results) < len(share):
                    # The worker reached the deadline before the rest.
                    stop("time limit {}s exceeded".format(limits.max_seconds))
            frontier, next_frontier = next_frontier, []
    except BaseException:
        import signal

        for pid, _, _ in pool:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for _, share_out, reply_in in pool:
            reply_in.close()
            try:
                share_out.close()
            except BrokenPipeError:  # unsent bytes for a worker that died
                pass
        for pid, _, _ in pool:
            os.waitpid(pid, 0)
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


@functools.lru_cache(maxsize=1 << 12)
def _replay_move(text):
    """``parse_move`` of a replayed text, kept for the last 4,096 distinct
    texts; a ParseError is raised each time, never cached."""
    return parse_move(text)


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
            move = _replay_move(text)
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
