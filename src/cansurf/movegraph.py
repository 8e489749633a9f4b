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
with its text, the sets of the worker's share going along.  Every
process, as it expands a source (``_expand``), adds the inverses of its
results to the sets it holds, so a worker, like a serial build, skips
the edges between its own sources of one wave, and only an edge between
sources of two processes in one wave is applied from both ends.  Either
way the map holds only frontier vertices, and the edge set, the
statistics and every export are those of applying every candidate.

The serial closure passes Surface objects.  With workers > 1 the build
runs n = ``min(workers, os.cpu_count())`` processes, the parent included,
and at least one worker: n - 1 worker processes live for the whole build,
each talking to the parent over its own pair of OS pipes (shares in,
replies out, one ``marshal`` frame each; only a worker's error crosses
as a pickle), so the parent runs no threads and loads no ``pickle``
unless a worker fails.  A vertex is expanded by the process that found
it: the process whose share held the first source, in sorted frontier
order, that reported it (the seed is the parent's).  Each wave, a
process's share is the sources it found, in sorted order, and the
shares keep the sizes of n contiguous cuts of the sorted wave, equal
give or take one and the parent's never the smaller, so a wave of one
source stays in the parent.  A share over its size hands its last
sources, as text, to the short shares in process order
(``stats["pool_handovers"]`` counts them).  The parent sends the
non-empty worker shares, expands its own as a serial build does, on the
Surfaces it holds, and merges every result in frontier order, each as
soon as every source before it has been merged; it adds the inverses of
its results to the ``known`` sets of its later sources as it goes, and
checks the limits before each of its sources.  So the vertex numbering,
the edge set and every export are byte-identical regardless of the
worker count.  A worker keeps the result Surfaces of its last share,
with the geometry their moves traced, by text, and takes each source
it is sent from them, so it parses only the sources handed over to it;
it drops the rest when the next share arrives.  It returns (move,
inverse, result) texts; the parent parses only results that are new
vertices, as it stores them, classified from their annulus lines
without re-tracing and keyed by the worker's text, which is canonical.
So ``graph.vertices`` holds only Surfaces.  Serial or pooled, every
share is expanded by one loop, ``_expand``.  A worker clears its memo
once, when it starts; since it
always gets the same share of the same wave, its memo, and so the work
it does, is the same on every run.  Building the 2-tet S3 closure of a
weight-2 sphere at budget 6 (349 vertices, 3 handovers) from a cleared
memo on two processes traces 470 tet states, 237 in the parent and 233
in the worker, against 417 serial.  The parent starts each worker with
``os.fork`` itself, so the pool imports no process-pool module, and a
worker inherits the parent's tables instead of importing the package
afresh (spawning, which does, doubled the build time of that closure).
A worker leaves by ``os._exit``, running none of the parent's cleanup.
Where the platform has no ``os.fork`` the build starts no workers and
the parent expands every wave whole.  When a limit stops a pooled
build, or an error or KeyboardInterrupt leaves it, the workers are sent
SIGTERM without waiting for their shares; every worker is reaped before
``build`` returns or raises.  A worker that ends without a reply, killed
or exited, ends the build with a SemanticError that names it and how it
ended.  Workers know the time limit's deadline and stop at the first
source they reach after it, so a build that waits on a share waits at
most one source expansion past it.

Generators of the fundamental group: a breadth-first spanning tree is
rooted at the seed, and every non-tree edge (u, v, m) contributes one
loop, tree-path(seed -> u) + m + reversed tree-path(seed -> v).  The
number of loops equals |edges| - |vertices| + 1.

Exports: ``write_json``, ``write_dot`` and ``GeneratorSet.write_text``
pass the JSON, DOT and loops files to a ``write`` callable piece by
piece, one record or line at a time, so no export holds its text or a
document of it; ``export_json``, ``export_dot`` and
``GeneratorSet.to_text`` join those pieces into the text.  The JSON
writer prints each vertex and edge record from a template with its keys
in sorted order and its strings through ``encode_basestring_ascii``,
the encoder ``json.dumps`` uses, and the rest of the document with one
``json.dumps``, so its bytes are those of ``json.dumps(document,
sort_keys=True, indent=1) + "\\n"``.  The DOT writer keeps one short
hash per vertex, to name edge ends by.

Replay memo: the loops share most of their moves, so ``replay`` applies
each distinct move once per process.  ``_REPLAY_MEMO`` maps (triangulation,
catalog content as (sphere id, vertex, sphere key) per entry, source
canonical key, move text) to the result ``Surface`` or to the rejection
text; a miss runs the full ``apply_with_inverse``, result validation
included, and a cached rejection is raised again with the current step
index.  A PINCH or V0+ miss builds on the sphere insertion that
``moves`` keeps per source and sphere (``moves._INSERTIONS``), so the
misses on one source insert each sphere once.  ``apply_with_inverse`` refuses an invalid source, so a parsed
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
surface's geometry when it steps off it, and ``surface._tet_memo`` keeps
the recent geometry.  That memo holds a closure's tet states, the 16,000
of the 2-tet vertex link's closure at budget 10 included (see
``surface._TET_MEMO_ENTRIES``), so loops replayed in any order trace
each state they visit once.
"""

import collections
import functools
import hashlib
import json
import marshal
import os
import time
from json.encoder import encode_basestring_ascii as _json_string

from .errors import PartialGraphError, SemanticError
from .moves import DEFAULT_MOVE_SET, apply_with_inverse, check_move_set, neighbors, parse_move
from .surface import CRUDELY_NORMAL, _parse_canonical, _tet_memo, parse_surface


# Where a build stops (see ``build``): None for no limit.
Limits = collections.namedtuple("Limits", "max_vertices max_seconds", defaults=(None, None))


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

    def sorted_edges(self):
        return sorted(self.edges)

    def adjacency(self):
        adj = {key: [] for key in self.vertices}
        for u, v, muv, mvu in self.edges:
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

    def write_text(self, write):
        """Pass the loops file to ``write``, one line at a time."""
        write("# one generator loop per line; moves apply left to right\n")
        for loop in self.loops:
            write((" ".join(loop) if loop else "#<empty>") + "\n")

    def to_text(self):
        pieces = []
        self.write_text(pieces.append)
        return "".join(pieces)


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


def _send(out, obj):
    """Write ``obj`` to a pipe as one frame: its length in 8 bytes, then
    its ``marshal`` bytes."""
    data = marshal.dumps(obj)
    out.write(len(data).to_bytes(8, "little"))
    out.write(data)
    out.flush()


def _recv(inp):
    """The next object ``_send`` wrote to this pipe; EOFError at its end
    (``marshal`` reads no object from a short frame)."""
    return marshal.loads(inp.read(int.from_bytes(inp.read(8), "little")))


def _worker_main(share_in, reply_out, tri, budget, move_set, catalog, deadline):
    """A pool worker: expands each share the parent sends to ``share_in``,
    sending its reply to ``reply_out``, until the parent closes its end.

    It keeps the results of its last share as Surfaces, by text, and
    takes each source it is sent from them, so it parses only the sources
    another process found and handed over.  A reply is (found, stats) per
    source expanded, found holding (move text, inverse text, result
    text); an error is sent as its pickle, which the parent raises."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends the pool
    _tet_memo.cache_clear()
    kept = {}
    try:
        while True:
            keys, skips = _recv(share_in)
            held, kept = kept, {}
            try:
                reply = []
                for _, stats, found in _expand(
                    tri, budget, move_set, catalog, held, keys, skips, deadline
                ):
                    for _, _, key, result in found:
                        kept.setdefault(key, result)
                    reply.append(([(m, i, key) for m, i, key, _ in found], stats))
            except Exception as exc:  # raised again in the parent
                import pickle

                reply = pickle.dumps(exc)
            _send(reply_out, reply)
    except (EOFError, BrokenPipeError):
        pass


def _expand(tri, budget, move_set, catalog, held, keys, known, deadline=None):
    """Expand the sources named by ``keys`` in order, each as it is
    reached: (key, stats, found) per source, found holding (move text,
    inverse text, result key, result Surface) for the moves not in the
    source's ``known`` entry, which is popped.  Each result's inverse
    goes into the result's ``known`` entry when it has one, so a later
    source skips that edge.  A source is its Surface in ``held`` or else
    parsed from its key, a canonical text.  Stops at the first source
    reached after the deadline (a ``time.monotonic`` value), so a short
    run means the time limit."""
    for key in keys:
        if deadline is not None and time.monotonic() > deadline:
            return
        surf = held.get(key)
        if surf is None:
            surf = _parse_canonical(tri, key)
        stats = {}
        found = [
            (n.move.to_text(), n.inverse.to_text(), n.surface.canonical_key(), n.surface)
            for n in neighbors(surf, budget, move_set, catalog, stats, known=known.pop(key))
        ]
        surf.release_geometry()
        for _, inverse_text, result_key, _ in found:
            if result_key in known:
                known[result_key].add(inverse_text)
        yield key, stats, found


def _shares(frontier, finder, n):
    """Cut a sorted wave into n shares, the parent's first: (shares,
    handovers).  A process's share is the sources it found (``finder``
    maps each to its process, popped; the parent's are absent), in order.
    The shares' sizes are those of n contiguous cuts, equal give or take
    one and the parent's never the smaller; a share over its size hands
    its last sources to the short shares, in process order, and
    ``handovers`` counts them."""
    cuts = [-(-len(frontier) * i // n) for i in range(n + 1)]
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    shares = [[] for _ in range(n)]
    for key in frontier:
        shares[finder.pop(key, 0)].append(key)
    spare = []
    for share, size in zip(shares, sizes):
        spare += share[size:]
        del share[size:]
    handovers = len(spare)
    for share, size in zip(shares, sizes):
        short = size - len(share)
        if short > 0:
            share += spare[:short]
            del spare[:short]
            share.sort()
    return shares, handovers


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
    are checked after every merged vertex and source, and before every
    source the parent expands, and a pool worker checks the time limit
    before every source it expands.  With ``workers`` > 1 the build runs
    ``min(workers, os.cpu_count())`` processes, the parent included, and
    at least one worker where the platform has ``os.fork`` (elsewhere
    none); each process expands the vertices it found, and no worker
    outlives the call.  ``stats`` counts the sources the workers expanded
    (``pool_sources``), the bytes of the texts they returned
    (``pool_text_bytes``) and the sources handed to a process other than
    the one that found them (``pool_handovers``); all are 0 for a serial
    build and stay out of every export.  So do ``applied`` and ``known``,
    the counts ``neighbors`` keeps per ``Move.kind`` of the moves applied
    and of those generated but skipped as known (see the module
    docstring), summed over every process: per kind their sum is the
    same for any worker count, and a serial build applies each edge once
    and each self-loop from both ends.  ``wall_time`` is the build's
    seconds.  A pool worker that ends without a reply is a SemanticError
    naming it and how it ended.
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
        "pinched_spheres": {},
        "pool_sources": 0,
        "pool_text_bytes": 0,
        "pool_handovers": 0,
        "applied": {},
        "known": {},
    }
    graph.vertices[seed.canonical_key()] = seed
    start_time = time.monotonic()
    deadline = None if limits.max_seconds is None else start_time + limits.max_seconds
    frontier = [seed.canonical_key()]
    # Vertex not yet expanded (or sent to a worker) -> inverse texts of
    # the edges found into it; see the module docstring.
    known = {seed.canonical_key(): set()}
    next_frontier = []
    finder = {}  # next-wave vertex found first by a worker -> its process

    def stop(reason):
        graph.partial = True
        raise PartialGraphError(reason, graph)

    def check_limits():
        if limits.max_vertices is not None and len(graph.vertices) > limits.max_vertices:
            stop("vertex limit {} exceeded".format(limits.max_vertices))
        if deadline is not None and time.monotonic() > deadline:
            stop("time limit {}s exceeded".format(limits.max_seconds))

    def merge(src_key, process, stats, found):
        graph.stats["budget_rejected"] += stats["budget_rejected"]
        for name in ("pinched_spheres", "applied", "known"):
            counts = graph.stats[name]
            for key, n in stats[name].items():
                counts[key] = counts.get(key, 0) + n
        for move_text, inverse_text, result_key, result in found:
            stored = graph.vertices.get(result_key)
            if stored is not None:
                result_key = stored.canonical_key()  # the key object the graph holds
            else:
                if process:  # a worker's canonical text, kept as the key
                    result = _parse_canonical(tri, result_key)
                    finder[result_key] = process
                graph.vertices[result_key] = result
                next_frontier.append(result_key)
                known[result_key] = set()
                check_limits()
            graph.add_edge(src_key, result_key, move_text, inverse_text)
            if result_key in known:
                known[result_key].add(inverse_text)
        check_limits()

    def merge_ready(merged):
        """Merge the wave's waiting results in frontier order from index
        ``merged`` on, up to the first source still out; returns the
        index reached."""
        while merged < len(frontier) and frontier[merged] in results:
            merge(frontier[merged], *results.pop(frontier[merged]))
            merged += 1
        return merged

    pool = []  # (pid, share writer, reply reader) per worker
    dead = None  # the worker that ended without a reply, if one did
    try:
        if workers > 1 and hasattr(os, "fork"):
            for _ in range(max(min(workers, os.cpu_count() or 1) - 1, 1)):
                _start_worker(pool, (tri, budget, graph.move_set, catalog, deadline))
        while frontier:
            # Each process expands the sources it found; a worker with no
            # sources is sent none.  Results merge in frontier order, each
            # as soon as every source before it is merged.
            frontier.sort()
            shares, handovers = _shares(frontier, finder, len(pool) + 1)
            graph.stats["pool_handovers"] += handovers
            sent = [(w, share) for w, share in enumerate(shares[1:], 1) if share]
            for w, share in sent:
                try:
                    _send(pool[w - 1][1], (share, {key: known.pop(key) for key in share}))
                except BrokenPipeError:
                    dead = w
                    raise
                for key in share:
                    # Expanded by a worker, so the parent needs no geometry.
                    graph.vertices[key].release_geometry()
            results = {}  # source -> (process, stats, found) until merged
            merged = 0
            for src_key, stats, found in _expand(
                tri, budget, graph.move_set, catalog, graph.vertices, shares[0], known
            ):
                results[src_key] = (0, stats, found)
                merged = merge_ready(merged)
                check_limits()
            for w, share in sent:
                try:
                    reply = _recv(pool[w - 1][2])
                except EOFError:
                    dead = w
                    raise
                if isinstance(reply, bytes):  # the worker's error, pickled
                    import pickle

                    raise pickle.loads(reply)
                for src_key, (found, stats) in zip(share, reply):
                    graph.stats["pool_sources"] += 1
                    # Texts are ASCII, one byte per character.
                    graph.stats["pool_text_bytes"] += sum(
                        len(m) + len(i) + len(r) for m, i, r in found
                    )
                    results[src_key] = (w, stats, [(m, i, r, None) for m, i, r in found])
                if len(reply) < len(share):
                    # The worker reached the deadline before the rest.
                    stop("time limit {}s exceeded".format(limits.max_seconds))
            merge_ready(merged)
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
        ended = [os.waitpid(pid, 0)[1] for pid, _, _ in pool]
        if dead:
            # Killed, say by the kernel's out-of-memory killer, or exited
            # because its error would not pickle.
            code = os.waitstatus_to_exitcode(ended[dead - 1])
            raise SemanticError("pool worker {} (pid {}) ended without a reply: {}".format(
                dead, pool[dead - 1][0],
                "killed by signal {}".format(-code) if code < 0 else "exit status {}".format(code),
            )) from None
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

    def to_seed(key, k):
        """Item k of the parent entries from key up to the seed: each tree
        edge's move there (1) or back (2)."""
        moves = []
        while parent[key] is not None:
            moves.append(parent[key][k])
            key = parent[key][0]
        return moves

    loops = []
    for u, v, muv, mvu in graph.sorted_edges():
        if parent[v] == (u, muv, mvu) or parent[u] == (v, mvu, muv):
            continue  # a tree edge
        loops.append(to_seed(u, 1)[::-1] + [muv] + to_seed(v, 2))
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


# A vertex and an edge record of the JSON export, at ``indent=1`` depth 2
# with their keys sorted, as ``json.dumps`` prints them.
_VERTEX_RECORD = '\n  {\n   "classification": %s,\n   "encoding": %s,\n   "weight": %d\n  }'
_EDGE_RECORD = '\n  {\n   "inverse": %s,\n   "move": %s,\n   "u": %d,\n   "v": %d\n  }'


def write_json(graph, write, provenance=None):
    """Pass the JSON export to ``write`` piece by piece, one piece per
    vertex and per edge record (see the module docstring).

    Everything but the records is one ``json.dumps`` of the document
    without "edges" and "vertices".  In sorted key order "edges" comes
    right after "budget" and "vertices" last, and only a top-level key
    starts a line with one space, so the records go in at the one
    ``,\\n "format"`` and before the closing brace."""
    keys = sorted(graph.vertices)
    index = {k: i for i, k in enumerate(keys)}
    head = json.dumps({
        "format": "cansurf-movegraph/1",
        "partial": graph.partial,
        "budget": graph.budget,
        "move_set": sorted(graph.move_set),
        "triangulation_sha256": hashlib.sha256(graph.tri.to_text().encode()).hexdigest(),
        "provenance": provenance or {},
        "seed": index[graph.seed_key],
        "rank": graph.rank(),
        "statistics": {
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "rank": graph.rank(),
            "budget_rejected": graph.stats.get("budget_rejected", 0),
            "pinched_spheres": dict(graph.stats.get("pinched_spheres", {})),
        },
    }, sort_keys=True, indent=1)
    budget, rest = head[:-2].split(',\n "format"')
    write(budget + ',\n "edges": ')
    _write_records(write, (
        _EDGE_RECORD % (_json_string(mvu), _json_string(muv), index[u], index[v])
        for u, v, muv, mvu in graph.sorted_edges()
    ))
    write(',\n "format"' + rest + ',\n "vertices": ')
    _write_records(write, (
        _VERTEX_RECORD % (_json_string(s.validate()), _json_string(s.to_text()), s.weight())
        for s in map(graph.vertices.get, keys)
    ))
    write("\n}\n")


def _write_records(write, records):
    """Write the records as ``json.dumps`` prints a list that is the value
    of a top-level key."""
    write("[")
    sep = ""
    for record in records:
        write(sep + record)
        sep = ","
    write("\n ]" if sep else "]")


def export_json(graph, provenance=None):
    pieces = []
    write_json(graph, pieces.append, provenance)
    return "".join(pieces)


def write_dot(graph, write):
    """Pass the DOT export to ``write``, one line at a time."""
    names = {k: graph.vertices[k].short_hash() for k in sorted(graph.vertices)}
    write("graph movegraph {\n")
    for k, name in names.items():
        write('  n{} [label="w={}"];\n'.format(name, graph.vertices[k].weight()))
    for u, v, muv, _ in graph.sorted_edges():
        write('  n{} -- n{} [label="{}"];\n'.format(names[u], names[v], muv))
    write("}\n")


def export_dot(graph):
    pieces = []
    write_dot(graph, pieces.append)
    return "".join(pieces)


def import_json(tri, text):
    """Rebuild a MoveGraph from its JSON export (for round trips)."""
    doc = json.loads(text)
    if doc.get("format") != "cansurf-movegraph/1":
        raise SemanticError("not a movegraph export")
    surfaces = [parse_surface(tri, v["encoding"]) for v in doc["vertices"]]
    keys = [s.canonical_key() for s in surfaces]
    graph = MoveGraph(tri, keys[doc["seed"]], doc["budget"], doc["move_set"], doc["partial"])
    graph.vertices = dict(zip(keys, surfaces))
    graph.edges = {(keys[e["u"]], keys[e["v"]], e["move"], e["inverse"]) for e in doc["edges"]}
    graph.stats = dict(doc.get("statistics", {}))
    return graph
