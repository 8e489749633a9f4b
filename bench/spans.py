"""Span tracer for the benchmark.

The tracer wraps cansurf's public entry points from outside the library:
nothing under ``src/`` knows it exists.  A span has an id, its parent's
id (-1 for a root), a name, a start and an end (``time.monotonic_ns``,
which is comparable across processes on one machine) and a status.
Spans stay in memory, in flat arrays, until the process ends; then they
are written once as JSON and summarised per name into call counts, total
time and self time (a span's duration minus the time its child spans
cover).

``install`` patches, for the life of the process:

* ``movegraph.neighbors`` (candidate generation, application and sort),
* ``moves.apply_with_inverse`` as ``neighbors`` and ``replay`` see it,
  one span name per move kind,
* ``surface.TetGeometry`` (replaced by a subclass, so ``isinstance``
  still holds), ``Surface.validate``, ``Surface.to_text`` and
  ``Surface.__init__``,
* ``parse_surface`` as ``movegraph`` imports it,
* ``concurrent.futures.ProcessPoolExecutor``, so that a pool started by
  ``movegraph.build`` counts its tasks and the bytes of the move and
  surface texts its ``neighbors`` calls return, and its workers write
  their own spans when they exit.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import os
import time
from array import array

OK, NOT_APPLICABLE, ERROR = 0, 1, 2

# Span-name suffixes for move kinds; metric names avoid ', + and -.
KIND_NAMES = ("V0_emit", "V0_absorb", "E1_insert", "E1_delete", "F2", "F2p", "PINCH", "UNPINCH")


def kind_name(move):
    if move.kind == "V0":
        return "V0_emit" if move.direction > 0 else "V0_absorb"
    if move.kind == "E1":
        return "E1_insert" if move.direction > 0 else "E1_delete"
    return {"F2'": "F2p"}.get(move.kind, move.kind)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.status = array("b")
        self.counters = {}
        self._stack = []

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.monotonic_ns())
        self.end.append(0)
        self.status.append(OK)
        self._stack.append(sid)
        return sid

    def close(self, sid, status=OK):
        self.end[sid] = time.monotonic_ns()
        self.status[sid] = status
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        status = ERROR
        try:
            yield sid
            status = OK
        finally:
            self.close(sid, status)

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def to_json(self):
        return {
            "pid": os.getpid(),
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "status": list(self.status),
            "counters": self.counters,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def summarize(doc):
    """Per span name: [calls, total ns, self ns, calls that raised
    NotApplicableError]."""
    names, name, parent = doc["names"], doc["name"], doc["parent"]
    dur = [e - s for s, e in zip(doc["start_ns"], doc["end_ns"])]
    covered = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    out = {}
    for i, nid in enumerate(name):
        row = out.setdefault(names[nid], [0, 0, 0, 0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - covered[i]
        row[3] += doc["status"][i] == NOT_APPLICABLE
    return out


def merge_summaries(summaries):
    out = {}
    for summary in summaries:
        for key, row in summary.items():
            acc = out.setdefault(key, [0, 0, 0, 0])
            for j, v in enumerate(row):
                acc[j] += v
    return out


# ---------------------------------------------------------------------------
# Wrappers


def _wrap(tracer, name, fn, not_applicable=()):
    """``fn``, recording one span per call.  ``name`` may be a function of
    the call's arguments; exceptions of the ``not_applicable`` types mark
    the span NOT_APPLICABLE, any other exception ERROR."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name(*args) if callable(name) else name)
        status = ERROR
        try:
            result = fn(*args, **kwargs)
            status = OK
            return result
        except not_applicable:
            status = NOT_APPLICABLE
            raise
        finally:
            tracer.close(sid, status)

    return wrapper


def install(tracer, child_dir):
    """Patch cansurf's entry points to record spans into ``tracer``.

    ``child_dir`` receives one span file per pool worker process.
    """
    from cansurf import movegraph, moves, surface
    from cansurf.errors import NotApplicableError

    apply_with_inverse = _wrap(
        tracer,
        lambda surf, move, *rest: "moves.apply." + kind_name(move),
        moves.apply_with_inverse,
        NotApplicableError,
    )
    traced_neighbors = _wrap(tracer, "moves.neighbors", movegraph.neighbors)

    def neighbors(*args, **kwargs):
        found = traced_neighbors(*args, **kwargs)
        for n in found:
            tracer.count("moves.accepted." + kind_name(n.move))
        return found

    class TetGeometry(surface.TetGeometry):
        __init__ = _wrap(tracer, "surface.tet_geometry", surface.TetGeometry.__init__)

    base_pool = concurrent.futures.ProcessPoolExecutor

    class ProcessPoolExecutor(base_pool):
        def __init__(self, max_workers=None, initializer=None, initargs=(), **kwargs):
            super().__init__(
                max_workers,
                initializer=_child_init,
                initargs=(child_dir, initializer, initargs),
                **kwargs,
            )

        def map(self, fn, *iterables, **kwargs):
            texts = list(iterables[0])
            with tracer.span("movegraph.pool.map"):
                results = list(super().map(fn, texts, *iterables[1:], **kwargs))
            tracer.count("movegraph.pool.tasks", len(texts))
            returned = sum(
                len(m.encode()) + len(i.encode()) + len(r.encode())
                for found, _stats in results
                for m, i, r in found
            )
            tracer.count("movegraph.pool.payload_bytes", returned)
            return iter(results)

    moves.apply_with_inverse = apply_with_inverse
    movegraph.apply_with_inverse = apply_with_inverse
    movegraph.neighbors = neighbors
    movegraph.parse_surface = _wrap(tracer, "surface.parse", movegraph.parse_surface)
    surface.TetGeometry = TetGeometry
    Surface = surface.Surface
    Surface.validate = _wrap(tracer, "surface.validate", Surface.validate)
    Surface.to_text = _wrap(tracer, "surface.to_text", Surface.to_text)
    Surface.__init__ = _wrap(tracer, "surface.init", Surface.__init__)
    concurrent.futures.ProcessPoolExecutor = ProcessPoolExecutor


# The tracer of this process; pool workers inherit it and start afresh.
TRACER = Tracer()


def _child_init(child_dir, initializer, initargs):
    from multiprocessing import util

    TRACER.reset()
    os.makedirs(child_dir, exist_ok=True)
    util.Finalize(
        None,
        TRACER.write,
        args=(os.path.join(child_dir, "worker-{}.json".format(os.getpid())),),
        exitpriority=0,
    )
    if initializer is not None:
        initializer(*initargs)
