"""Command-line front end.

Subcommands: ``validate``, ``bounds``, ``graph``, ``generators`` (graph
plus loop emission), ``replay``, and a hidden ``oracle`` used for
debugging the brute-force reference implementations.

Exit codes: 0 success, 1 partial result (a graph limit triggered),
2 parse error (undecodable input included), 3 semantic error (an input
that cannot be read included).  All outputs are canonically ordered,
so digests of the emitted files are meaningful; a run manifest records
input hashes, parameters and result digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from . import __version__
from .bounds import BoundsConfig, parse_config
from .errors import CansurfError, ParseError, PartialGraphError, SemanticError
from .movegraph import Limits, build, export_dot, export_json, generators, replay
from .moves import DEFAULT_MOVE_SET, ALL_KINDS, default_catalog, extend_catalog
from .oracle import oracle_closure, oracle_matchings, oracle_surfaces
from .surface import parse_surface
from .triangulation import barycentric_subdivide, parse_triangulation

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _check_numbers(args):
    """Reject counts and limits no run can honour, before anything is
    read or written."""
    if getattr(args, "workers", 1) < 1:
        raise ParseError("--workers must be at least 1, got {}".format(args.workers))
    if getattr(args, "subdivide", 0) < 0:
        raise ParseError("--subdivide must be at least 0, got {}".format(args.subdivide))
    max_vertices = getattr(args, "max_vertices", None)
    if max_vertices is not None and max_vertices < 0:
        raise ParseError("--max-vertices must be at least 0, got {}".format(max_vertices))
    max_seconds = getattr(args, "max_seconds", None)
    if max_seconds is not None and not (math.isfinite(max_seconds) and max_seconds >= 0):
        raise ParseError(
            "--max-seconds must be a finite number at least 0, got {}".format(max_seconds)
        )


def _load_triangulation(args):
    tri = parse_triangulation(_read(args.triangulation))
    for _ in range(args.subdivide):
        tri = barycentric_subdivide(tri)
    return tri


def _parse_move_set(text):
    if text is None:
        return DEFAULT_MOVE_SET
    names = [t for t in text.split(",") if t]
    for name in names:
        if name not in ALL_KINDS:
            raise SemanticError(
                "unknown move kind '{}' (choose from {})".format(name, ",".join(ALL_KINDS))
            )
    return frozenset(names)


def _load_catalog(tri, args):
    catalog = default_catalog(tri)
    extra = getattr(args, "catalog", None) or []
    if extra:
        catalog = extend_catalog(catalog, tri, [_read(p) for p in extra])
    return catalog


def _bounds_from_args(args):
    if args.config:
        return parse_config(_read(args.config))
    needed = (args.genus, args.sweepout_max_area, args.weight_scale,
              args.injectivity_radius, args.compression_floor)
    if any(v is None for v in needed):
        raise SemanticError(
            "either --config or all of --genus --sweepout-max-area "
            "--weight-scale --injectivity-radius --compression-floor are required"
        )
    return BoundsConfig(
        genus=args.genus,
        sweepout_max_area=args.sweepout_max_area,
        weight_scale=args.weight_scale,
        injectivity_radius=args.injectivity_radius,
        compression_floor=args.compression_floor,
        margin=args.margin,
    )


def _budget_from_args(args):
    if args.budget is not None:
        return args.budget
    return _bounds_from_args(args).weight_budget()


# ---------------------------------------------------------------------------


def cmd_validate(args):
    tri = _load_triangulation(args)
    print(
        "triangulation: {} tetrahedra, {} vertices, {} edges, {} faces, "
        "chi={}, orientable".format(
            tri.tet_count,
            len(tri.vertex_classes),
            len(tri.edge_classes),
            len(tri.face_classes),
            tri.euler_characteristic(),
        )
    )
    if args.surface:
        surf = parse_surface(tri, _read(args.surface))
        cls = surf.validate()
        if not surf.is_valid():
            print("surface: {}".format(cls))
            return EXIT_SEMANTIC
        print(
            "surface: {}, weight {}, chi {}, genus {}, {}".format(
                cls,
                surf.weight(),
                surf.euler_characteristic(),
                surf.genus(),
                "connected" if len(surf.components()) == 1 else
                "{} components".format(len(surf.components())),
            )
        )
    return EXIT_OK


def cmd_bounds(args):
    cfg = _bounds_from_args(args)
    area = cfg.area_constant()
    delta = cfg.delta_constant()
    budget = cfg.weight_budget()
    if args.json:
        print(json.dumps(
            {"area_constant": area, "delta": delta, "weight_budget": budget},
            sort_keys=True,
        ))
    else:
        print("area_constant = {:.9f}".format(area))
        print("delta         = {:.9f}".format(delta))
        print("weight_budget = {}".format(budget))
    return EXIT_OK


def _run_graph(args, emit_loops):
    t0 = time.time()
    tri = _load_triangulation(args)
    seed_text = _read(args.seed)
    seed = parse_surface(tri, seed_text)
    budget = _budget_from_args(args)
    move_set = _parse_move_set(args.moves)
    catalog = _load_catalog(tri, args)
    limits = Limits(max_vertices=args.max_vertices, max_seconds=args.max_seconds)
    partial_exc = None
    try:
        graph = build(
            seed, budget, move_set=move_set, catalog=catalog,
            limits=limits, workers=args.workers,
        )
    except PartialGraphError as exc:
        partial_exc = exc
        graph = exc.graph
    provenance = {
        "tool": "cansurf {}".format(__version__),
        "triangulation_file_sha256": _sha256(_read(args.triangulation)),
        "seed_sha256": _sha256(seed_text),
        "parameters": {
            "budget": budget,
            "move_set": sorted(move_set),
            "subdivide": args.subdivide,
            "catalog": [e.sphere_id for e in catalog],
            "max_vertices": args.max_vertices,
            "max_seconds": args.max_seconds,
        },
    }
    digests = {}
    json_text = export_json(graph, provenance)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(json_text)
        digests["json"] = _sha256(json_text)
    if args.out_dot:
        dot_text = export_dot(graph)
        with open(args.out_dot, "w", encoding="utf-8") as fh:
            fh.write(dot_text)
        digests["dot"] = _sha256(dot_text)
    gens = None
    if emit_loops and not graph.partial:
        gens = generators(graph)
        loops_text = gens.to_text()
        if args.out_loops:
            with open(args.out_loops, "w", encoding="utf-8") as fh:
                fh.write(loops_text)
            digests["loops"] = _sha256(loops_text)
    if not digests:
        digests["json"] = _sha256(json_text)
    wall = time.time() - t0
    status = "PARTIAL" if graph.partial else "complete"
    print(
        "{}: {} vertices, {} edges, rank {}, budget {}, "
        "rejected-by-budget {}, wall {:.2f}s".format(
            status, len(graph.vertices), len(graph.edges), graph.rank(),
            budget, graph.stats.get("budget_rejected", 0), wall,
        )
    )
    if gens is not None:
        print("generators: {}".format(len(gens)))
    if args.manifest:
        manifest = {
            "tool_version": __version__,
            "inputs": {
                "triangulation_sha256": _sha256(_read(args.triangulation)),
                "seed_sha256": _sha256(seed_text),
            },
            "parameters": provenance["parameters"],
            "workers": args.workers,
            "wall_time": wall,
            "result_digests": digests,
            "partial": graph.partial,
        }
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    if partial_exc is not None:
        print("limit hit: {}".format(partial_exc), file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_graph(args):
    return _run_graph(args, emit_loops=False)


def cmd_generators(args):
    return _run_graph(args, emit_loops=True)


def cmd_replay(args):
    tri = _load_triangulation(args)
    seed = parse_surface(tri, _read(args.seed))
    if not seed.is_valid():
        raise SemanticError("seed surface: {}".format(seed.validate()))
    catalog = _load_catalog(tri, args)
    failures = 0
    loops = 0
    for lineno, raw in enumerate(_read(args.loops).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        loops += 1
        tokens = line.split()
        try:
            final = replay(seed, tokens, catalog)
        except CansurfError as exc:
            print("line {}: fail ({})".format(lineno, exc))
            failures += 1
            continue
        if final.canonical_key() == seed.canonical_key():
            print("line {}: ok ({} moves)".format(lineno, len(tokens)))
        else:
            print("line {}: fail (ends at {} != seed)".format(lineno, final.short_hash()))
            failures += 1
    if loops == 0:
        print("ok (no loops)")
        return EXIT_OK
    return EXIT_OK if failures == 0 else EXIT_SEMANTIC


def cmd_oracle(args):
    if args.what == "matchings":
        count, ms = oracle_matchings(tuple(args.ints))
        print(count)
        for m in ms:
            print(" ".join("{}-{}".format(a, b) for a, b in m))
        return EXIT_OK
    if args.what == "surfaces":
        texts = oracle_surfaces(_read(args.triangulation), args.weight)
        print(len(texts))
        for t in sorted(texts):
            sys.stdout.write(t + "%%\n")
        return EXIT_OK
    if args.what == "closure":
        move_set = _parse_move_set(args.moves)
        tri_text = _read(args.triangulation)
        catalog = default_catalog(parse_triangulation(tri_text))
        texts = oracle_closure(
            tri_text, _read(args.seed), args.weight, move_set, catalog
        )
        print(len(texts))
        for t in sorted(texts):
            sys.stdout.write(t + "%%\n")
        return EXIT_OK
    raise SemanticError("unknown oracle query")


def _add_graph_arguments(sub):
    sub.add_argument("triangulation", help="gluing table file")
    sub.add_argument("seed", help="seed surface file")
    sub.add_argument("--budget", type=int, default=None, help="weight budget")
    sub.add_argument("--moves", default=None,
                     help="comma-separated move kinds (default V0,E1,F2',PINCH,UNPINCH)")
    sub.add_argument("--catalog", action="append", default=None,
                     help="extra catalog sphere file (repeatable)")
    sub.add_argument("--subdivide", type=int, default=0,
                     help="barycentric subdivisions to apply first")
    sub.add_argument("--max-vertices", type=int, default=None)
    sub.add_argument("--max-seconds", type=float, default=None)
    sub.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes (default 1)")
    sub.add_argument("--out-json", default=None)
    sub.add_argument("--out-dot", default=None)
    sub.add_argument("--manifest", default=None)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="cansurf",
        description="surface move graphs on triangulated 3-manifolds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{validate,bounds,graph,generators,replay}",
    )

    p = subs.add_parser("validate", help="validate a triangulation and optional surface")
    p.add_argument("triangulation")
    p.add_argument("surface", nargs="?", default=None)
    p.add_argument("--subdivide", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    # The bounds flags, shared by every subcommand that derives a budget.
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--config", default=None, help="bounds config file")
    bounds.add_argument("--genus", type=int, default=None)
    bounds.add_argument("--sweepout-max-area", type=float, default=None)
    bounds.add_argument("--weight-scale", type=float, default=None)
    bounds.add_argument("--injectivity-radius", type=float, default=None)
    bounds.add_argument("--compression-floor", type=float, default=None)
    bounds.add_argument("--margin", type=float, default=0.99)

    p = subs.add_parser("bounds", help="compute the search constants", parents=[bounds])
    p.add_argument("--budget", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("graph", help="build the move graph from a seed surface", parents=[bounds])
    _add_graph_arguments(p)
    p.set_defaults(func=cmd_graph, out_loops=None)

    p = subs.add_parser("generators", parents=[bounds],
                        help="build the graph and emit generator loops")
    _add_graph_arguments(p)
    p.add_argument("--out-loops", default=None)
    p.set_defaults(func=cmd_generators)

    p = subs.add_parser("replay", help="replay move loops against a seed")
    p.add_argument("triangulation")
    p.add_argument("seed")
    p.add_argument("loops")
    p.add_argument("--subdivide", type=int, default=0)
    p.add_argument("--catalog", action="append", default=None)
    p.set_defaults(func=cmd_replay)

    # Hidden debugging interface for the brute-force oracles.
    p = subs.add_parser("oracle")
    osubs = p.add_subparsers(dest="what", required=True)
    q = osubs.add_parser("matchings")
    q.add_argument("ints", type=int, nargs=3)
    q = osubs.add_parser("surfaces")
    q.add_argument("triangulation")
    q.add_argument("weight", type=int)
    q = osubs.add_parser("closure")
    q.add_argument("triangulation")
    q.add_argument("seed")
    q.add_argument("weight", type=int)
    q.add_argument("--moves", default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        code = args.func(args)
    except ParseError as exc:
        print("parse error: {}".format(exc), file=sys.stderr)
        code = EXIT_PARSE
    except PartialGraphError as exc:
        print("partial: {}".format(exc), file=sys.stderr)
        code = EXIT_PARTIAL
    except CansurfError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        code = EXIT_SEMANTIC
    except UnicodeDecodeError as exc:
        print("parse error: input is not UTF-8 text: {}".format(exc), file=sys.stderr)
        code = EXIT_PARSE
    except OSError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        code = EXIT_SEMANTIC
    return code


if __name__ == "__main__":
    sys.exit(main())
