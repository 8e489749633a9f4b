"""Importing the package loads only the standard-library modules its
processes use: no ``dataclasses`` (which brings ``inspect``, ``ast`` and
``dis``), and no ``multiprocessing`` or ``pickle`` even when a build
starts workers.  The package modules it loads are compiled from source
wherever no bytecode cache is written, so their AST node count is
capped."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _loaded_by(statement, names):
    """Those of ``names`` that ``statement`` loads in a fresh interpreter
    (printed on the last line of its output)."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "{}\n"
        "print(' '.join(n for n in {!r} if n in sys.modules and n not in before))"
    ).format(statement, names)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_importing_the_package_loads_no_heavy_standard_modules():
    names = ["dataclasses", "inspect", "multiprocessing", "concurrent.futures"]
    assert _loaded_by("import cansurf", names) == []


def test_a_pooled_build_loads_no_process_pool_modules():
    # The pool forks its workers itself and talks to them over OS pipes,
    # with the built-in marshal; only a worker's error needs pickle.
    statement = (
        "import cansurf\n"
        "tri = cansurf.parse_triangulation(open({!r}).read())\n"
        "cansurf.build(cansurf.vertex_link(tri, 0), 6, catalog=cansurf.default_catalog(tri),"
        " workers=2)"
    ).format(str(SRC.parent / "data" / "two_tet_s3.tri"))
    assert _loaded_by(statement, ["multiprocessing", "socket", "pickle"]) == []


def test_the_bounds_load_with_the_command_line_only():
    assert _loaded_by("import cansurf", ["cansurf.bounds"]) == []
    assert _loaded_by("import cansurf.cli", ["cansurf.bounds"]) == ["cansurf.bounds"]
    assert _loaded_by("from cansurf import *", ["cansurf.bounds"]) == ["cansurf.bounds"]


# The modules ``import cansurf`` loads, and the cap on their AST nodes.
# Compiling them takes about 2 us per node in every fresh process that
# writes no bytecode cache; raise the cap only with a reason.  It went
# from 22,424 to 22,501 so that a weights, matchings or annuli vector,
# or a gluing row, that is not a sequence is refused with a SemanticError
# naming it rather than a bare TypeError: 77 nodes in ``Surface`` and
# ``Triangulation`` construction, where no code could go in their place.
# It went from 22,501 to 23,005 for candidate generation from per-row
# tables, which took ``s3-sphere-b6`` ``build_s`` about 7 % lower and
# ``sub48-link-b12``'s about 11 %: ``surface.py`` +350 nodes (the tables
# and ``TetGeometry.count_beside``, and ``_planar_reconnection`` moved
# from ``moves.py``, less the unused ``Surface.pieces`` and a shorter
# ``cell_counts``), ``movegraph.py`` +154 for the per-kind counters,
# ``triangulation.py`` +20 to refuse a gluing table that is not a
# sequence, and ``moves.py`` -20.  In ten alternating benchmark pairs
# per workload ``setup_s`` moved by less than its spread (see
# CHANGES.md).  It went down to 22,778 when each move-layer step got one
# owner: one sphere removal for V0- and UNPINCH, one builder of move
# results, and per-kind counts kept where ``neighbors`` applies or skips
# a move instead of read back from move texts (``moves.py`` -161,
# ``movegraph.py`` -66 net of the error a dead pool worker now raises).
IMPORT_PATH = ["__init__", "errors", "movegraph", "moves", "surface", "triangulation"]
IMPORT_PATH_NODES = 22_778

# ``moves.py`` is the largest module, and compiling it without a bytecode
# cache is a build process's largest allocation, so its size shows in the
# benchmark's ``peak_rss_mb``: 495 uncalled nodes appended to it raised
# ``peak_rss_mb`` from 22.23 to 22.69 MB on ``s3-sphere-b6`` and from
# 21.73 to 22.10 MB on ``sub48-link-b12`` (one 8 s run each), while the
# same nodes appended to ``surface.py`` moved neither.  Its own node count
# was capped at 9,099, where it stood before candidate generation read
# per-row tables, and went down to 8,918 when V0- and UNPINCH got one
# removal step and every move result one builder.
MOVES_NODES = 8_918

PACKAGE = SRC / "cansurf"


def _nodes(name):
    return sum(1 for _ in ast.walk(ast.parse((PACKAGE / (name + ".py")).read_text())))


def test_the_import_path_stays_under_its_node_count():
    everything = ["cansurf"] + ["cansurf." + p.stem for p in PACKAGE.glob("*.py")]
    assert sorted(_loaded_by("import cansurf", everything)) == sorted(
        "cansurf" if name == "__init__" else "cansurf." + name for name in IMPORT_PATH
    )
    assert sum(map(_nodes, IMPORT_PATH)) <= IMPORT_PATH_NODES


def test_the_moves_module_stays_under_its_node_count():
    assert _nodes("moves") <= MOVES_NODES
