"""Importing the package loads only the standard-library modules its
processes use: no ``dataclasses`` (which brings ``inspect``, ``ast`` and
``dis``), no ``multiprocessing`` even when a build starts workers, and
no oracle in the command line until ``cansurf oracle`` runs."""

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
    # The pool forks its workers itself and talks to them over OS pipes.
    statement = (
        "import cansurf\n"
        "tri = cansurf.parse_triangulation(open({!r}).read())\n"
        "cansurf.build(cansurf.vertex_link(tri, 0), 6, catalog=cansurf.default_catalog(tri),"
        " workers=2)"
    ).format(str(SRC.parent / "data" / "two_tet_s3.tri"))
    assert _loaded_by(statement, ["multiprocessing", "socket"]) == []


def test_the_command_line_loads_the_oracle_only_for_its_command():
    assert _loaded_by("import cansurf.cli", ["cansurf.oracle"]) == []
    assert _loaded_by(
        "import cansurf.cli\n"
        "cansurf.cli.main(['oracle', 'matchings', '1', '1', '0'])",
        ["cansurf.oracle"],
    ) == ["cansurf.oracle"]
