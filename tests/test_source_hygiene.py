"""Source hygiene: no private helper is left behind unused, no
``TetGeometry`` slot is kept that nothing reads, no module but
``surface`` reaches into the private state of its geometry or surfaces,
no module computes past a cache through its ``__wrapped__``, and the
checkers under ``tests/`` import nothing from ``cansurf``."""

import ast
import pathlib
import re

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cansurf"
# The checkers that read only text, and the modules each may import.
CHECKERS = {"loopcheck.py": {"collections", "json", "sys"}, "oracle.py": {"itertools"}}


def _private_module_names(tree):
    """Names of the module-level private functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def test_every_private_module_name_is_used():
    # A private name must occur somewhere in the package besides the line
    # that defines it; one a checker defines, somewhere under tests/.
    package = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    tests = "\n".join(path.read_text() for path in sorted(TESTS.glob("*.py")))
    scopes = [(path, package) for path in sorted(SRC.glob("*.py"))]
    scopes += [(TESTS / name, tests) for name in CHECKERS]
    defined = [
        (path.name, name, everything)
        for path, everything in scopes
        for name in _private_module_names(ast.parse(path.read_text()))
    ]
    assert len(defined) > 50
    unused = [
        (module, name)
        for module, name, everything in defined
        if len(re.findall(r"\b{}\b".format(re.escape(name)), everything)) < 2
    ]
    assert unused == []


@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_the_checker_imports_nothing_from_cansurf(checker):
    imported = set()
    for node in ast.walk(ast.parse((TESTS / checker).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "__import__":
            imported.add("__import__")
    assert imported == CHECKERS[checker]


def test_every_tet_geometry_slot_is_read():
    # Every TetGeometry is kept in the tet-geometry memo, so a slot costs
    # memory in every entry: each must be read somewhere in the package
    # outside the class's construction, the methods that assign to its
    # attributes.  Reads are matched by attribute name.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    cls = next(
        n for n in trees["surface.py"].body if isinstance(n, ast.ClassDef) and n.name == "TetGeometry"
    )
    slots = next(
        ast.literal_eval(n.value) for n in cls.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["__slots__"]
    )
    construction = {
        id(node)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and any(
            isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) for n in ast.walk(method)
        )
        for node in ast.walk(method)
    }
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in construction
    }
    assert slots and construction
    assert [slot for slot in slots if slot not in read] == []


# Private state that only ``surface.py`` may touch: TetGeometry's slots
# and Surface's cached fields.
_SURFACE_PRIVATE = {
    "_frame", "_offsets", "_points", "_sides", "_faces", "_atoms", "_root",
    "_text", "_lines", "_validation", "_tets", "_layouts", "_footprint", "_cell_data",
}


def test_only_the_surface_module_touches_private_surface_state():
    # Any read or write of such an attribute on an object other than
    # ``self``, in any other module, is a breach.
    breaches = [
        (path.name, node.lineno, node.attr)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "surface.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _SURFACE_PRIVATE
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert breaches == []


def test_no_module_reads_around_a_cache():
    # A cached function's ``__wrapped__`` computes without the cache: a
    # second path past the tables that hold every row and tet state once.
    reads = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "__wrapped__"
    ]
    assert reads == []
