"""Source hygiene: no private helper is left behind unused, no
``TetGeometry`` slot is kept that nothing reads, no module but
``surface`` reaches into the private state of its geometry or surfaces,
and no module computes past a cache through its ``__wrapped__``."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cansurf"


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
    # that defines it.
    sources = {path: path.read_text() for path in sorted(SRC.glob("*.py"))}
    defined = [
        (path.name, name)
        for path, text in sources.items()
        for name in _private_module_names(ast.parse(text))
    ]
    assert len(defined) > 50
    everything = "\n".join(sources.values())
    unused = [
        (module, name)
        for module, name in defined
        if len(re.findall(r"\b{}\b".format(re.escape(name)), everything)) < 2
    ]
    assert unused == []


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
