"""Source hygiene: no private helper is left behind unused."""

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
