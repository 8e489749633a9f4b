"""cansurf: crudely almost normal surfaces on triangulated 3-manifolds.

Build tetrahedral triangulations from gluing tables, encode surfaces
transverse to them up to normal isotopy, explore the graph of encodings
connected by elementary moves and pinches under a weight budget, and
extract free generators of that graph's fundamental group as replayable
move sequences.
"""

from .errors import (
    CansurfError,
    NotApplicableError,
    ParseError,
    PartialGraphError,
    SemanticError,
)
from .moves import (
    DEFAULT_MOVE_SET,
    CatalogSphere,
    Move,
    Neighbor,
    SphereCatalog,
    apply,
    apply_with_inverse,
    default_catalog,
    extend_catalog,
    neighbors,
    parse_move,
)
from .movegraph import (
    GeneratorSet,
    Limits,
    MoveGraph,
    build,
    export_dot,
    export_json,
    generators,
    import_json,
    replay,
    write_dot,
    write_json,
)
from .surface import (
    CRUDELY_ALMOST_NORMAL,
    CRUDELY_NORMAL,
    Surface,
    empty_surface,
    parse_surface,
    vertex_link,
)
from .triangulation import Triangulation, barycentric_subdivide, parse_triangulation

__version__ = "0.1.0"


def __getattr__(name):
    # Enumeration serves tests and demos, and the bounds the command line,
    # not a run: each is loaded on first use.
    if name in ("enumerate_surfaces", "noncrossing_matchings"):
        from . import enumeration
        return getattr(enumeration, name)
    if name in ("BoundsConfig", "area_constant", "delta_constant", "parse_config", "weight_budget"):
        from . import bounds
        return getattr(bounds, name)
    raise AttributeError("module 'cansurf' has no attribute '{}'".format(name))

__all__ = [
    "BoundsConfig",
    "CansurfError",
    "CatalogSphere",
    "CRUDELY_ALMOST_NORMAL",
    "CRUDELY_NORMAL",
    "DEFAULT_MOVE_SET",
    "GeneratorSet",
    "Limits",
    "Move",
    "MoveGraph",
    "Neighbor",
    "NotApplicableError",
    "ParseError",
    "PartialGraphError",
    "SemanticError",
    "SphereCatalog",
    "Surface",
    "Triangulation",
    "apply",
    "apply_with_inverse",
    "area_constant",
    "barycentric_subdivide",
    "build",
    "default_catalog",
    "delta_constant",
    "empty_surface",
    "enumerate_surfaces",
    "export_dot",
    "export_json",
    "extend_catalog",
    "generators",
    "import_json",
    "neighbors",
    "noncrossing_matchings",
    "parse_config",
    "parse_move",
    "parse_surface",
    "parse_triangulation",
    "replay",
    "vertex_link",
    "weight_budget",
    "write_dot",
    "write_json",
]
