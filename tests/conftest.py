import pathlib

import pytest

from cansurf import parse_triangulation, parse_surface, vertex_link
from cansurf.moves import default_catalog, neighbors

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def tri_text():
    return (DATA / "two_tet_s3.tri").read_text()


@pytest.fixture(scope="session")
def tri(tri_text):
    return parse_triangulation(tri_text)


@pytest.fixture(scope="session")
def link_text():
    return (DATA / "vertex_link.surf").read_text()


@pytest.fixture(scope="session")
def link(tri, link_text):
    return parse_surface(tri, link_text)


@pytest.fixture(scope="session")
def catalog(tri):
    return default_catalog(tri)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def successors():
    """``successors(tri, budget, move_set, catalog)``: the map from a
    surface's text to the texts ``neighbors`` reaches from it in one move,
    which ``oracle.oracle_closure`` closes under."""

    def make(tri, budget, move_set, catalog=None):
        def step(text):
            surf = parse_surface(tri, text)
            return [n.surface.to_text()
                    for n in neighbors(surf, budget, move_set=move_set, catalog=catalog)]

        return step

    return make
