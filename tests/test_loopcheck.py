"""The generator loops of ``cansurf generators`` pass ``loopcheck``, a
checker that imports nothing from ``cansurf``, and the checker refuses
broken loops."""

import pathlib

import pytest

from cansurf import barycentric_subdivide, parse_triangulation, vertex_link
from cansurf.cli import main

from loopcheck import LoopError, check_loops

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sub48_seed(path):
    tri = parse_triangulation((ROOT / "data" / "two_tet_s3.tri").read_text())
    path.write_text(vertex_link(barycentric_subdivide(tri), 7).to_text())
    return str(path)


# (name, seed file, generators arguments, loops)
_CLOSURES = [
    ("s3-sphere-b6", lambda tmp: str(ROOT / "bench" / "data" / "s3_sphere_w2.surf"),
     ["--budget", "6", "--moves", "E1,F2',PINCH,UNPINCH,V0"], 288),
    ("default-b8", lambda tmp: str(ROOT / "data" / "vertex_link.surf"), ["--budget", "8"], 36),
    ("sub48-b12", lambda tmp: _sub48_seed(tmp / "sub48_link.surf"),
     ["--budget", "12", "--moves", "V0,F2',PINCH,UNPINCH", "--subdivide", "1"], 27),
]


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """The JSON export and loops file of each closure, as text."""
    out = {}
    for name, seed, argv, _ in _CLOSURES:
        tmp = tmp_path_factory.mktemp(name)
        json_path, loops_path = tmp / "graph.json", tmp / "loops.txt"
        code = main(["generators", str(ROOT / "data" / "two_tet_s3.tri"), seed(tmp), *argv,
                     "--out-json", str(json_path), "--out-loops", str(loops_path)])
        assert code == 0
        out[name] = json_path.read_text(), loops_path.read_text()
    return out


@pytest.mark.parametrize("name,loops", [(name, loops) for name, _, _, loops in _CLOSURES],
                         ids=[name for name, *_ in _CLOSURES])
def test_generator_loops_pass_the_independent_check(exports, name, loops):
    export, text = exports[name]
    assert check_loops(export, text) == loops


def _broken(text, change):
    head, *lines = text.splitlines()
    loops = [line.split() for line in lines]
    change(loops)
    return "\n".join([head] + [" ".join(loop) for loop in loops]) + "\n"


def _drop_a_move(loops):
    del loops[0][len(loops[0]) // 2]


def _duplicate_a_loop(loops):
    loops.append(list(loops[0]))


def _replace_by_a_copy(loops):
    loops[1] = list(loops[0])


def _replace_by_a_sum(loops):
    loops[1] = loops[0] + loops[1]


@pytest.mark.parametrize("change,error", [
    pytest.param(_drop_a_move, "no edge|not at the seed", id="drop"),
    pytest.param(_duplicate_a_loop, "loops for E - V \\+ 1", id="duplicate"),
    pytest.param(_replace_by_a_copy, "cross the same non-tree edge", id="copy"),
    pytest.param(_replace_by_a_sum, "crosses 2 non-tree edges", id="sum"),
])
def test_the_checker_refuses_broken_loops(exports, change, error):
    export, text = exports["default-b8"]
    assert check_loops(export, text) == 36
    with pytest.raises(LoopError, match=error):
        check_loops(export, _broken(text, change))
