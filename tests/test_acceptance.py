"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run pytest with -s or
check the captured output); any assertion failure is the corresponding
FAIL.  Time budgets are asserted with the documented allowances.
"""

import json
import math
import time

import pytest

from cansurf import (
    area_constant,
    barycentric_subdivide,
    build,
    delta_constant,
    enumerate_surfaces,
    generators,
    noncrossing_matchings,
    parse_surface,
    parse_triangulation,
    replay,
    weight_budget,
)
from cansurf.cli import main as cli_main
from cansurf.moves import (
    DEFAULT_MOVE_SET,
    E1,
    F2,
    F2P,
    PINCH,
    UNPINCH,
    V0,
    apply_with_inverse,
    default_catalog,
    parse_move,
)

from oracle import oracle_closure, oracle_matchings, oracle_surfaces


def _report(name, started, budget_s):
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, "{} exceeded its {}s budget ({:.1f}s)".format(
        name, budget_s, elapsed
    )
    print("PASS {} ({:.2f}s)".format(name, elapsed))


@pytest.fixture(scope="module")
def graphs(tri, link, catalog):
    """The reference graph builds shared by criteria 3, 5 and 6."""
    return {
        "E1/8": build(link, 8, move_set={E1}, catalog=catalog),
        "default/8": build(link, 8, move_set=DEFAULT_MOVE_SET, catalog=catalog),
        "pinch/12": build(link, 12, move_set={PINCH, UNPINCH}, catalog=catalog),
        "V0/12": build(link, 12, move_set={V0}, catalog=catalog),
        "e1f2/8": build(link, 8, move_set={E1, F2}, catalog=catalog),
    }


def test_criterion_1_reference_triangulation(tri_text):
    t0 = time.monotonic()
    tri = parse_triangulation(tri_text)
    assert len(tri.vertex_classes) == 1
    assert len(tri.edge_classes) == 3
    assert len(tri.face_classes) == 4
    assert tri.euler_characteristic() == 0
    sub = barycentric_subdivide(tri)
    assert sub.tet_count == 48
    assert sub.euler_characteristic() == 0
    _report("criterion 1: reference triangulation", t0, 1.0)


def test_criterion_2_vertex_link_certificate(tri, link_text):
    t0 = time.monotonic()
    link = parse_surface(tri, link_text)
    assert link.validate() == "crudely_normal"
    assert link.weight() == 6
    points, arcs, disks, annuli = link.cell_counts()
    assert (points, arcs, disks, annuli) == (6, 12, 8, 0)
    assert link.euler_characteristic() == points - arcs + disks == 2
    assert link.genus() == 0
    assert len(link.components()) == 1
    _report("criterion 2: vertex-link certificate", t0, 1.0)


def test_criterion_3_move_algebra(tri, catalog, graphs):
    t0 = time.monotonic()
    edges_checked = 0
    kinds_seen = set()
    for g in graphs.values():
        for u, v, muv, mvu in g.sorted_edges():
            src, dst = g.vertices[u], g.vertices[v]
            move = parse_move(muv)
            kinds_seen.add(move.kind)
            kinds_seen.add(parse_move(mvu).kind)
            result, inverse = apply_with_inverse(src, move, catalog)
            assert result.canonical_key() == v
            back, _ = apply_with_inverse(result, inverse, catalog)
            assert back.canonical_key() == u
            assert src.euler_characteristic() == dst.euler_characteristic()
            assert src.genus() == dst.genus()
            assert len(src.components()) == len(dst.components())
            delta = dst.weight() - src.weight()
            if move.kind == V0:
                assert abs(delta) == tri.vertex_degree(move.location)
            elif move.kind == E1:
                assert abs(delta) == 2
            elif move.kind in (F2, F2P):
                assert delta == 0
            elif move.kind == PINCH:
                assert delta == catalog.get(move.sphere).weight()
            else:
                back_move = parse_move(mvu)
                assert back_move.kind == PINCH
                assert -delta == catalog.get(back_move.sphere).weight()
            edges_checked += 1
    assert edges_checked > 200
    assert {V0, E1, F2P, F2, PINCH, UNPINCH} <= kinds_seen
    _report(
        "criterion 3: move algebra over {} edges".format(edges_checked), t0, 120.0
    )


@pytest.mark.slow
def test_criterion_4_oracle_equivalence(tri, tri_text, link, catalog, successors):
    t0 = time.monotonic()
    module_list = [s.canonical_key() for s in enumerate_surfaces(tri, 4)]
    module_set = set(module_list)
    # Canonical keys are injective across the whole enumerated family.
    assert len(module_set) == len(module_list)
    oracle_set = oracle_surfaces(tri_text, 4)
    assert module_set == oracle_set
    g = build(link, 8, move_set={E1}, catalog=catalog)
    closure = oracle_closure(link.to_text(), successors(tri, 8, {E1}, catalog))
    assert {s.to_text() for s in g.vertices.values()} == closure
    _report(
        "criterion 4: oracle equivalence ({} encodings, {} closure states)".format(
            len(oracle_set), len(closure)
        ),
        t0,
        300.0,
    )


def test_criterion_5_generator_correctness(tmp_path, data_dir, link, catalog, graphs):
    t0 = time.monotonic()
    total = 0
    for name, g in graphs.items():
        gens = generators(g)
        assert len(gens.loops) == len(g.edges) - len(g.vertices) + 1
        for loop in gens.loops:
            assert replay(link, loop, catalog).canonical_key() == link.canonical_key()
        total += len(gens.loops)
        loops_file = tmp_path / (name.replace("/", "_") + ".loops")
        loops_file.write_text(gens.to_text())
        code = cli_main([
            "replay",
            str(data_dir / "two_tet_s3.tri"),
            str(data_dir / "vertex_link.surf"),
            str(loops_file),
        ])
        assert code == 0
    _report("criterion 5: {} generator loops replayed".format(total), t0, 60.0)


def test_criterion_6_determinism(tmp_path, data_dir):
    t0 = time.monotonic()
    texts = []
    for workers in ("1", "8"):
        out = tmp_path / ("graph_w{}.json".format(workers))
        code = cli_main([
            "graph",
            str(data_dir / "two_tet_s3.tri"),
            str(data_dir / "vertex_link.surf"),
            "--budget", "8",
            "--workers", workers,
            "--out-json", str(out),
        ])
        assert code == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    _report("criterion 6: worker determinism", t0, 120.0)


def test_criterion_7_bounds_formulas():
    t0 = time.monotonic()
    area = area_constant(2, 1.0)
    assert area > 4 * math.pi
    assert area <= 4 * math.pi * 1.02 + 1e-9
    assert abs(delta_constant(8.0, 2.0) - 0.99) < 1e-9
    assert weight_budget(2.0, area) == 27
    _report("criterion 7: bounds formulas", t0, 1.0)


def test_criterion_8_catalan_cross_check():
    t0 = time.monotonic()
    count, matchings = oracle_matchings((2, 2, 2))
    assert count == 5 and len(matchings) == 5
    for a in range(9):
        for b in range(9 - a):
            for c in range(9 - a - b):
                total = a + b + c
                if total % 2 or total > 8:
                    continue
                assert set(oracle_matchings((a, b, c))[1]) == set(
                    noncrossing_matchings(total)
                )
    _report("criterion 8: Catalan cross-check", t0, 10.0)
