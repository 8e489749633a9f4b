import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cansurf import (
    __version__,
    build,
    cli,
    default_catalog,
    export_dot,
    export_json,
    generators,
    parse_surface,
    parse_triangulation,
    topology,
)
from cansurf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_counts(capsys, data_dir):
    code, out, _ = run(
        capsys, "validate", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"),
    )
    assert code == 0
    assert "2 tetrahedra, 1 vertices, 3 edges, 4 faces" in out
    assert "crudely_normal, weight 6, chi 2, genus 0, connected" in out


def test_module_runs_from_a_checkout(data_dir):
    # python -m cansurf with only the source tree on the path.
    src = data_dir.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    argv = ["validate", "data/two_tet_s3.tri", "data/vertex_link.surf"]
    proc = subprocess.run(
        [sys.executable, "-m", "cansurf", *argv],
        cwd=data_dir.parent, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "crudely_normal, weight 6, chi 2, genus 0, connected" in proc.stdout


def test_a_huge_weight_is_refused_in_bounded_memory(data_dir, tmp_path):
    # A face with 10^8 slots on one side and one arc: the pairing check
    # compares the slot count before it lists the slots.  The commands run
    # with their address space capped at 512 MB.
    seed = tmp_path / "huge.surf"
    seed.write_text("edges: 0 0 100000000\nface 0: 0-1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(data_dir.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    for argv in (["validate"], ["graph", "--budget", "8"]):
        proc = subprocess.run(
            [sys.executable, "-m", "cansurf", argv[0], str(data_dir / "two_tet_s3.tri"),
             str(seed), *argv[1:]],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap,
        )
        assert proc.returncode == 3, proc.stderr
        assert "face 0 matching is not a perfect pairing" in proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr


def test_running_out_of_memory_is_a_semantic_error(data_dir):
    # Four barycentric subdivisions of the 2-tet S3 make 663,552 tetrahedra,
    # which do not fit in an address space capped at 512 MB.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(data_dir.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    for command in ("validate", "graph"):
        proc = subprocess.run(
            [sys.executable, "-m", "cansurf", command, str(data_dir / "two_tet_s3.tri"),
             str(data_dir / "vertex_link.surf"), "--subdivide", "4"],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: out of memory"), proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr


def test_validate_builds_the_cells_once(capsys, data_dir, monkeypatch):
    # components() in the command, then orientable() and components()
    # inside genus(), all read one cell build.
    calls = []
    real = topology.cells

    def counting(surf):
        calls.append(surf)
        return real(surf)

    monkeypatch.setattr(topology, "cells", counting)
    code, out, _ = run(
        capsys, "validate", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"),
    )
    assert code == 0
    assert len(calls) == 1
    assert out == (
        "triangulation: 2 tetrahedra, 1 vertices, 3 edges, 4 faces, chi=0, orientable\n"
        "surface: crudely_normal, weight 6, chi 2, genus 0, connected\n"
    )


def test_validate_parse_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tet 0: nope\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "parse error" in err


def test_validate_missing_edge_class_exit_three(capsys, data_dir, tmp_path):
    surf = tmp_path / "short.surf"
    surf.write_text("edges: 1 1\n")
    code, _, err = run(capsys, "validate", str(data_dir / "two_tet_s3.tri"), str(surf))
    assert code == 3
    assert "edge classes" in err


def test_bounds_output(capsys):
    code, out, _ = run(
        capsys, "bounds", "--genus", "2", "--sweepout-max-area", "1",
        "--weight-scale", "2", "--injectivity-radius", "8",
        "--compression-floor", "2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["weight_budget"] == 27
    assert doc["delta"] == pytest.approx(0.99)


def test_bounds_has_no_budget_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "bounds", "--genus", "2", "--sweepout-max-area", "1", "--weight-scale", "2",
            "--injectivity-radius", "8", "--compression-floor", "2", "--budget", "99",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 99" in capsys.readouterr().err


def test_there_is_no_oracle_command(capsys):
    # The brute-force oracle lives with the tests; the command names the
    # five subcommands it has.
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "matchings", "2", "2", "2"])
    assert exc.value.code == 2
    assert ("argument {validate,bounds,graph,generators,replay}: invalid choice: 'oracle'"
            in capsys.readouterr().err)


def test_repeated_surface_line_exit_two(capsys, data_dir, tmp_path):
    surf = tmp_path / "twice.surf"
    surf.write_text("edges: 9 9 9\n" + (data_dir / "vertex_link.surf").read_text())
    code, _, err = run(capsys, "validate", str(data_dir / "two_tet_s3.tri"), str(surf))
    assert code == 2
    assert err == "parse error: line 4: repeated 'edges:' line\n"


@pytest.mark.parametrize("command", ["graph", "generators"])
def test_unknown_move_kind_exit_three(capsys, data_dir, command):
    files = [str(data_dir / "two_tet_s3.tri"), str(data_dir / "vertex_link.surf")]
    code, out, err = run(capsys, command, *files, "--budget", "6", "--moves", "E1,E2,X")
    assert code == 3
    assert out == ""
    assert err == "error: unknown move kind 'E2' (choose from V0,E1,F2,F2',PINCH,UNPINCH)\n"


def test_json_export_is_built_only_when_used(capsys, data_dir, tmp_path, monkeypatch):
    calls = []
    real = cli.write_json

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "write_json", counting)
    args = ["graph", str(data_dir / "two_tet_s3.tri"), str(data_dir / "vertex_link.surf"),
            "--budget", "6"]
    assert run(capsys, *args, "--out-dot", str(tmp_path / "g.dot"))[0] == 0
    assert len(calls) == 0
    assert run(capsys, *args, "--manifest", str(tmp_path / "m1.json"))[0] == 0
    assert len(calls) == 1
    # The digest a manifest records without --out-json is that of the file.
    assert run(capsys, *args, "--out-json", str(tmp_path / "g.json"),
               "--manifest", str(tmp_path / "m2.json"))[0] == 0
    digests = [json.loads((tmp_path / m).read_text())["result_digests"] for m in ("m1.json", "m2.json")]
    assert digests[0] == digests[1] == {
        "json": hashlib.sha256((tmp_path / "g.json").read_bytes()).hexdigest()
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["graph", "generators"])
def test_written_files_are_the_library_exports_and_the_manifest_hashes_them(
    capsys, data_dir, tmp_path, command, workers
):
    files = {"json": tmp_path / "g.json", "dot": tmp_path / "g.dot"}
    if command == "generators":
        files["loops"] = tmp_path / "l.txt"
    options = {"json": "--out-json", "dot": "--out-dot", "loops": "--out-loops"}
    argv = [command, str(data_dir / "two_tet_s3.tri"), str(data_dir / "vertex_link.surf"),
            "--budget", "6", "--workers", str(workers), "--manifest", str(tmp_path / "m.json")]
    for kind, path in files.items():
        argv += [options[kind], str(path)]
    assert run(capsys, *argv)[0] == 0

    tri_text = (data_dir / "two_tet_s3.tri").read_text()
    seed_text = (data_dir / "vertex_link.surf").read_text()
    tri = parse_triangulation(tri_text)
    catalog = default_catalog(tri)
    graph = build(parse_surface(tri, seed_text), 6, catalog=catalog)
    provenance = {
        "tool": "cansurf {}".format(__version__),
        "triangulation_file_sha256": hashlib.sha256(tri_text.encode()).hexdigest(),
        "seed_sha256": hashlib.sha256(seed_text.encode()).hexdigest(),
        "parameters": {
            "budget": 6,
            "move_set": sorted(graph.move_set),
            "subdivide": 0,
            "catalog": [e.sphere_id for e in catalog],
            "max_vertices": None,
            "max_seconds": None,
        },
    }
    library = {
        "json": export_json(graph, provenance),
        "dot": export_dot(graph),
        "loops": generators(graph).to_text(),
    }
    for kind, path in files.items():
        assert path.read_bytes() == library[kind].encode()
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["result_digests"] == {
        kind: hashlib.sha256(path.read_bytes()).hexdigest() for kind, path in files.items()
    }


def test_graph_determinism_and_manifest(capsys, data_dir, tmp_path):
    args = [
        "graph", str(data_dir / "two_tet_s3.tri"), str(data_dir / "vertex_link.surf"),
        "--budget", "8",
    ]
    outs = []
    for run_id, workers in (("a", "1"), ("b", "8"), ("c", "1")):
        j = tmp_path / ("g%s.json" % run_id)
        m = tmp_path / ("m%s.json" % run_id)
        code, out, _ = run(
            capsys, *args, "--out-json", str(j), "--manifest", str(m),
            "--workers", workers,
        )
        assert code == 0
        assert "complete" in out
        outs.append((j.read_text(), json.loads(m.read_text())))
    assert outs[0][0] == outs[1][0] == outs[2][0]
    # Same command, same digests (manifest equality minus wall time/workers).
    d0, d2 = outs[0][1], outs[2][1]
    assert d0["result_digests"] == d2["result_digests"]
    assert d0["inputs"] == d2["inputs"]
    assert d0["parameters"] == d2["parameters"]


def test_workers_environment_variable_is_ignored(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("CANSURF_WORKERS", "two")
    code, out, _ = run(
        capsys, "graph", str(data_dir / "two_tet_s3.tri"), str(data_dir / "vertex_link.surf"),
        "--budget", "6",
    )
    assert code == 0
    assert "complete" in out


@pytest.mark.parametrize("command", ["graph", "generators"])
def test_hashes_describe_the_parsed_triangulation(capsys, data_dir, tmp_path, monkeypatch,
                                                  command):
    # The triangulation file changes while the graph is built; both hashes
    # still describe the text that was parsed.
    text = (data_dir / "two_tet_s3.tri").read_text()
    tri_file = tmp_path / "s3.tri"
    tri_file.write_text(text)

    def build_then_edit(*args, **kwargs):
        graph = build(*args, **kwargs)
        with open(tri_file, "a", encoding="utf-8") as fh:
            fh.write("# edited during the run\n")
        return graph

    monkeypatch.setattr(cli, "build", build_then_edit)
    j, m = tmp_path / "g.json", tmp_path / "m.json"
    code, _, _ = run(
        capsys, command, str(tri_file), str(data_dir / "vertex_link.surf"),
        "--budget", "6", "--out-json", str(j), "--manifest", str(m),
    )
    assert code == 0
    assert tri_file.read_text() != text
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert json.loads(j.read_text())["provenance"]["triangulation_file_sha256"] == digest
    assert json.loads(m.read_text())["inputs"]["triangulation_sha256"] == digest


def test_graph_empty_move_set(capsys, data_dir, tmp_path):
    j = tmp_path / "g.json"
    code, out, _ = run(
        capsys, "graph", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), "--budget", "8", "--moves", "",
        "--out-json", str(j),
    )
    assert code == 0
    doc = json.loads(j.read_text())
    assert len(doc["vertices"]) == 1
    assert doc["rank"] == 0


@pytest.mark.parametrize("command", ["graph", "generators"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_two(capsys, data_dir, tmp_path, command, workers):
    outputs = ["--out-json", str(tmp_path / "g.json"), "--manifest", str(tmp_path / "m.json")]
    if command == "generators":
        outputs += ["--out-loops", str(tmp_path / "loops.txt")]
    code, _, err = run(
        capsys, command, str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), "--budget", "6", "--workers", workers, *outputs,
    )
    assert code == 2
    assert "--workers must be at least 1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["graph", "generators"])
@pytest.mark.parametrize("flag, value, message", [
    ("--subdivide", "-1", "--subdivide must be at least 0"),
    ("--max-vertices", "-5", "--max-vertices must be at least 0"),
    ("--max-seconds", "-1", "--max-seconds must be a finite number"),
    ("--max-seconds", "nan", "--max-seconds must be a finite number"),
    ("--max-seconds", "inf", "--max-seconds must be a finite number"),
])
def test_bad_limits_exit_two(capsys, data_dir, tmp_path, command, flag, value, message):
    outputs = ["--out-json", str(tmp_path / "g.json"), "--manifest", str(tmp_path / "m.json")]
    if command == "generators":
        outputs += ["--out-loops", str(tmp_path / "loops.txt")]
    code, out, err = run(
        capsys, command, str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), "--budget", "6", flag + "=" + value, *outputs,
    )
    assert code == 2
    assert message in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["validate", "replay"])
def test_negative_subdivide_exit_two(capsys, tmp_path, command):
    # The input paths do not exist: the check comes before any read.
    paths = [str(tmp_path / name) for name in ("s3.tri", "seed.surf", "loops.txt")]
    argv = [command] + (paths[:1] if command == "validate" else paths)
    code, out, err = run(capsys, *argv, "--subdivide", "-1")
    assert code == 2
    assert "--subdivide must be at least 0" in err
    assert out == ""


def test_graph_partial_exit_one(capsys, data_dir, tmp_path):
    j = tmp_path / "g.json"
    code, out, err = run(
        capsys, "graph", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), "--budget", "8",
        "--max-vertices", "4", "--out-json", str(j),
    )
    assert code == 1
    assert "PARTIAL" in out
    assert json.loads(j.read_text())["partial"] is True


def test_generators_and_replay(capsys, data_dir, tmp_path):
    loops = tmp_path / "loops.txt"
    code, out, _ = run(
        capsys, "generators", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), "--budget", "8",
        "--out-loops", str(loops),
    )
    assert code == 0
    assert "generators: 36" in out
    code, out, _ = run(
        capsys, "replay", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), str(loops),
    )
    assert code == 0
    assert out.count("ok") == 36

    # Truncating the last move breaks the loop.
    lines = [l for l in loops.read_text().splitlines() if l and not l.startswith("#")]
    broken = tmp_path / "broken.txt"
    broken.write_text(" ".join(lines[0].split()[:-1]) + "\n")
    code, out, _ = run(
        capsys, "replay", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), str(broken),
    )
    assert code == 3
    assert "fail" in out


def test_replay_non_canonical_move_fails_its_line(capsys, data_dir, tmp_path):
    loops = tmp_path / "loops.txt"
    code, _, _ = run(
        capsys, "generators", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), "--budget", "8",
        "--out-loops", str(loops),
    )
    assert code == 0
    lines = [l for l in loops.read_text().splitlines() if l and not l.startswith("#")]
    first = lines[0].split()
    # The first loop again, with an unknown field on its first move.
    bogus = " ".join([first[0][:-1] + ",bogus=7]"] + first[1:])
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("\n".join([lines[0], bogus, lines[1]]) + "\n")
    code, out, _ = run(
        capsys, "replay", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), str(mixed),
    )
    assert code == 3
    assert out.splitlines() == [
        "line 1: ok ({} moves)".format(len(first)),
        "line 2: fail (move text '{}' is not canonical (expected '{}'))".format(
            bogus.split()[0], first[0]),
        "line 3: ok ({} moves)".format(len(lines[1].split())),
    ]


def test_replay_move_missing_a_field_fails_its_line(capsys, data_dir, tmp_path):
    loops = tmp_path / "loops.txt"
    loops.write_text("UNPINCH@t0[curve=99]\n")
    code, out, _ = run(
        capsys, "replay", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), str(loops),
    )
    assert code == 3
    assert out.splitlines() == [
        "line 1: fail (bad move parameters in 'UNPINCH@t0[curve=99]': missing field 'side')"
    ]


def test_replay_empty_loop_ok(capsys, data_dir, tmp_path):
    loops = tmp_path / "empty.txt"
    loops.write_text("# nothing\n")
    code, out, _ = run(
        capsys, "replay", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"), str(loops),
    )
    assert code == 0
    assert "ok" in out


def test_budget_from_bounds_flags(capsys, data_dir, tmp_path):
    # floor(1.01 * (4pi*1.01 + 1)) = 13; cap the vertex count so the run
    # stays small and just confirm the budget plumbed through.
    code, out, _ = run(
        capsys, "graph", str(data_dir / "two_tet_s3.tri"),
        str(data_dir / "vertex_link.surf"),
        "--genus", "2", "--sweepout-max-area", "1", "--weight-scale", "1.01",
        "--injectivity-radius", "8", "--compression-floor", "2",
        "--max-vertices", "40", "--moves", "E1",
    )
    assert code == 1
    assert "budget 13" in out


def _unreadable(path, monkeypatch):
    # Mode bits do not stop root, so the open call itself is refused.
    real_open = open

    def refuse(name, *args, **kwargs):
        if str(name) == str(path):
            raise PermissionError(13, "Permission denied", str(name))
        return real_open(name, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refuse, raising=False)


@pytest.mark.parametrize("arg", ["triangulation", "seed", "loops"])
@pytest.mark.parametrize("problem, expected", [
    ("directory", 3), ("unreadable", 3), ("undecodable", 2),
])
def test_unreadable_inputs_exit_cleanly(capsys, data_dir, tmp_path, monkeypatch,
                                        arg, problem, expected):
    paths = {
        "triangulation": str(data_dir / "two_tet_s3.tri"),
        "seed": str(data_dir / "vertex_link.surf"),
        "loops": str(tmp_path / "loops.txt"),
    }
    (tmp_path / "loops.txt").write_text("# nothing\n")
    bad = tmp_path / "bad"
    if problem == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe tet 0:\n")
        if problem == "unreadable":
            _unreadable(bad, monkeypatch)
    paths[arg] = str(bad)
    code, out, err = run(capsys, "replay", paths["triangulation"], paths["seed"], paths["loops"])
    assert code == expected
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    if arg == "triangulation":
        code, _, err = run(capsys, "validate", str(bad))
        assert code == expected
        assert len(err.strip().splitlines()) == 1


# Characters of the three input formats, for mutating them.
FUZZ_ALPHABET = "0123456789 -:,.=@[]'+#\nadeflnrstuvxEFHINPUV"


@st.composite
def mutated(draw, text):
    chars = list(text)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(chars)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            chars[i:i] = draw(st.text(FUZZ_ALPHABET, min_size=1, max_size=3))
        elif op == "delete":
            del chars[i:i + draw(st.integers(min_value=1, max_value=4))]
        else:
            chars[i:i + 1] = draw(st.sampled_from(FUZZ_ALPHABET))
    return "".join(chars)


@pytest.fixture(scope="module")
def fuzz_inputs(tri_text, link_text, link, catalog, tmp_path_factory):
    loops = generators(build(link, 8, catalog=catalog)).to_text().splitlines()[:4]
    texts = {"tri": tri_text, "seed": link_text, "loops": "\n".join(loops) + "\n"}
    return texts, tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_inputs_end_in_an_exit_code(fuzz_inputs, data):
    texts, folder = fuzz_inputs
    command = data.draw(st.sampled_from(("validate", "replay", "graph")))
    paths = {}
    for name, text in texts.items():
        if data.draw(st.booleans()):
            text = data.draw(mutated(text))
        paths[name] = folder / name
        paths[name].write_text(text)
    argv = {
        "validate": ["validate", paths["tri"], paths["seed"]],
        "replay": ["replay", paths["tri"], paths["seed"], paths["loops"]],
        "graph": ["graph", paths["tri"], paths["seed"], "--budget", "6"],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3)
