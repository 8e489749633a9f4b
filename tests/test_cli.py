import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cansurf import build, cli, generators
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


def test_oracle_subcommand_hidden_but_works(capsys):
    code, out, _ = run(capsys, "oracle", "matchings", "2", "2", "2")
    assert code == 0
    assert out.splitlines()[0] == "5"


def test_help_hides_oracle(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "{validate,bounds,graph,generators,replay}" in out


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
