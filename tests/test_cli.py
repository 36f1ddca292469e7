import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from haefliger import calculus, cli
from haefliger.diagram import diagram_to_dict
from haefliger.generator import generator_diagram
from haefliger.linking import curves_to_dict

from conftest import random_diagram
from helpers import NON_PLANAR_CODES, hopf_link


def run_cli(capsys, *args):
    code = cli.run(list(args))
    out = capsys.readouterr().out
    return code, out


def write_hopf(tmp_path, n_vertices=48):
    path = tmp_path / f"hopf{n_vertices}.json"
    path.write_text(json.dumps(curves_to_dict(list(hopf_link(n_vertices)))))
    return str(path)


def write_generator_diagram(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(diagram_to_dict(generator_diagram(1))))
    return str(path)


def test_lk_command(capsys, tmp_path):
    code, out = run_cli(capsys, "lk", write_hopf(tmp_path))
    assert code == 0
    assert out == "lk: 1\n"


def test_lk_json_with_quadrature(capsys, tmp_path):
    code, out = run_cli(
        capsys, "--format", "json", "lk", write_hopf(tmp_path),
        "--quadrature", "128",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lk"] == 1
    assert abs(doc["quadrature"] - 1.0) < 1e-2


def test_lk_custom_axis(capsys, tmp_path):
    for axis in ("0,1,0", "0.6,0,0.8"):
        code, out = run_cli(capsys, "lk", write_hopf(tmp_path), "--axis", axis)
        assert code == 0
        assert out == "lk: 1\n"


def test_writhe_command(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "components": [[[0, 0, 0], [2, 2, 0], [2, 0, 1], [0, 2, 1]]]
    }))
    code, out = run_cli(capsys, "writhe", str(path))
    assert code == 0
    assert out == "writhe_0: -1\n"


KINK = {"components": [[[0, 0, 0], [2, 2, 0], [2, 0, 1], [0, 2, 1]]]}
MURAI_OHBA_DIAGRAM = (
    "{'k': 1, 'm': 2, 'lk': [{'i': 1, 'ei': 0, 'j': 2, 'ej': 0, 'value': 1},"
    " {'i': 1, 'ei': 1, 'j': 2, 'ej': 1, 'value': 1}], 'writhe': []}"
)


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["lk", "hopf"], "lk: 1\n"),
        (["lk", "hopf", "--axis", "0.6,0,0.8"], "lk: 1\n"),
        (["writhe", "kink"], "writhe_0: -1\n"),
        (["writhe", "hopf"], "writhe_0: 0\nwrithe_1: 0\n"),
        (["murai-ohba", "hopf"],
         f"delta_h: 1\ndiagram: {MURAI_OHBA_DIAGRAM}\nswitch: [1]\n"),
        (["--format", "json", "lk", "hopf"], '{"lk":1}\n'),
        (["--format", "json", "lk", "hopf", "--axis", "0.6,0,0.8"], '{"lk":1}\n'),
        (["--format", "json", "writhe", "kink"], '{"writhe_0":-1}\n'),
        (["--format", "json", "writhe", "hopf"], '{"writhe_0":0,"writhe_1":0}\n'),
        (["--format", "json", "murai-ohba", "hopf"],
         '{"delta_h":{"den":1,"num":1},"diagram":{"k":1,"lk":[{"ei":0,"ej":0,"i":1,'
         '"j":2,"value":1},{"ei":1,"ej":1,"i":1,"j":2,"value":1}],"m":2,"writhe":[]},'
         '"switch":[1]}\n'),
    ],
)
def test_curve_commands_print_pinned_output(capsys, tmp_path, argv, stdout):
    # Byte for byte what the rational-division engine printed.
    kink = tmp_path / "kink.json"
    kink.write_text(json.dumps(KINK))
    files = {"hopf": write_hopf(tmp_path), "kink": str(kink)}
    code, out = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert code == 0
    assert out == stdout


# A triangle with an edge along the z axis, over an edge of a rectangle.
VERTICAL_EDGE = {"components": [[[-3, -1, 0], [3, -1, 0], [3, 1, 0], [-3, 1, 0]],
                                [[0, -1, 1], [0, -1, 3], [1, 0, 2]]]}
# The last vertex projects onto the first edge along z.
VERTEX_OVER_EDGE = {"components": [[[0, 0, 0], [4, 0, 0], [4, 4, 0], [2, 0, 1]]]}
# The fourth vertex lies on the first edge in R^3.
VERTEX_ON_EDGE = {"components": [[[0, 0, 0], [4, 0, 0], [4, 4, 0], [2, 0, 0], [0, 4, 0]]]}


def test_lk_and_murai_ohba_decide_a_vertical_edge(capsys, tmp_path):
    path = tmp_path / "vertical.json"
    path.write_text(json.dumps(VERTICAL_EDGE))
    assert run_cli(capsys, "lk", str(path)) == (0, "lk: 0\n")
    assert run_cli(capsys, "murai-ohba", str(path))[0] == 0


def test_writhe_of_a_vertex_over_an_edge_exits_0(capsys, tmp_path):
    # Decided along EZ tilted towards -y, where the edges miss.
    path = tmp_path / "vertex.json"
    path.write_text(json.dumps(VERTEX_OVER_EDGE))
    assert run_cli(capsys, "writhe", str(path)) == (0, "writhe_0: 0\n")


def test_writhe_of_a_vertex_on_an_edge_exits_8(capsys, tmp_path):
    path = tmp_path / "vertex.json"
    path.write_text(json.dumps(VERTEX_ON_EDGE))
    assert cli.run(["writhe", str(path)]) == 8
    assert "a curve meets itself" in capsys.readouterr().err


def test_writhe_of_a_curve_that_folds_back_exits_8(capsys, tmp_path):
    path = tmp_path / "fold.json"
    path.write_text(json.dumps({"components": [[[0, 0, 0], [2, 0, 0], [1, 0, 0]]]}))
    assert cli.run(["writhe", str(path)]) == 8
    assert "folds back" in capsys.readouterr().err


def test_an_odd_crossing_count_exits_15(capsys, tmp_path, monkeypatch):
    # Closed curves cross an even number of times; an odd count is a
    # defect of the engine, not of the input.
    from haefliger import linking

    counts = iter([1])
    monkeypatch.setattr(linking, "_segment_crossings", lambda *args: next(counts, 0))
    assert cli.run(["lk", write_hopf(tmp_path)]) == 15
    assert "odd" in capsys.readouterr().err


def test_delta_h_command(capsys, tmp_path):
    path = write_generator_diagram(tmp_path)
    code, out = run_cli(capsys, "delta-h", path, "--switch", "1")
    assert code == 0
    assert out == "delta_h: 1\n"
    code, out = run_cli(
        capsys, "--format", "json", "delta-h", path, "--switch", "1,2"
    )
    assert json.loads(out) == {"delta_h": {"num": 2, "den": 1}}


def test_vfinite_command(capsys, tmp_path):
    path = write_generator_diagram(tmp_path)
    code, out = run_cli(
        capsys, "--format", "json", "vfinite", path,
        "--indices", "1,2,3", "--h0", "5/3",
    )
    assert code == 0
    assert json.loads(out)["v"] == {"num": 0, "den": 1}
    code, out = run_cli(
        capsys, "--format", "json", "vfinite", path,
        "--indices", "1", "--verbose",
    )
    doc = json.loads(out)
    assert doc["v"] == {"num": 1, "den": 1}
    assert doc["h_S_"] == {"num": 0, "den": 1}
    assert doc["h_S_1"] == {"num": -1, "den": 1}
    code, out = run_cli(
        capsys, "--format", "json", "vfinite", path, "--indices", "", "--h0", "-0.25",
    )
    assert json.loads(out)["v"] == {"num": -1, "den": 4}


def test_vfinite_verbose_lattice_values(capsys, tmp_path, rng):
    d = random_diagram(rng, m_min=5, m_max=8)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram_to_dict(d)))
    indices = [2, 5, 1]
    h0 = Fraction(5, 3)
    code, out = run_cli(
        capsys, "--format", "json", "vfinite", str(path),
        "--indices", "2,5,1", "--h0", "5/3", "--verbose",
    )
    assert code == 0
    doc = json.loads(out)
    expected = {"v": calculus.v_alternating(h0, d, indices)}
    for subset in ((), (2,), (5,), (1,), (2, 5), (2, 1), (5, 1), (2, 5, 1)):
        key = "h_S_" + ",".join(map(str, subset))
        expected[key] = h0 - calculus.delta_h_full(d, subset)
    assert doc == {k: cli._rational(v) for k, v in expected.items()}


@pytest.mark.parametrize(
    "indices, code", [("1,1", 5), ("1,7", 3)], ids=["repeated", "beyond m"]
)
def test_vfinite_refuses_bad_indices(capsys, tmp_path, indices, code):
    path = write_generator_diagram(tmp_path)
    assert cli.run(["vfinite", path, "--indices", indices]) == code
    capsys.readouterr()


def test_vfinite_verbose_json_is_byte_stable(capsys, tmp_path):
    # Pinned output: the subsets may be enumerated in any order.
    code, out = run_cli(
        capsys, "--format", "json", "vfinite", write_generator_diagram(tmp_path),
        "--indices", "3,1,4", "--verbose",
    )
    assert code == 0
    assert out == (
        '{"h_S_":{"den":1,"num":0},"h_S_1":{"den":1,"num":-1},'
        '"h_S_1,4":{"den":1,"num":-1},"h_S_3":{"den":1,"num":-1},'
        '"h_S_3,1":{"den":1,"num":-2},"h_S_3,1,4":{"den":1,"num":-2},'
        '"h_S_3,4":{"den":1,"num":-2},"h_S_4":{"den":1,"num":-1},'
        '"v":{"den":1,"num":0}}\n'
    )


def test_e_jump_command(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "e-jump",
        "--kind", "indefinite_tangency", "--k", "1", "--index", "1",
        "--joins", "--lk00", "2", "--lk11", "1",
    )
    assert code == 0
    assert json.loads(out)["jump"] == {"num": 3, "den": 4}
    code, out = run_cli(
        capsys, "e-jump", "--kind", "triple_point",
        "--pattern", "i_eq_j",
    )
    assert out == "jump: 0\n"


def test_generator_command(capsys):
    code, out = run_cli(capsys, "--format", "json", "generator", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagram"]["m"] == 6
    assert len(doc["diagram"]["lk"]) == 6
    code, out = run_cli(
        capsys, "--format", "json", "generator", "--curves",
        "--resolution", "16",
    )
    doc = json.loads(out)
    assert len(doc["curves"]["components"]) == 12
    assert len(doc["labels"]) == 12


def test_generator_refuses_fewer_than_three_vertices_per_circle(capsys):
    # Each circle is a square with every edge split into n/4 steps.
    for resolution in ("2", "0", "-4", "6", "10"):
        assert cli.run(["generator", "--curves", "--resolution", resolution]) == 10
        assert "n must be a positive multiple of 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "resolution, digest",
    [("32", "78d3f577f3f8806dcf648640e7ef4025d31e489e2347da3aa5d7f7d123b70e17"),
     ("64", "7b8846e48985012d994db8fd1002368b16d494f9e0d986819ec80e7e7a24a0aa")],
)
def test_generator_curves_print_pinned_output(capsys, resolution, digest):
    # Byte for byte what the integer builder prints.
    code, out = run_cli(
        capsys, "--format", "json", "generator", "--curves", "--resolution", resolution)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_generator_curves_have_zero_writhes(capsys, tmp_path):
    # The circles are exactly planar, so no writhe reads float noise.
    code, out = run_cli(capsys, "--format", "json", "generator", "--curves")
    assert code == 0
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(json.loads(out)["curves"]))
    code, out = run_cli(capsys, "--format", "json", "writhe", str(path))
    assert code == 0
    assert json.loads(out) == {f"writhe_{i}": 0 for i in range(12)}


def test_v2_command(capsys):
    code, out = run_cli(capsys, "v2", "O1+U2+O3+U1+O2+U3+")
    assert code == 0
    assert out == "v2: 1\n"
    code, out = run_cli(
        capsys, "--format", "json", "v2", "O1+U2+O3+U1+O2+U3+", "--verbose"
    )
    doc = json.loads(out)
    assert doc["v2"] == 1
    assert doc["x_pairing"] == 3
    assert doc["descending_set"] == ["2"]


def test_jacobian_command(capsys):
    for k in (1, 2, 3):
        code, out = run_cli(capsys, "jacobian", "--k", str(k))
        assert code == 0
        assert out == "det: -1\n"


def test_murai_ohba_command(capsys, tmp_path):
    code, out = run_cli(
        capsys, "--format", "json", "murai-ohba", write_hopf(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_h"] == {"num": 1, "den": 1}
    assert doc["switch"] == [1]
    assert doc["diagram"]["m"] == 2


def test_json_output_is_deterministic(capsys, tmp_path):
    path = write_hopf(tmp_path)
    _, first = run_cli(capsys, "--format", "json", "lk", path)
    _, second = run_cli(capsys, "--format", "json", "lk", path)
    assert first == second


def test_error_exit_codes(capsys, tmp_path):
    assert cli.run(["lk", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "k": 1, "m": 2,
        "lk": [{"i": 1, "ei": 0, "j": 9, "ej": 0, "value": 1}],
    }))
    assert cli.run(["delta-h", str(bad), "--switch", "1"]) == 3
    capsys.readouterr()
    # Zero rows are range-checked too, before they are dropped.
    bad.write_text(json.dumps({
        "k": 1, "m": 2,
        "lk": [{"i": 5, "ei": 0, "j": 1, "ej": 7, "value": 0}],
        "writhe": [{"i": 9, "e": 3, "value": 0}],
    }))
    assert cli.run(["delta-h", str(bad), "--switch", "1"]) == 3
    capsys.readouterr()
    assert cli.run(["v2", "O1+X"]) == 11
    capsys.readouterr()
    assert cli.run(["v2", "O1+U1-"]) == 12
    capsys.readouterr()
    assert cli.run(["v2", "O1+U2+U1+O2+"]) == 14  # not planar
    capsys.readouterr()


@pytest.mark.parametrize("code", NON_PLANAR_CODES)
def test_v2_refuses_a_non_planar_code(capsys, code):
    assert cli.run(["v2", "--verbose", code]) == 14
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not the code of a planar diagram" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["delta-h", "FF", "--switch", "1"], ["v2", "MISSING", "--file"],
     ["v2", "FF", "--file"]],
    ids=["delta-h 0xff file", "v2 missing file", "v2 0xff file"],
)
def test_unreadable_files_exit_2(capsys, tmp_path, argv):
    undecodable = tmp_path / "ff.json"
    undecodable.write_bytes(b"\xff{}")
    paths = {"FF": str(undecodable), "MISSING": str(tmp_path / "missing.txt")}
    assert cli.run([paths.get(arg, arg) for arg in argv]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["e-jump", "--kind", "triple_point", "--pattern", "all_distinct", "--k", "0"],
     ["e-jump", "--kind", "definite_tangency", "--k", "-3"],
     ["generator", "--k", "0"],
     ["jacobian", "--k", "0"]],
    ids=["triple point k 0", "definite tangency k -3", "generator k 0", "jacobian k 0"],
)
def test_e_jump_refuses_non_positive_k(capsys, argv):
    # Every command checks k >= 1 the same way: IndexOutOfRange, exit 3.
    assert cli.run(argv) == 3
    assert "positive" in capsys.readouterr().err


def test_e_jump_refuses_a_field_of_another_kind(capsys):
    argv = ["e-jump", "--kind", "definite_tangency", "--pattern", "all_distinct"]
    assert cli.run(argv) == 6
    assert "pattern" in capsys.readouterr().err


def test_lk_rejects_non_finite_coordinates(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"components": [[[0, 0, 0], [1, 0, 0], [0, 1, Infinity]],'
                    ' [[5, 0, 0], [6, 0, 0], [5, 1, 0]]]}')
    assert cli.run(["lk", str(path)]) == 2
    assert "components[0][2]" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["nan,0,1", "inf,0,1", "0,0,\u0661", "0,0,0", "0,-0.0,0e5"])
def test_lk_rejects_bad_axis(capsys, tmp_path, axis):
    assert cli.run(["lk", write_hopf(tmp_path), "--axis", axis]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("axis", ["1e-400,0,1", "1e-400,0,0"])
def test_an_axis_component_below_the_float_range_is_refused_not_zeroed(capsys, tmp_path, axis):
    # Read as a float, 1e-400 would be 0: the first axis would pass as
    # 0,0,1 and the second would be called zero although it is not.
    assert cli.run(["lk", write_hopf(tmp_path, 16), "--axis", axis]) == 2
    err = capsys.readouterr().err
    assert "1E-400" in err and "is zero" not in err


def test_an_axis_is_read_exactly():
    assert cli._axis("0.6,0,0.8").direction == (Fraction(3, 5), 0, Fraction(4, 5))


@pytest.mark.parametrize("command", ["lk", "writhe", "murai-ohba"])
def test_a_scaled_axis_prints_what_the_unit_axis_prints(capsys, tmp_path, command):
    # Only the axis's direction is read, so any positive scale of it will do.
    path = write_hopf(tmp_path, 16)
    for axes in (("0,0,1", "0,0,2", "0,0,1e6", "0,0,0.25"), ("3,0,4", "0.6,0,0.8")):
        outputs = [run_cli(capsys, "--format", "json", command, path, "--axis", axis)
                   for axis in axes]
        assert outputs[0][0] == 0 and outputs == outputs[:1] * len(axes)


@pytest.mark.parametrize(
    "argv",
    [
        ["delta-h", "GEN", "--switch", "1_0"],
        ["delta-h", "GEN", "--switch", "\u0661"],
        ["vfinite", "GEN", "--indices", "1", "--h0", "abc"],
        ["vfinite", "GEN", "--indices", "1", "--h0", "1_0"],
        ["vfinite", "GEN", "--indices", "1", "--h0", "1/0"],
        ["generator", "--curves", "--resolution", "8", "--alpha", "x"],
    ],
    ids=["switch 1_0", "switch arabic-indic 1", "h0 abc", "h0 1_0", "h0 1/0",
         "alpha x"],
)
def test_flags_refuse_malformed_numbers(capsys, tmp_path, argv):
    path = write_generator_diagram(tmp_path)
    assert cli.run([path if arg == "GEN" else arg for arg in argv]) == 2
    assert "bad " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobian", "--k", "0_1"],
        ["e-jump", "--kind", "triple_point", "--sign", "\u0661"],
    ],
    ids=["k 0_1", "sign arabic-indic 1"],
)
def test_integer_options_refuse_non_ascii_numbers(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.run(argv)
    assert info.value.code == 2
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["delta_h_full", "delta_h_reduced"])
def test_delta_h_cross_check_failure_exits_15(capsys, tmp_path, monkeypatch, name):
    monkeypatch.setattr(calculus, name, lambda d, s: Fraction(99))
    path = write_generator_diagram(tmp_path)
    assert cli.run(["delta-h", path, "--switch", "1"]) == 15
    assert "!=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ['{"k": 1' + "0" * 5000 + ', "m": 1}', "[" * 100_000],
    ids=["5001-digit integer", "nesting 100000 deep"],
)
def test_json_that_json_refuses_outright_exits_2(capsys, tmp_path, text):
    # json raises a plain ValueError and a RecursionError for these, not
    # JSONDecodeError.
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.run(["delta-h", str(path), "--switch", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_lk_rejects_coordinates_beyond_float_range(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"components": [[[0, 0, 0], [1, 0, 0], [0, 1, 1' + "0" * 400
                    + ']], [[5, 0, 0], [6, 0, 0], [5, 1, 0]]]}')
    assert cli.run(["lk", str(path)]) == 2
    assert "components[0][2]" in capsys.readouterr().err


# Runs one CLI call in a fresh interpreter, then reports on stderr which
# of numpy, dataclasses and inspect got loaded, space-separated.
_PROBE = (
    "import sys\n"
    "from haefliger.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(*(m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules),\n"
    "      file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _run_in_fresh_process(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True,
        text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines()[-1].split())


def test_exact_commands_never_load_numpy(capsys, tmp_path):
    gen = write_generator_diagram(tmp_path)
    # 32 + 32 vertices is 1024 segment pairs, the most linking compares
    # without numpy; a writhe of 32 vertices is 496.
    small = write_hopf(tmp_path, 32)
    commands = [
        ["v2", "O1+U2+O3+U1+O2+U3+", "--verbose"],
        ["jacobian", "--k", "2"],
        ["e-jump", "--kind", "indefinite_tangency", "--k", "1", "--index", "1",
         "--joins", "--lk00", "2", "--lk11", "1"],
        ["delta-h", gen, "--switch", "1,2"],
        ["vfinite", gen, "--indices", "1,2,3", "--verbose", "--h0", "5/3"],
        ["generator", "--k", "1"],
        ["generator", "--k", "1", "--curves"],
        ["lk", small],
        ["lk", small, "--axis", "0.6,0,0.8"],
        ["writhe", small],
        ["murai-ohba", small],
    ]
    for argv in commands:
        argv = ["--format", "json", *argv]
        code, out, loaded = _run_in_fresh_process(*argv)
        assert code == 0, argv
        assert (code, out) == run_cli(capsys, *argv), argv
        assert not loaded, (argv, loaded)
    # The probe does see numpy when a larger call sweeps with it; numpy
    # imports inspect itself, but nothing loads dataclasses.
    for argv in (["lk", write_hopf(tmp_path, 33)], ["lk", write_hopf(tmp_path, 64)],
                 ["writhe", write_hopf(tmp_path, 46)]):
        code, out, loaded = _run_in_fresh_process(*argv)
        assert (code, loaded - {"inspect"}) == (0, {"numpy"}), argv
        assert (code, out) == run_cli(capsys, *argv), argv


# Runs one CLI call in a fresh interpreter, then reports on stderr the
# haefliger submodules it loaded, as a JSON list.
_MODULES_PROBE = (
    "import json, sys\n"
    "from haefliger.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(json.dumps(sorted(n.split('.')[1] for n in sys.modules\n"
    "                        if n.startswith('haefliger.'))), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_each_command_loads_only_the_modules_it_runs(capsys, tmp_path):
    gen = write_generator_diagram(tmp_path)
    hopf = write_hopf(tmp_path)
    base = {"cli", "errors", "_record"}
    exact = base | {"calculus", "diagram"}
    commands = [
        (["v2", "O1+U2+O3+U1+O2+U3+", "--verbose"], base | {"classical"}),
        (["jacobian", "--k", "2"], exact),
        (["e-jump", "--kind", "triple_point", "--pattern", "all_distinct"], exact),
        (["delta-h", gen, "--switch", "1,2"], exact),
        (["vfinite", gen, "--indices", "1,2,3", "--verbose"], exact),
        (["lk", hopf], base | {"linking"}),
        (["writhe", hopf], base | {"linking"}),
        (["murai-ohba", hopf], exact | {"linking"}),
        (["generator", "--k", "1"], exact | {"linking", "generator"}),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, modules in commands:
        argv = ["--format", "json", *argv]
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_PROBE, *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )
        loaded = set(json.loads(proc.stderr.splitlines()[-1]))
        assert proc.returncode == 0, argv
        assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv), argv
        assert loaded == modules, argv


def test_e_jump_choices_are_the_calculus_event_kinds_and_patterns(capsys):
    # The parser spells them out so that building it loads no calculus.
    assert cli._EVENT_KINDS == calculus.EVENT_KINDS
    assert cli._TRIPLE_PATTERNS == calculus.TRIPLE_PATTERNS
    with pytest.raises(SystemExit) as exc:
        cli.run(["e-jump", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "{" + ",".join(calculus.EVENT_KINDS) + "}" in help_text
    assert "{" + ",".join(calculus.TRIPLE_PATTERNS) + "}" in help_text
    with pytest.raises(SystemExit) as exc:
        cli.run(["e-jump", "--kind", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    # argparse lists the choices by repr or, in later versions, by str.
    listed = [", ".join(map(form, calculus.EVENT_KINDS)) for form in (repr, str)]
    assert any(f"(choose from {choices})" in err for choices in listed)


def test_lk_quadrature_count_must_not_be_negative(capsys, tmp_path):
    hopf = write_hopf(tmp_path)
    for count in ("-5", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.run(["lk", hopf, "--quadrature", count])
        assert exc.value.code == 2
        assert "not a non-negative integer" in capsys.readouterr().err
    # 0 still means no quadrature; 1 is one sample per segment.
    assert run_cli(capsys, "lk", hopf, "--quadrature", "0") == (0, "lk: 1\n")
    code, out = run_cli(capsys, "--format", "json", "lk", hopf, "--quadrature", "1")
    assert code == 0
    assert abs(json.loads(out)["quadrature"] - 1.0) < 0.1
