import json
import shutil
import subprocess

import pytest

import toricwidth.polytope
from toricwidth.cli import main
from toricwidth.fixtures import blown_up_hirzebruch, unit_square
from toricwidth.polytope import to_dict
from toricwidth.verify import CheckResult


def run(capsys, *argv: str) -> tuple[int, str]:
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def run_json(capsys, *argv: str):
    rc, out = run(capsys, *argv)
    assert rc == 0
    return json.loads(out)


def test_analyze_blowup(capsys):
    out = run_json(capsys, "analyze", "example-3.7")
    assert out["dim"] == 2
    assert out["facets"] == 6
    assert out["delzant"] is True
    assert out["smooth"] is True
    assert out["complete"] == "complete"
    assert out["strictly_convex"] is True
    assert len(out["vertices"]) == 6
    assert out["lattice_point_count"] == 10
    assert out["offset_scale_cleared"] == 1


def test_analyze_text_format(capsys):
    rc, out = run(capsys, "analyze", "example-3.7", "--format", "text")
    assert rc == 0
    assert "delzant: True" in out


def test_width_blowup_full_contract(capsys):
    out = run_json(capsys, "width", "example-3.7")
    assert out["paper_bound_pi"] == "6"
    assert out["radius_sq"] == "6"
    assert out["lu_lambda_pi"] == "8"
    assert out["fano"] == {"is_fano": False, "certificate": None}
    assert out["lu_gamma_pi"] is None
    assert out["min_bound_pi"] == "6"
    assert out["witnesses"]["lambda"] == [0, 1, 0, 1, 1, 0]
    assert out["witnesses"]["gamma"] is None
    assert out["witnesses"]["axis_maxima"] == ["4", "3"]
    assert out["witnesses"]["min_axis"] == 1
    assert out["gamma_search_bound"] is None
    assert "not monotone" in out["gamma_note"]
    assert out["vertex"] == ["0", "0"]
    assert out["denominator_scale"] == 1


def test_width_family_member(capsys):
    out = run_json(capsys, "width", "example-3.8:2")
    assert out["paper_bound_pi"] == "8"
    assert out["lu_lambda_pi"] == "44/3"
    assert out["min_bound_pi"] == "8"
    assert out["witnesses"]["lambda"] == [0, 0, 1, 1, 0, 0, 1]
    assert out["denominator_scale"] == 3


def test_width_projective_plane(capsys):
    out = run_json(capsys, "width", "cpn:2:1")
    assert out["paper_bound_pi"] == "2"
    assert out["lu_lambda_pi"] == "2"
    assert out["lu_gamma_pi"] == "2"
    assert out["min_bound_pi"] == "2"
    assert out["fano"]["is_fano"] is True
    cert = out["fano"]["certificate"]
    assert cert["r"] == "3"
    assert cert["m"] == ["-1/3", "-1/3"]
    assert cert["signs"] == [-1, -1, -1]
    assert out["gamma_search_bound"] == 6
    assert out["gamma_note"] is None


def test_width_vertex_option(capsys):
    # the cylinder coefficient depends on the chart: normalizing at the far
    # vertex (4, 3) reshapes the exponent box to maxima (2, 3)
    out = run_json(capsys, "width", "example-3.7", "--vertex", "5")
    assert out["vertex"] == ["4", "3"]
    assert out["paper_bound_pi"] == "4"
    assert out["radius_sq"] == "4"
    assert out["lu_lambda_pi"] == "8"  # vertex-independent
    assert out["min_bound_pi"] == "4"


def test_embed_outputs_exponents(capsys):
    rc, out = run(capsys, "embed", "cpn:2:1")
    assert rc == 0
    assert json.loads(out) == [[0, 0], [0, 1], [1, 0]]


def test_embed_blowup_count(capsys):
    rc, out = run(capsys, "embed", "example-3.7")
    assert rc == 0
    exps = json.loads(out)
    assert len(exps) == 10
    assert [0, 0] in exps


def test_json_file_input_matches_fixture(capsys, tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(to_dict(blown_up_hirzebruch())))
    from_file = run_json(capsys, "width", str(path))
    from_fixture = run_json(capsys, "width", "example-3.7")
    assert from_file == from_fixture


def test_json_file_input_square(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(to_dict(unit_square())))
    out = run_json(capsys, "width", str(path))
    assert out["paper_bound_pi"] == "2"
    assert out["lu_gamma_pi"] == "2"
    assert out["fano"]["is_fano"] is True


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "width", "example-3.8:5")
    _, second = run(capsys, "width", "example-3.8:5")
    assert first == second


def test_verify_passes_on_fixture(capsys):
    rc, out = run(capsys, "verify", "example-3.7", "--samples", "4")
    assert rc == 0
    assert "FAIL" not in out
    assert "pass" in out


def test_verify_json_format(capsys):
    out = run_json(capsys, "verify", "cpn:2:1", "--samples", "4", "--format", "json")
    assert out and all(row["passed"] for row in out)
    names = {row["name"] for row in out}
    assert any("cocycle" in n for n in names)
    assert any("pullback" in n for n in names)


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = [CheckResult("forced", False, 1.0, 1e-9, "synthetic failure")]
    monkeypatch.setattr("toricwidth.cli.polytope_suites", lambda P, seed, samples: failing)
    rc, out = run(capsys, "verify", "cpn:1:1")
    assert rc == 4
    assert "FAIL" in out


def test_parse_errors_exit_2(capsys, tmp_path):
    assert main(["analyze", "no-such-fixture"]) == 2
    assert main(["width", "example-3.8:0"]) == 2  # m must be >= 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dim": 2, "normals": [[1, 0]]}))
    assert main(["analyze", str(missing)]) == 2
    assert main(["width", "example-3.7", "--vertex", "99"]) == 2
    assert main(["embed", "example-3.7", "--vertex", "-1"]) == 2
    capsys.readouterr()


def test_geometry_errors_exit_3(capsys, tmp_path):
    unbounded = tmp_path / "unbounded.json"
    unbounded.write_text(
        json.dumps({"dim": 2, "normals": [[1, 0], [0, 1]], "offsets": ["0", "0"]})
    )
    assert main(["analyze", str(unbounded)]) == 3
    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps({"dim": 1, "normals": [[1], [-1]], "offsets": ["0", "1"]})
    )
    assert main(["analyze", str(empty)]) == 3
    not_delzant = tmp_path / "triangle.json"
    not_delzant.write_text(
        json.dumps({"dim": 2, "normals": [[1, 0], [0, 1], [-1, -2]], "offsets": ["0", "0", "-2"]})
    )
    assert main(["width", str(not_delzant)]) == 3
    assert main(["embed", str(not_delzant)]) == 3
    capsys.readouterr()


def test_non_simple_vertex_message_is_readable(capsys, tmp_path):
    # unit cube cut by x + y + z <= 1: the vertex (0, 0, 1) lies on 4 facets
    cut_cube = tmp_path / "cut_cube.json"
    cut_cube.write_text(
        json.dumps(
            {
                "dim": 3,
                "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0],
                            [0, 0, -1], [-1, -1, -1]],
                "offsets": ["0", "0", "0", "-1", "-1", "-1", "-1"],
            }
        )
    )
    for sub in ("analyze", "verify"):
        assert main([sub, str(cut_cube)]) == 3
        err = capsys.readouterr().err
        assert err == "error: vertex (0, 0, 1) lies on 4 facets; fan undefined\n"


@pytest.fixture
def enumerations(monkeypatch):
    """The polytopes passed to enumerate_vertices while the test runs."""
    calls = []
    real = toricwidth.polytope.enumerate_vertices
    monkeypatch.setattr(
        toricwidth.polytope, "enumerate_vertices", lambda P: calls.append(P) or real(P)
    )
    return calls


@pytest.mark.parametrize("spec", ["example-3.7", "example-3.8:2"])
@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["width"], ["width", "--vertex", "4"], ["embed"], ["embed", "--vertex", "2"],
     ["verify", "--samples", "2"]],
)
def test_one_vertex_enumeration_per_call(capsys, enumerations, spec, argv):
    assert main([argv[0], spec, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(enumerations) == 1


def test_width_on_fano_input_adds_one_enumeration(capsys, enumerations):
    # the extra one is the sign-pattern polytope of the Fano certificate
    assert run_json(capsys, "width", "cpn:2:1")["fano"]["is_fano"] is True
    assert len(enumerations) == 2


def test_rational_offsets_cleared_for_analysis(capsys):
    out = run_json(capsys, "analyze", "example-3.8:2")
    assert out["offset_scale_cleared"] == 3
    assert out["delzant"] is True
    assert ["2/3", "8/3"] in out["vertices"]


@pytest.mark.skipif(shutil.which("toricwidth") is None, reason="entry point not installed")
def test_console_script():
    proc = subprocess.run(
        ["toricwidth", "width", "example-3.7"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["paper_bound_pi"] == "6"
