import json
import math
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import toricwidth.charts
import toricwidth.cli
import toricwidth.embedding
import toricwidth.fan
import toricwidth.lattice
import toricwidth.polytope
import toricwidth.verify
import toricwidth.width
from geomgen import (
    blow_up,
    blowup_polygon,
    bounding_box,
    dilate,
    embedding_cases,
    lattice_point_ladder,
    oracle_lattice_points,
    oracle_refusal,
    oracle_sections,
    polytope_data,
    product_polytope,
    random_delzant_polygon,
    random_simple_non_delzant_polygon,
    unit_square,
)
from toricwidth.cli import main
from toricwidth.fixtures import blown_up_hirzebruch
from toricwidth.polytope import (
    HalfspacePolytope,
    NotDelzantError,
    delzant_vertices,
    is_delzant,
    lattice_points,
    normalize_at_vertex,
)
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
    assert out["volume"] == "5"
    assert out["offset_scale_cleared"] == 1


def test_analyze_text_format(capsys):
    rc, out = run(capsys, "analyze", "example-3.7", "--format", "text")
    assert rc == 0
    assert "delzant: True" in out
    assert "\nlattice_point_count: 10\nvolume: 5\noffset_scale_cleared: 1\n" in out


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


def test_embed_prints_the_oracle_points(capsys, tmp_path):
    # byte for byte what json.dumps printed of the listed exponents, n = 1 to 4
    path = tmp_path / "P.json"
    for label, P, vertices in embedding_cases():
        path.write_text(json.dumps(polytope_data(P)))
        for k in vertices:
            rc, out = run(capsys, "embed", str(path), "--vertex", str(k))
            want = json.dumps([list(J) for J in oracle_sections(P, k)])
            assert (rc, out) == (0, want + "\n"), (label, k)


def test_embed_and_verify_read_no_lattice_points(capsys, monkeypatch):
    # both read the fibres; the exponent list is the tests' alone
    P = toricwidth.cli.load_polytope("example-3.8:50")
    Q = normalize_at_vertex(P, P.vertices[0])
    listed = json.dumps([list(J) for J in lattice_points(Q)]) + "\n"
    argvs = [["embed", "example-3.8:50"], ["verify", "cpn:2:20", "--format", "json"]]
    before = [_outcome(capsys, argv) for argv in argvs]
    assert before[0] == (0, listed, "")

    def refuse(*args):
        raise AssertionError("embed and verify must not list lattice points")

    for mod in vars(toricwidth).values():
        if getattr(mod, "lattice_points", None) is lattice_points:
            monkeypatch.setattr(mod, "lattice_points", refuse)
    assert [_outcome(capsys, argv) for argv in argvs] == before


def test_json_file_input_matches_fixture(capsys, tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(polytope_data(blown_up_hirzebruch())))
    from_file = run_json(capsys, "width", str(path))
    from_fixture = run_json(capsys, "width", "example-3.7")
    assert from_file == from_fixture


def test_json_file_input_square(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(polytope_data(unit_square())))
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
    failing = [CheckResult("forced", False, 1.0, 1e-9)]
    monkeypatch.setattr("toricwidth.verify.polytope_suites", lambda P, seed, samples: failing)
    rc, out = run(capsys, "verify", "cpn:1:1")
    assert rc == 4
    assert "FAIL" in out


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, FloatingPointError])
def test_arithmetic_error_exits_3_with_one_line(capsys, monkeypatch, error):
    def overflow(P, seed, samples):
        raise error("numerical result out of range")

    monkeypatch.setattr("toricwidth.verify.polytope_suites", overflow)
    assert main(["verify", "cpn:2:1"]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {error.__name__}: numerical result out of range\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["embed", "verify"])
def test_memory_error_exits_3_with_one_line(capsys, monkeypatch, command):
    # what listing the lattice fibres of a huge polytope does under an
    # address-space limit, e.g. the degree-10^9 triangle's 10^9 fibres; the
    # walker takes the chart's columns, offsets and box
    def exhausted(columns, offsets, lo, hi):
        raise MemoryError()

    monkeypatch.setattr(toricwidth.embedding, "lattice_fibres", exhausted)
    assert main([command, "cpn:2:1"]) == 3
    assert capsys.readouterr().err == "error: MemoryError: out of memory\n"


def test_verify_high_degree_does_not_overflow(capsys):
    # 400^th powers of coordinates up to 10 leave double range; log space does not
    out = run_json(capsys, "verify", "cpn:1:400", "--format", "json")
    assert out and all(row["passed"] for row in out)


def test_verify_builds_each_chart_and_transition_once(capsys, monkeypatch, tmp_path):
    # every chart and chart change is a gather of one exact table: verify
    # builds the table once, no ChartData, and no k x k table of chart changes
    P = dilate(random_delzant_polygon(random.Random(10)), 3)  # room for the cuts
    while P.num_facets < 10:
        P = next(
            Q for v in P.vertices
            if is_delzant(Q := blow_up(P, v.active)) and len(Q.vertices) == Q.num_facets
        )
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps(polytope_data(P)))
    calls = {"chart_for_cone": 0, "chart_table": 0, "transition_map": 0}
    for name in calls:
        real = getattr(toricwidth.charts, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for mod in (toricwidth.charts, toricwidth.embedding, toricwidth.verify):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    assert main(["verify", str(path), "--samples", "2"]) == 0
    capsys.readouterr()
    assert calls == {"chart_for_cone": 0, "chart_table": 1, "transition_map": 0}
    # the chart suite on b8 x b8 (k = 64, n = 4) peaks below the size of
    # one int64 k x k table of 4 x 4 exponent matrices
    b8 = blowup_polygon(random.Random(1), 8)
    P = product_polytope(b8, b8)
    k, n = len(delzant_vertices(P)), P.dim  # the walk, before the trace
    tracemalloc.start()
    try:
        assert all(r.passed for r in toricwidth.verify.chart_suite(P))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * k * n * n * 8


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


@pytest.mark.parametrize(
    "spec, cause",
    [("example-3.8:0", "m must be a positive integer"),
     ("cpn:0:1", "need n >= 1 and degree >= 1"),
     ("cpn:2:x", "parameter 'x' is not an integer")],
)
def test_bad_fixture_parameter_names_the_cause(capsys, monkeypatch, tmp_path, spec, cause):
    assert main(["width", spec]) == 2
    assert capsys.readouterr().err == f"error: fixture {spec!r}: {cause}\n"
    assert main(["width", "no-such-fixture"]) == 2
    assert capsys.readouterr().err == "error: not a fixture name and not a file: 'no-such-fixture'\n"
    # a file of that name is still read
    monkeypatch.chdir(tmp_path)
    (tmp_path / spec).write_text(json.dumps(polytope_data(unit_square())))
    assert main(["width", spec]) == 0
    assert json.loads(capsys.readouterr().out)["min_bound_pi"] == "2"


@pytest.mark.parametrize(
    "dim, normal",
    [(2, [1.5, 0]), (2, [True, 0]), (2.7, [1, 0]),
     (2, [math.inf, 0]), (2, [-math.inf, 0]), (math.inf, [1, 0]), (-math.inf, [1, 0])],
    ids=["fractional-normal", "boolean-normal", "fractional-dim",
         "infinite-normal", "negative-infinite-normal", "infinite-dim", "negative-infinite-dim"],
)
@pytest.mark.parametrize("sub", ["analyze", "width", "embed", "verify"])
def test_non_integral_input_is_a_parse_error(capsys, tmp_path, sub, dim, normal):
    # int() would truncate the finite ones to a different, valid polytope,
    # and refuses the infinite ones with an OverflowError
    path = tmp_path / "square.json"
    data = {"dim": dim, "normals": [normal, [0, 1], [-1, 0], [0, -1]],
            "offsets": ["0", "0", "-1", "-1"]}
    path.write_text(json.dumps(data))
    assert main([sub, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {str(path)!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("sub", ["analyze", "width", "embed", "verify"])
def test_directory_input_is_a_parse_error(tmp_path, sub):
    # run as a process, so an exception escaping main shows as a traceback;
    # JSON nested past the parser's recursion limit is no more parseable
    # than a directory, at the top level or inside "normals"
    src = Path(toricwidth.cli.__file__).resolve().parents[1]
    deep = "[" * 100_000 + "]" * 100_000
    (tmp_path / "deep.json").write_text(deep)
    (tmp_path / "deep-normals.json").write_text(
        f'{{"dim": 2, "normals": {deep}, "offsets": ["0"]}}')
    for path in (tmp_path, tmp_path / "deep.json", tmp_path / "deep-normals.json"):
        proc = subprocess.run(
            [sys.executable, "-m", "toricwidth.cli", sub, str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot parse {str(path)!r}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_embed_into_a_pipe_closed_early_exits_quietly():
    # as `embed cpn:3:40 | head -c 10`: the reader takes 10 of about 150 kB,
    # more than a pipe holds, and closes its end while embed still writes
    src = Path(toricwidth.cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricwidth.cli", "embed", "cpn:3:40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.read(10) == b"[[0, 0, 0]"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_needs_a_sample(capsys, samples):
    assert main(["verify", "example-3.7", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1 (got {samples})\n"


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
        assert err == "error: vertex (0, 0, 1) lies on 4 facets\n"


def test_analyze_names_the_vertex_of_the_input_polytope(capsys, tmp_path):
    # the cut cube at half size: the refusal names the vertex of P itself, not
    # that of qP
    half = tmp_path / "half_cube.json"
    half.write_text(
        json.dumps(
            {
                "dim": 3,
                "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0],
                            [0, 0, -1], [-1, -1, -1]],
                "offsets": ["0", "0", "0", "-1/2", "-1/2", "-1/2", "-1/2"],
            }
        )
    )
    for sub in ("analyze", "verify"):
        assert main([sub, str(half)]) == 3
        assert capsys.readouterr().err == "error: vertex (0, 0, 1/2) lies on 4 facets\n"


def test_every_command_refuses_a_non_delzant_polytope_in_one_line(capsys, tmp_path):
    # the cut cube (not simple), its half (whose vertex is not that of qP), the
    # triangle with a det-2 corner, its prism over [0, 1] and simple polygons
    # with a det-2 corner: each command names the first vertex of P.vertices
    # that the oracle rejects
    cube = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, -1)]
    inputs = [
        HalfspacePolytope(cube, (0, 0, 0, -1, -1, -1, -1)),
        HalfspacePolytope(cube, (0, 0, 0) + (Fraction(-1, 2),) * 4),
        HalfspacePolytope(((1, 0), (0, 1), (-1, -2)), (0, 0, -2)),
        HalfspacePolytope(
            ((1, 0, 0), (0, 1, 0), (-1, -2, 0), (0, 0, 1), (0, 0, -1)), (0, 0, -2, 0, -1)
        ),
    ]
    assert [oracle_refusal(P) for P in inputs] == [
        "vertex (0, 0, 1) lies on 4 facets",
        "vertex (0, 0, 1/2) lies on 4 facets",
        "normals at (0, 1) do not form a Z-basis",
        "normals at (0, 1, 0) do not form a Z-basis",
    ]
    rng = random.Random(35)
    inputs += [random_simple_non_delzant_polygon(rng) for _ in range(10)]
    path = tmp_path / "P.json"
    for P in inputs:
        want = oracle_refusal(P)
        assert want is not None
        path.write_text(json.dumps(polytope_data(P)))
        # the gate comes before the range check of --vertex
        argvs = [["analyze"], ["width"], ["embed"], ["verify"], ["width", "--vertex", "99"],
                 ["embed", "--vertex", "99"]]
        for sub, *rest in argvs:
            assert main([sub, str(path), *rest]) == 3
            assert capsys.readouterr() == ("", f"error: {want}\n"), (sub, rest, want)


@pytest.fixture
def enumerations(monkeypatch):
    """The polytopes passed to enumerate_vertices while the test runs."""
    calls = []
    real = toricwidth.polytope.enumerate_vertices
    monkeypatch.setattr(
        toricwidth.polytope, "enumerate_vertices", lambda P: calls.append(P) or real(P)
    )
    return calls


# cpn:2:1 is monotone, so width also rechecks its Fano certificate
@pytest.mark.parametrize("spec", ["example-3.7", "example-3.8:2", "cpn:2:1"])
@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["width"], ["width", "--vertex", "2"], ["embed"], ["embed", "--vertex", "2"],
     ["verify", "--samples", "2"]],
)
def test_one_vertex_enumeration_per_call(capsys, enumerations, spec, argv):
    assert main([argv[0], spec, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(enumerations) == 1


# the input alone: the chart at a vertex is read off the walk, and no
# dilated copy qP is built: q = 51 on example-3.8:50 and q = 1 on cpn:3:10
@pytest.mark.parametrize("spec", ["example-3.8:50", "cpn:3:10"])
@pytest.mark.parametrize("argv", [["embed"], ["verify", "--samples", "1"]])
def test_embed_and_verify_build_one_polytope(capsys, monkeypatch, spec, argv):
    built = []
    real = toricwidth.polytope.HalfspacePolytope.__post_init__
    monkeypatch.setattr(
        toricwidth.polytope.HalfspacePolytope,
        "__post_init__",
        lambda self: built.append(self) or real(self),
    )
    assert main([argv[0], spec, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_width_reads_no_lattice_points(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("width must not enumerate lattice points or sections")

    for mod in (toricwidth.width, toricwidth.embedding, toricwidth.polytope, toricwidth.cli):
        for name in ("sections_by_polytope", "lattice_points"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    out = run_json(capsys, "width", "example-3.8:50")
    assert out["paper_bound_pi"] == "8" and out["denominator_scale"] == 51


def test_analyze_reads_no_lattice_points(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("analyze must not enumerate fibres or lattice points")

    for mod in (toricwidth.polytope, toricwidth.embedding, toricwidth.cli):
        for name in ("lattice_fibres", "lattice_points"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    counts = {"example-3.8:50": (18, "31210/2601"), "cpn:3:20": (1771, "4000/3"),
              "cpn:4:6": (210, "54")}
    for spec, (count, volume) in counts.items():
        out = run_json(capsys, "analyze", spec)
        assert (out["lattice_point_count"], out["volume"]) == (count, volume)


def test_analyze_width_and_embed_read_unimodularity_off_the_walk(capsys, monkeypatch, tmp_path):
    # no elimination beyond the vertex enumeration's, so no Z-basis test,
    # inverse, smoothness test or Fano solve of their own
    path = tmp_path / "P.json"
    path.write_text(json.dumps(HUGE_BOX_INPUTS["parallelogram-2^62"][0]))
    specs = ["example-3.7", "example-3.8:50", "cpn:3:10", "cpn:4:3", str(path)]
    argvs = [[cmd, spec] for spec in specs for cmd in ("analyze", "width", "embed")]
    argvs += [["analyze", spec, "--format", "text"] for spec in specs[:2]]
    argvs += [["width", "example-3.8:50", "--vertex", "5"], ["embed", "cpn:3:10", "--vertex", "3"]]
    before = [_outcome(capsys, argv) for argv in argvs]
    assert all(rc == 0 and err == "" for rc, _, err in before)
    eliminations = 0
    eliminate = toricwidth.lattice._eliminate

    def counted(*args):
        nonlocal eliminations
        eliminations += 1
        return eliminate(*args)

    for mod in (toricwidth.lattice, toricwidth.polytope):
        monkeypatch.setattr(mod, "_eliminate", counted)
    for argv, want in zip(argvs, before):
        eliminations = 0
        toricwidth.polytope.enumerate_vertices(toricwidth.cli.load_polytope(argv[1]))
        vertices = eliminations
        eliminations = 0
        assert _outcome(capsys, argv) == want, argv
        assert eliminations == vertices, argv


def test_verify_eliminates_only_in_the_start(capsys, monkeypatch, tmp_path):
    # the facets workload's 11-facet polygon, drawn with polygon_rng(1, 11, 0):
    # the walk reaches each vertex by a pivot, and the fan, the charts and the
    # exact checks take U^-1 off the walked vertices, so verify runs the
    # start's one elimination and no other
    path = tmp_path / "p11.json"
    path.write_text(json.dumps(polytope_data(blowup_polygon(random.Random(100011), 11))))
    calls = []
    real = toricwidth.lattice._eliminate
    for mod in (toricwidth.lattice, toricwidth.polytope):
        monkeypatch.setattr(mod, "_eliminate", lambda *a: calls.append(a) or real(*a))
    toricwidth.polytope.enumerate_vertices(toricwidth.cli.load_polytope(str(path)))
    start = len(calls)
    calls.clear()
    assert main(["verify", str(path), "--samples", "1"]) == 0
    capsys.readouterr()
    assert start == len(calls) == 1


# empty or unbounded inputs and the one-line cause each subcommand gives; the
# first spans R^2 with its normals, so it is empty as no vertex is feasible;
# the second does not, but its slice by the missing direction is empty too;
# the open square pyramid is pointed at its apex 0 and recedes along a ray
UNUSABLE_INPUTS = {
    "pointed-empty": ([[1, 0], [-1, 0], [0, 1]], ["0", "1", "0"], "no feasible vertex"),
    "empty-strip": ([[1, 0], [-1, 0]], ["0", "1"], "no feasible vertex"),
    "strip": ([[1, 0], [-1, 0]], ["0", "-1"], "recession direction (0, 1)"),
    "quadrant": ([[1, 0], [0, 1]], ["0", "0"], "recession direction (1, 0)"),
    "open-square-pyramid": (
        [[0, 1, -1], [1, 0, -1], [0, -1, -1], [-1, 0, -1]], ["0", "0", "0", "0"],
        "recession direction (-1, 1, -1)",
    ),
}


@pytest.mark.parametrize("sub", ["analyze", "width", "embed", "verify"])
@pytest.mark.parametrize("name", UNUSABLE_INPUTS)
def test_empty_and_unbounded_inputs_name_the_cause(capsys, tmp_path, sub, name):
    normals, offsets, message = UNUSABLE_INPUTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim": len(normals[0]), "normals": normals, "offsets": offsets}))
    assert _outcome(capsys, [sub, str(path)]) == (3, "", f"error: {message}\n")


# inputs whose bounding box is far too large to scan: the triangle of degree
# 10^12, and the parallelograms with normal (1, 2^40) and (1, 2^62), unimodular
# images of the unit square
HUGE_BOX_INPUTS = {
    "triangle-1e12": (
        {"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]], "offsets": ["0", "0", "-1000000000000"]},
        (10**12 + 1) * (10**12 + 2) // 2, str(10**24 // 2),
    ),
    **{
        f"parallelogram-2^{e}": (
            {"dim": 2, "normals": [[1, 2**e], [0, 1], [-1, -(2**e)], [0, -1]],
             "offsets": ["0", "0", "-1", "-1"]},
            4, "1",
        )
        for e in (40, 62)
    },
}


@pytest.mark.parametrize("name", HUGE_BOX_INPUTS)
def test_analyze_is_exact_on_huge_boxes(capsys, tmp_path, name):
    data, count, volume = HUGE_BOX_INPUTS[name]
    path = tmp_path / "P.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert (out["lattice_point_count"], out["volume"]) == (count, volume)


def test_analyze_counts_lattice_points_of_the_ladder(capsys, tmp_path):
    path = tmp_path / "P.json"
    for P in lattice_point_ladder():
        path.write_text(json.dumps(polytope_data(P)))
        out = run_json(capsys, "analyze", str(path))
        assert out["lattice_point_count"] == len(oracle_lattice_points(P))


def test_analyze_solves_once_per_facet_pair_and_cone(capsys, monkeypatch, tmp_path):
    # the benchmark's 16-facet polygon, drawn with polygon_rng(1, 16, 0)
    path = tmp_path / "p16.json"
    path.write_text(json.dumps(polytope_data(blowup_polygon(random.Random(100016), 16))))
    # the edge walk solves in integers, and strict convexity follows from the
    # walked vertices, so no rational solve, linear part or convexity test runs
    calls = {"solve_rational": [], "cone_linear_parts": [], "is_strictly_convex": []}
    for name, mod in (("solve_rational", toricwidth.lattice),
                      ("cone_linear_parts", toricwidth.fan),
                      ("is_strictly_convex", toricwidth.fan)):
        real = getattr(mod, name)
        for m in vars(toricwidth).values():
            if getattr(m, name, None) is real:
                monkeypatch.setattr(
                    m, name, lambda *a, _real=real, _name=name: calls[_name].append(a) or _real(*a)
                )
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["strictly_convex"] is True
    assert calls == {"solve_rational": [], "cone_linear_parts": [], "is_strictly_convex": []}


def _outcome(capsys, argv, run=None):
    """(exit code, stdout, stderr) of main(argv), or of run(argv), argparse's
    exits included."""
    try:
        rc = (run or main)(argv)
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    build_parser = toricwidth.cli.build_parser
    assert build_parser() is build_parser()
    # successes and parse errors mixed, so state one call left in the shared
    # parser would show in the next
    sequence = [
        ["analyze", "example-3.7"],
        ["frobnicate", "example-3.7"],
        ["analyze", "example-3.8:2", "--format", "text"],
        ["width"],
        ["width", "example-3.7", "--vertex", "5"],
        ["width", "example-3.7", "--format", "xml"],
        ["width", "cpn:2:1", "--vertex", "1", "--format", "text"],
        ["verify", "cpn:2:1", "--samples", "0"],
        ["embed", "example-3.7", "--vertex", "2"],
        ["width", "example-3.7", "--vertex", "99"],
        ["embed", "cpn:2:1"],
        [],
        ["verify", "cpn:1:2", "--samples", "1", "--format", "json"],
        ["embed", "cpn:2:1", "--vertex", "x"],
        ["verify", "cpn:2:1", "--samples", "2", "--seed", "3"],
        ["analyze", "example-3.7", "--format", "text"],
    ]
    shared = [_outcome(capsys, argv) for argv in sequence]
    assert {rc for rc, _, _ in shared} == {0, 2}
    monkeypatch.setattr(toricwidth.cli, "build_parser", build_parser.__wrapped__)
    assert toricwidth.cli.build_parser() is not toricwidth.cli.build_parser()
    assert [_outcome(capsys, argv) for argv in sequence] == shared


# argv that main reads without argparse, each answering as parse_args does
OPTION_ARGV = [
    ["verify", "cpn:2:1", "--seed", "3", "--samples", "2", "--format", "json"],
    ["verify", "cpn:2:1", "--format", "json", "--samples", "2", "--seed", "3"],
    ["verify", "example-3.7", "--samples", "1", "--format", "text"],
    ["width", "example-3.7", "--vertex", "2"],
    ["width", "cpn:2:1", "--format", "text", "--vertex", "1"],
    ["analyze", "example-3.7", "--format", "text"],
    ["embed", "cpn:2:1", "--vertex", "2"],
]

DISPATCH_CASES = [
    ["analyze", "example-3.7", "--bogus"],  # the top-level usage, not analyze's
    ["analyze", "-h"],
    ["-h"],
    [],
    ["verify", "cpn:2:1", "--seed"],
    ["verify", "cpn:2:1", "--form", "json"],
    ["analyze", "a", "b"],
    ["analyze", "--", "example-3.7"],
    ["frobnicate"],
    # a name and one argument not starting with "-" skip argparse in main
    ["analyze", "example-3.7"],
    ["width", "cpn:2:1"],
    ["embed", "cpn:2:1"],
    # and so do pairs "--option value" of the subcommand's own options
    *OPTION_ARGV,
    # spelled in full, each value passing its type and choices and not
    # starting with "-"; a repeated option keeps its last value in both
    ["verify", "cpn:2:1", "--se", "1", "--samples", "2"],
    ["verify", "cpn:2:1", "--seed=1", "--samples", "2"],
    ["verify", "cpn:2:1", "--samples", "3", "--samples", "2"],
    ["verify", "cpn:2:1", "--seed", "x"],
    ["verify", "cpn:2:1", "--seed", "1.5"],
    ["verify", "cpn:2:1", "--format", "xml"],
    ["verify", "cpn:2:1", "--seed", "-1", "--samples", "2"],
    ["verify", "cpn:2:1", "--seed", "-1_0"],  # int() reads it, argparse takes an option
    ["verify", "cpn:2:1", "--samples", "2", "-h"],
    ["verify", "cpn:2:1", "--", "--samples", "2"],
    ["verify", "--samples", "2", "cpn:2:1"],
    ["embed", "cpn:2:1", "--format", "json"],
    ["width", "example-3.7", "--vertex"],
]


@pytest.mark.parametrize("fresh", [False, True])
def test_dispatch_answers_like_the_nested_parser(capsys, monkeypatch, fresh):
    # main's dispatch against the parser's own parse_args and the command it
    # picks, on the shared parser and on a fresh one
    if fresh:
        monkeypatch.setattr(toricwidth.cli, "build_parser", toricwidth.cli.build_parser.__wrapped__)

    def nested(argv):
        args = toricwidth.cli.build_parser().parse_args(argv)
        return args.func(args)

    for argv in DISPATCH_CASES:
        want = _outcome(capsys, argv, nested)
        assert _outcome(capsys, argv) == want, argv
        assert want[0] in (0, 2)


def test_option_argv_skips_argparse(capsys, monkeypatch):
    # main answers OPTION_ARGV with the parser's parse_args unused
    wants = [_outcome(capsys, argv) for argv in OPTION_ARGV]
    assert {rc for rc, _, _ in wants} == {0}

    def refuse(argv):
        raise AssertionError(f"parse_args called on {argv}")

    monkeypatch.setattr(toricwidth.cli.build_parser(), "parse_args", refuse)
    assert [_outcome(capsys, argv) for argv in OPTION_ARGV] == wants


@pytest.mark.parametrize("argv", [["embed", "example-3.8:30"], ["analyze", "cpn:3:20"]])
def test_embed_and_analyze_test_no_box_point(capsys, monkeypatch, argv):
    # no box point is tested: the polytope's dot products, one per point and
    # facet in a box scan, run at most once per prefix of the embedding's box
    # and facet; the walk of lattice_fibres carries residuals instead, so
    # neither command runs one
    calls = []
    real = toricwidth.polytope.dot
    monkeypatch.setattr(toricwidth.polytope, "dot", lambda u, v: calls.append(u) or real(u, v))
    assert main(argv) == 0
    capsys.readouterr()
    if argv[0] == "analyze":
        assert calls == []
        return
    P = toricwidth.cli.load_polytope(argv[1])
    Q = normalize_at_vertex(P, P.vertices[0])
    lo, hi = bounding_box(Q)
    prefixes = math.prod(b - a + 1 for a, b in zip(lo[:-1], hi[:-1]))
    assert len(calls) <= prefixes * Q.num_facets < prefixes * (hi[-1] - lo[-1] + 1)
    assert calls == []


@pytest.mark.parametrize("sub", ["analyze", "width", "embed", "verify"])
def test_bounded_inputs_make_no_recession_search(capsys, monkeypatch, tmp_path, sub):
    # the edge walk proves these bounded, with no search of its own
    p16 = tmp_path / "p16.json"
    p16.write_text(json.dumps(polytope_data(blowup_polygon(random.Random(100016), 16))))
    calls = []
    real = toricwidth.polytope.recession_direction
    for mod in vars(toricwidth).values():
        if getattr(mod, "recession_direction", None) is real:
            monkeypatch.setattr(mod, "recession_direction", lambda P: calls.append(P) or real(P))
    for spec in ("example-3.7", str(p16)):
        assert main([sub, spec, *(["--samples", "2"] if sub == "verify" else [])]) == 0
    capsys.readouterr()
    assert calls == []


def test_fano_check_makes_no_elimination_in_width(capsys, monkeypatch):
    # cpn:2:1 is monotone, so its certificate is read off the walk and
    # rechecked, both without an elimination: width makes only the walk's
    inside, calls, walks = [], [], []
    real_check, real_eliminate = toricwidth.width.fano_check, toricwidth.lattice._eliminate

    def check(P):
        inside.append(P)
        try:
            return real_check(P)
        finally:
            inside.pop()

    def eliminate(A, width):
        (calls if inside else walks).append(A)
        return real_eliminate(A, width)

    monkeypatch.setattr(toricwidth.width, "fano_check", check)
    for mod in (toricwidth.lattice, toricwidth.polytope):
        monkeypatch.setattr(mod, "_eliminate", eliminate)
    out = run_json(capsys, "width", "cpn:2:1")
    assert out["fano"]["is_fano"] is True
    assert len(calls) == 0 and len(walks) == 1


def test_width_walks_the_delzant_gate_once(capsys, monkeypatch, tmp_path):
    # width passes the gate three times (its vertex, width_report and
    # fano_check) and keeps the verdict on P: _refusal runs once per vertex
    # of a Delzant P, and up to the first refused vertex of another, whose
    # refusal every later gate on P raises again
    calls = []
    real = toricwidth.polytope._refusal
    monkeypatch.setattr(toricwidth.polytope, "_refusal", lambda v, n: calls.append(v) or real(v, n))
    for spec in ("example-3.7", "cpn:2:1", "example-3.8:2"):
        calls.clear()
        assert main(["width", spec]) == 0
        capsys.readouterr()
        assert len(calls) == len(toricwidth.cli.load_polytope(spec).vertices)
    P = HalfspacePolytope(((1, 0), (0, 1), (-1, -2)), (0, 0, -2))
    path = tmp_path / "P.json"
    path.write_text(json.dumps(polytope_data(P)))
    calls.clear()
    assert main(["width", str(path)]) == 3
    assert capsys.readouterr().err == "error: normals at (0, 1) do not form a Z-basis\n"
    assert len(calls) == [v.point for v in P.vertices].index((0, 1)) + 1
    calls.clear()
    for _ in range(3):
        with pytest.raises(NotDelzantError, match=r"^normals at \(0, 1\) do not form a Z-basis$"):
            delzant_vertices(P)
    assert len(calls) == 2


def test_verify_walks_the_delzant_gate_once(capsys, monkeypatch):
    # the chart table reads the walked vertices behind verify's one gate, and
    # the embedding's vertex_chart checks its own vertex: _refusal runs once
    # per vertex and once more, in every module that binds it
    calls = []
    real = toricwidth.polytope._refusal
    for m in vars(toricwidth).values():
        if getattr(m, "_refusal", None) is real:
            monkeypatch.setattr(m, "_refusal", lambda v, n: calls.append(v) or real(v, n))
    assert main(["verify", "example-3.8:2"]) == 0
    capsys.readouterr()
    assert len(toricwidth.cli.load_polytope("example-3.8:2").vertices) == 7
    assert len(calls) == 8


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
