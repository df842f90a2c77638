"""One rule across the exact layer: an integral value is a Python int, and
only a value that is not an integer is a Fraction, from the JSON parse to
the printed answer."""

import json
import os
import random
from fractions import Fraction

import pytest

import toricwidth.cli
import toricwidth.polytope
from geomgen import (
    blowup_polygon,
    dilate,
    fibre_count,
    oracle_cylinder_bound,
    oracle_lu_lambda,
    oracle_polygon_area,
    oracle_vertices,
    polytope_data,
    product_polytope,
    random_delzant_polygon,
    random_delzant_polytope,
    unit_square,
)
from toricwidth.cli import ParseFailure, load_polytope, main
from toricwidth.fixtures import projective_space, resolve_fixture
from toricwidth.lattice import dot
from toricwidth.polytope import HalfspacePolytope, from_dict, vertex_sums
from toricwidth.width import cylinder_bound, lu_lambda

TRIANGLE = [[1, 0], [0, 1], [-1, -1]]


def assert_exact(x):
    """x is an int, or a Fraction that is not an integer; never a float or
    a bool."""
    assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


def count_fractions(monkeypatch) -> list:
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


@pytest.mark.parametrize(
    "name, commands",
    [
        # a facets-workload polygon and the paper's Example 3.7, neither
        # monotone, and cpn:3:6, which is, so width builds its certificate;
        # every value analyze prints is an integer on each, the volume too
        ("b8", ("analyze", "width", "embed")),
        ("example-3.7", ("analyze", "width", "embed")),
        ("cpn:3:6", ("analyze", "embed")),
    ],
)
def test_integral_file_inputs_build_no_fraction(capsys, monkeypatch, tmp_path, name, commands):
    P = blowup_polygon(random.Random(1), 8) if name == "b8" else resolve_fixture(name)
    path = tmp_path / "P.json"
    path.write_text(json.dumps(polytope_data(P)))
    # the per-dimension constants of the volume's Todd terms are cached
    # Fractions, built on the first analyze in a dimension
    toricwidth.polytope._todd_terms(P.dim)
    for command in commands:
        built = count_fractions(monkeypatch)
        assert main([command, str(path)]) == 0
        out = capsys.readouterr().out
        assert built == [], (command, built[:5])
        monkeypatch.undo()
        assert main([command, str(path)]) == 0
        assert capsys.readouterr().out == out


def exactness_generators():
    rng = random.Random(46)
    base = [random_delzant_polygon(rng) for _ in range(8)]
    base += [blowup_polygon(random.Random(d), d) for d in range(4, 11)]
    base += [random_delzant_polytope(random.Random(seed), n) for n in (3, 4) for seed in range(3)]
    base += [projective_space(n, k) for n, k in ((1, 3), (2, 1), (3, 2), (4, 1))]
    base += [
        product_polytope(unit_square(), projective_space(2, 2)),
        product_polytope(blowup_polygon(random.Random(1), 5), projective_space(1, 1)),
    ]
    dilates = [dilate(P, Fraction(5, 3)) for P in base[::2]]
    parallelogram = HalfspacePolytope(((1, 2**62), (0, 1), (-1, -(2**62)), (0, -1)), (0, 0, -1, -1))
    fixtures = [resolve_fixture(f"example-3.8:{m}") for m in (1, 2, 5, 50)]
    return base + dilates + [parallelogram, resolve_fixture("example-3.7")] + fixtures


def test_every_exact_value_is_an_int_or_a_fraction_equal_to_its_fraction_oracle():
    """Vertex points, slacks, offsets, the cylinder and Lambda bounds and the
    vertex sums, each through the JSON parse, against oracles that compute
    in Fractions."""
    for given in exactness_generators():
        P = from_dict(json.loads(json.dumps(polytope_data(given))))
        assert P.offsets == given.offsets
        for l in P.offsets:
            assert_exact(l)
        q = P.integer_offsets[0]
        oracle = oracle_vertices(P)
        assert [(v.point, v.active) for v in P.vertices] == [(w.point, w.active) for w in oracle]
        for v, w in zip(P.vertices, oracle):
            for c in v.point:
                assert_exact(c)
            for s, u, l in zip(v.slacks, P.normals, P.offsets):
                assert_exact(s)
                assert s == q * (dot(w.point, u) - Fraction(l))
            cyl = cylinder_bound(P, v)
            assert cyl == oracle_cylinder_bound(P, v)
            for x in (cyl.coefficient_pi, *cyl.axis_maxima):
                assert_exact(x)
        lam = lu_lambda(P)
        assert_exact(lam.coefficient_pi)
        want = 2 * -sum(Fraction(l) * a for l, a in zip(P.offsets, lam.witness))
        assert lam.coefficient_pi == want
        if P.dim == 2 and P.num_facets <= 7:
            assert (lam.coefficient_pi, lam.witness) == oracle_lu_lambda(P)
        count, volume = vertex_sums(P)
        assert type(count) is int
        assert_exact(volume)
        if P.dim == 2:
            assert volume == oracle_polygon_area(P)
            if max(abs(x) for u in P.normals for x in u) < 2**40:  # not the parallelogram's box
                assert count == fibre_count(P)


# each offset string or JSON value of the corpus, in the third offset of the
# triangle: from_dict takes it as Fraction(str(l)) does, to the same value,
# or refuses it with Fraction's message
OFFSET_CORPUS = [
    "-0", "+7", " 7 ", "7_000", "--7", "-٣", "7.0", "7e0", "14/2", "Infinity", "nan", "",
    "true", "null", "7.5", "2**70", "+-7", "-", "\x1c-3", "1" * 4400,
    True, None, 7.5, 7.0, float("inf"), float("nan"), 2**70, -(2**70), -3,
]


@pytest.mark.parametrize("value", OFFSET_CORPUS, ids=repr)
def test_from_dict_parses_an_offset_as_fraction_of_its_string(value):
    data = json.loads(json.dumps({"dim": 2, "normals": TRIANGLE, "offsets": ["0", "0", value]}))
    try:
        want = Fraction(str(data["offsets"][2]))
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            from_dict(data)
        assert str(got.value) == f"malformed polytope data: {e}"
        return
    got = from_dict(data).offsets[2]
    assert got == want and type(got) in (int, Fraction)
    # a JSON int and a string of decimal digits after one sign are parsed as ints
    text = str(value)
    if type(value) is int or (text[1:] if text[:1] in "+-" else text).isdecimal():
        assert type(got) is int


def test_load_polytope_opens_first_and_keeps_its_three_messages(monkeypatch, tmp_path):
    path = tmp_path / "P.json"
    path.write_text(json.dumps({"dim": 2, "normals": TRIANGLE, "offsets": ["0", "0", "-2"]}))

    def refuse(p):
        raise AssertionError("a file that opens needs no existence test")

    with monkeypatch.context() as m:
        m.setattr(os.path, "exists", refuse)
        assert load_polytope(str(path)).offsets == (0, 0, -2)
    directory, missing, inner = str(tmp_path), str(tmp_path / "missing.json"), str(path / "inner")
    for spec, message in [
        (missing, f"not a fixture name and not a file: {missing!r}"),
        (directory, f"cannot parse {directory!r}: [Errno 21] Is a directory: {directory!r}"),
        # a path through a regular file: open raises NotADirectoryError
        (inner, f"not a fixture name and not a file: {inner!r}"),
        ("cpn:x:1", "fixture 'cpn:x:1': parameter 'x' is not an integer"),
        ("example-3.8:0", "fixture 'example-3.8:0': m must be a positive integer"),
        ("nope", "not a fixture name and not a file: 'nope'"),
    ]:
        with pytest.raises(ParseFailure) as got:
            load_polytope(spec)
        assert str(got.value) == message
    # a fixture-like name that is also a file is read as the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cpn:x:1").write_text(path.read_text())
    assert load_polytope("cpn:x:1").offsets == (0, 0, -2)
    assert toricwidth.cli.main(["analyze", "cpn:x:1"]) == 0
