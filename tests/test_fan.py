import json
import random
from fractions import Fraction

import pytest

from geomgen import (
    blow_up,
    blowup_polygon,
    dilate,
    hirzebruch,
    lattice_point_ladder,
    oracle_cones_meet_in_faces,
    oracle_is_complete,
    oracle_is_smooth,
    oracle_is_strictly_convex,
    oracle_refusal,
    polytope_data,
    polytope_from_support,
    product_polytope,
    random_delzant_polygon,
    random_simple_non_delzant_polygon,
    unit_square,
)
from toricwidth.cli import main
from toricwidth.fan import Fan, cone_linear_parts, is_strictly_convex, normal_fan
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    iterated_plane_blowup,
    projective_space,
)
from toricwidth.lattice import solve_rational
from toricwidth.polytope import (
    HalfspacePolytope,
    NotDelzantError,
    is_delzant,
)

CP2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


def test_fan_validation():
    assert oracle_cones_meet_in_faces(CP2_FAN)
    # overlapping cones are not a fan
    assert not oracle_cones_meet_in_faces(Fan(((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2))))


def test_is_smooth():
    assert oracle_is_smooth(CP2_FAN)
    assert not oracle_is_smooth(Fan(((1, 0), (1, 2)), ((0, 1),)))
    assert not oracle_is_smooth(Fan(((1, 0), (0, 1)), ((0,), (1,))))
    # is_strictly_convex refuses a fan without cone inverses, as one built by hand
    with pytest.raises(ValueError):
        is_strictly_convex(Fan(((1, 0), (0, 1)), ((0,), (1,))), (0, 0))


def test_completeness_2d():
    assert oracle_is_complete(CP2_FAN)
    assert not oracle_is_complete(Fan(((1, 0), (0, 1)), ((0, 1),)))
    # all four quadrants
    quadrants = Fan(
        ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    assert oracle_is_complete(quadrants)
    assert oracle_cones_meet_in_faces(quadrants)
    # remove one quadrant
    assert not oracle_is_complete(
        Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3)))
    )


def test_completeness_1d():
    assert oracle_is_complete(Fan(((1,), (-1,)), ((0,), (1,))))
    assert not oracle_is_complete(Fan(((1,),), ((0,),)))
    assert oracle_is_complete(normal_fan(projective_space(1, 3)))


def test_normal_fan_simplex():
    F = normal_fan(projective_space(2, 1))
    assert F.generators == ((1, 0), (0, 1), (-1, -1))
    assert set(F.max_cones) == {(0, 1), (0, 2), (1, 2)}


def test_normal_fan_rejects_non_simple():
    P = HalfspacePolytope(
        ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)), (0, 0, -1, -1, -2)
    )
    with pytest.raises(NotDelzantError):
        normal_fan(P)


def test_smooth_iff_delzant():
    rng = random.Random(31)
    for _ in range(15):
        P = random_delzant_polygon(rng)
        assert oracle_is_smooth(normal_fan(P)) == is_delzant(P) == True
    for _ in range(15):
        P = random_simple_non_delzant_polygon(rng)
        assert oracle_is_smooth(normal_fan(P)) == is_delzant(P) == False


def test_polytope_from_support_roundtrip():
    for P in (unit_square(), blown_up_hirzebruch(), hirzebruch(), projective_space(3, 2)):
        F = normal_fan(P)
        g = P.integer_offsets[1]
        assert polytope_from_support(F, g) == P


def test_cone_linear_parts_are_vertices():
    P = blown_up_hirzebruch()
    F = normal_fan(P)
    g = P.integer_offsets[1]
    parts = cone_linear_parts(F, g)
    from toricwidth.polytope import enumerate_vertices

    vertex_points = {v.point for v in enumerate_vertices(P)}
    assert set(parts.values()) == vertex_points


def test_cone_linear_parts_match_a_rational_solve():
    rng = random.Random(6)
    cube = product_polytope(*(projective_space(1, 2),) * 3)
    polytopes = [random_delzant_polygon(rng) for _ in range(8)] + [
        blown_up_hirzebruch(),
        blowup_polygon(random.Random(100016), 16),
        cube,
        blow_up(cube, cube.vertices[0].active),
        *(projective_space(n, 2) for n in (1, 2, 3, 4)),
    ]
    for P in polytopes:
        F = normal_fan(P)
        for g in [P.integer_offsets[1]] + [
            tuple(rng.randint(-9, 9) for _ in F.generators) for _ in range(5)
        ]:
            parts = cone_linear_parts(F, g)
            assert list(parts) == list(F.max_cones)
            for c, h in parts.items():
                assert h == solve_rational([F.generators[i] for i in c], [g[i] for i in c])
                assert all(type(x) is int for x in h)
    # a fan with a cone that is not unimodular has no integer linear parts
    P = random_simple_non_delzant_polygon(random.Random(4))
    with pytest.raises(ValueError, match="^fan must be smooth$"):
        cone_linear_parts(normal_fan(P), P.integer_offsets[1])


def test_strict_convexity():
    P = projective_space(2, 1)
    F = normal_fan(P)
    assert is_strictly_convex(F, P.integer_offsets[1])
    # zero support function: all linear parts agree
    assert not is_strictly_convex(F, (0, 0, 0))
    # {x >= 0, y >= 0, -x - y >= 1} is empty; any two rays of this fan span
    # a cone, so testing g on sums of two rays cannot see it
    assert not is_strictly_convex(F, (0, 0, 1))
    # support of a lower-dimensional (empty-interior) degeneration
    square_fan = normal_fan(unit_square())
    assert not is_strictly_convex(square_fan, (0, 1, -1, 0))


def test_strict_convexity_builds_linear_parts_once(monkeypatch):
    import toricwidth.fan as fan

    calls = []
    real = fan.cone_linear_parts
    monkeypatch.setattr(fan, "cone_linear_parts", lambda F, g: calls.append(F) or real(F, g))
    P = blown_up_hirzebruch()
    assert is_strictly_convex(normal_fan(P), P.integer_offsets[1])
    assert len(calls) == 1


def test_strict_convexity_requires_smooth():
    with pytest.raises(ValueError, match="fan must be smooth"):
        is_strictly_convex(Fan(((1, 0), (1, 2)), ((0, 1),)), (0, 0))
    P = random_simple_non_delzant_polygon(random.Random(3))
    with pytest.raises(ValueError, match="fan must be smooth"):
        is_strictly_convex(normal_fan(P), (0,) * P.num_facets)


def test_strict_convexity_of_all_fixture_supports():
    for P in (
        unit_square(),
        hirzebruch(),
        blown_up_hirzebruch(),
        dilate(iterated_plane_blowup(1), 2),
        projective_space(3, 1),
    ):
        F = normal_fan(P)
        assert is_strictly_convex(F, P.integer_offsets[1])


def test_strict_convexity_random_polygons():
    rng = random.Random(8)
    for _ in range(15):
        P = random_delzant_polygon(rng)
        F = normal_fan(P)
        assert is_strictly_convex(F, P.integer_offsets[1])


def test_strict_convexity_matches_the_support_polytope_oracle():
    rng = random.Random(5)
    cube = product_polytope(*(projective_space(1, 2),) * 3)
    polytopes = [random_delzant_polygon(rng) for _ in range(12)] + [
        blown_up_hirzebruch(),
        iterated_plane_blowup(1),
        hirzebruch(),
        unit_square(),
        *(projective_space(n) for n in (1, 2, 3, 4)),
        cube,
        blow_up(cube, cube.vertices[0].active),
        product_polytope(projective_space(1), projective_space(2)),
    ]
    verdicts = []
    for P in polytopes:
        F = normal_fan(P)
        for _ in range(30):
            g = tuple(rng.randint(-4, 4) for _ in F.generators)
            want = oracle_is_strictly_convex(F, g)
            assert is_strictly_convex(F, g) == want, (F, g)
            verdicts.append((P.dim, want))
    # both verdicts occur, in every dimension from 1 to 4
    assert {(n, w) for n in range(1, 5) for w in (True, False)} <= set(verdicts)


def _fan_flag_inputs():
    rng = random.Random(71)
    drawn = [random_delzant_polygon(rng) for _ in range(60)]
    cube = product_polytope(*(projective_space(1, 2),) * 3)
    return (
        lattice_point_ladder()
        + drawn
        + [dilate(P, c) for P in drawn for c in (Fraction(1, 3), Fraction(5, 2))]
        # the benchmark's blow-up polygons, drawn with polygon_rng(1, d, 0)
        + [blowup_polygon(random.Random(100000 + d), d) for d in range(5, 17)]
        + [cube, blow_up(cube, cube.vertices[0].active)]
        + [product_polytope(projective_space(1), projective_space(2))]
        + [projective_space(n, k) for n in (1, 2, 3, 4) for k in (1, 2)]
    )


def test_normal_fan_flags_match_the_oracles(capsys, tmp_path):
    path = tmp_path / "P.json"
    for P in _fan_flag_inputs():
        F = normal_fan(P)
        if P.dim == 2:
            assert oracle_cones_meet_in_faces(F)
        if P.dim <= 2:
            assert oracle_is_complete(F)
        assert oracle_is_smooth(F) == is_delzant(P)
        g = P.integer_offsets[1]  # the offsets of qP
        path.write_text(json.dumps(polytope_data(P)))
        assert main(["analyze", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [out[k] for k in ("delzant", "smooth", "complete", "strictly_convex")] == [
            is_delzant(P),
            oracle_is_smooth(F),
            "complete",
            oracle_is_strictly_convex(F, g),
        ]


def test_analyze_stops_exactly_on_non_smooth_fans(capsys, tmp_path):
    rng = random.Random(72)
    path = tmp_path / "P.json"
    for P in [random_simple_non_delzant_polygon(rng) for _ in range(10)]:
        assert not oracle_is_smooth(normal_fan(P))
        path.write_text(json.dumps(polytope_data(P)))
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {oracle_refusal(P)}\n"
