import random

import pytest

from geomgen import random_delzant_polygon, random_simple_non_delzant_polygon
from toricwidth.fan import (
    COMPLETE,
    INCOMPLETE,
    UNVERIFIED,
    Fan,
    SupportFunction,
    completeness,
    cone_linear_parts,
    evaluate_support,
    is_complete,
    is_smooth,
    is_strictly_convex,
    normal_fan,
    polytope_from_support,
    support_function,
)
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    hirzebruch,
    iterated_plane_blowup,
    projective_space,
    unit_square,
)
from toricwidth.polytope import (
    HalfspacePolytope,
    NotDelzantError,
    is_delzant,
    scale,
)

CP2_FAN = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


def test_fan_validation():
    with pytest.raises(ValueError):
        Fan(((2, 0), (0, 1)), ((0, 1),))  # non-primitive generator
    with pytest.raises(ValueError):
        Fan(((1, 0), (-1, 0)), ((0, 1),))  # dependent generators in one cone
    with pytest.raises(ValueError):
        Fan(((1, 0), (0, 1)), ((0, 1), (0, 1)))  # duplicate max cone
    # overlapping cones are not a fan
    with pytest.raises(ValueError):
        Fan(((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))


def test_is_smooth():
    assert is_smooth(CP2_FAN)
    assert not is_smooth(Fan(((1, 0), (1, 2)), ((0, 1),)))
    with pytest.raises(ValueError):
        is_smooth(Fan(((1, 0), (0, 1)), ((0,), (1,))))


def test_completeness_2d():
    assert completeness(CP2_FAN) == COMPLETE
    assert completeness(Fan(((1, 0), (0, 1)), ((0, 1),))) == INCOMPLETE
    # all four quadrants
    quadrants = Fan(
        ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))
    )
    assert completeness(quadrants) == COMPLETE
    assert is_complete(quadrants)
    # remove one quadrant
    assert (
        completeness(Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3))))
        == INCOMPLETE
    )


def test_completeness_1d():
    F = Fan(((1,), (-1,)), ((0,), (1,)))
    assert completeness(F) == COMPLETE
    assert completeness(Fan(((1,),), ((0,),))) == INCOMPLETE


def test_completeness_3d():
    F = normal_fan(projective_space(3, 1))
    assert completeness(F) == COMPLETE  # by construction
    hand_built = Fan(F.generators, F.max_cones)
    assert completeness(hand_built) == UNVERIFIED
    with pytest.raises(ValueError):
        is_complete(hand_built)


def test_normal_fan_simplex():
    F = normal_fan(projective_space(2, 1))
    assert F.generators == ((1, 0), (0, 1), (-1, -1))
    assert set(F.max_cones) == {(0, 1), (0, 2), (1, 2)}
    assert F.from_polytope


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
        assert is_smooth(normal_fan(P)) == is_delzant(P) == True
    for _ in range(15):
        P = random_simple_non_delzant_polygon(rng)
        assert is_smooth(normal_fan(P)) == is_delzant(P) == False


def test_support_function():
    P = blown_up_hirzebruch()
    g = support_function(P)
    assert g.values == (0, 0, -1, -1, -3, -3)
    with pytest.raises(ValueError):
        support_function(iterated_plane_blowup(2))


def test_polytope_from_support_roundtrip():
    for P in (unit_square(), blown_up_hirzebruch(), hirzebruch(), projective_space(3, 2)):
        F = normal_fan(P)
        g = support_function(P)
        assert polytope_from_support(F, g) == P


def test_cone_linear_parts_are_vertices():
    P = blown_up_hirzebruch()
    F = normal_fan(P)
    g = support_function(P)
    parts = cone_linear_parts(F, g)
    from toricwidth.polytope import enumerate_vertices

    vertex_points = {v.point for v in enumerate_vertices(P)}
    assert set(parts.values()) == vertex_points


def test_evaluate_support():
    F = normal_fan(projective_space(2, 1))
    g = support_function(projective_space(2, 1))
    assert evaluate_support(F, g, (0, 0)) == 0
    assert evaluate_support(F, g, (1, 0)) == 0
    assert evaluate_support(F, g, (-1, -1)) == -1
    assert evaluate_support(F, g, (-2, -1)) == -2


def test_strict_convexity():
    P = projective_space(2, 1)
    F = normal_fan(P)
    assert is_strictly_convex(F, support_function(P))
    # zero support function: all linear parts agree
    assert not is_strictly_convex(F, SupportFunction((0, 0, 0)))
    # support of a lower-dimensional (empty-interior) degeneration
    square_fan = normal_fan(unit_square())
    assert not is_strictly_convex(square_fan, SupportFunction((0, 1, -1, 0)))


def test_strict_convexity_builds_linear_parts_once(monkeypatch):
    import toricwidth.fan as fan

    calls = []
    real = fan.cone_linear_parts
    monkeypatch.setattr(fan, "cone_linear_parts", lambda F, g: calls.append(F) or real(F, g))
    P = blown_up_hirzebruch()
    assert is_strictly_convex(normal_fan(P), support_function(P))
    assert len(calls) == 1


def test_strict_convexity_requires_smooth_complete():
    with pytest.raises(ValueError):
        is_strictly_convex(Fan(((1, 0), (1, 2)), ((0, 1),)), SupportFunction((0, 0)))
    F = Fan(((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError):
        is_strictly_convex(F, SupportFunction((0, 0)))


def test_strict_convexity_of_all_fixture_supports():
    for P in (
        unit_square(),
        hirzebruch(),
        blown_up_hirzebruch(),
        scale(iterated_plane_blowup(1), 2),
        projective_space(3, 1),
    ):
        F = normal_fan(P)
        assert is_strictly_convex(F, support_function(P))


def test_strict_convexity_random_polygons():
    rng = random.Random(8)
    for _ in range(15):
        P = random_delzant_polygon(rng)
        F = normal_fan(P)
        assert is_strictly_convex(F, support_function(P))
