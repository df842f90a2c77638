import json
import random
from fractions import Fraction

import pytest

from geomgen import (
    oracle_lattice_points,
    random_delzant_polygon,
    random_simple_non_delzant_polygon,
    random_unimodular_map,
)
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    hirzebruch,
    iterated_plane_blowup,
    projective_space,
    unit_square,
)
from toricwidth.polytope import (
    AffineLatticeMap,
    EmptyPolytopeError,
    HalfspacePolytope,
    NotDelzantError,
    UnboundedPolytopeError,
    apply_lattice_map,
    bounding_box,
    delzant_certificate,
    enumerate_vertices,
    from_dict,
    is_delzant,
    lattice_points,
    normalize_at_vertex,
    offset_denominator_scale,
    scale,
    to_dict,
)

SIMPLEX = projective_space(2, 1)


def test_constructor_validates():
    with pytest.raises(ValueError):
        HalfspacePolytope(((2, 0), (0, 1)), (0, 0))  # non-primitive normal
    with pytest.raises(ValueError):
        HalfspacePolytope(((1, 0), (1, 0)), (0, 0))  # duplicate facet
    with pytest.raises(ValueError):
        HalfspacePolytope(((1, 0), (0, 1)), (0,))  # length mismatch


def test_square_vertices():
    vs = enumerate_vertices(unit_square())
    assert [v.point for v in vs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [v.active for v in vs] == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_simplex_vertices():
    vs = enumerate_vertices(SIMPLEX)
    assert [v.point for v in vs] == [(0, 0), (0, 1), (1, 0)]


def test_blowup_vertices():
    vs = enumerate_vertices(blown_up_hirzebruch())
    assert {tuple(v.point) for v in vs} == {
        (0, 0), (1, 0), (0, 1), (1, 2), (3, 3), (4, 3),
    }


def test_family_vertices_rational():
    P = iterated_plane_blowup(2)
    pts = {tuple(v.point) for v in enumerate_vertices(P)}
    assert (Fraction(2, 3), Fraction(8, 3)) in pts
    assert (0, Fraction(4, 3)) in pts
    assert (4, 4) in pts
    assert len(pts) == 7


def test_unbounded_raises():
    P = HalfspacePolytope(((1, 0), (0, 1)), (0, 0))
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices(P)


def test_halfplane_strip_unbounded():
    P = HalfspacePolytope(((1, 0), (-1, 0)), (0, -1))
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices(P)


def test_empty_raises():
    P = HalfspacePolytope(
        ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)), (2, 2, -3, -3, 1)
    )
    with pytest.raises(EmptyPolytopeError):
        enumerate_vertices(P)


def test_is_delzant_examples():
    assert is_delzant(unit_square())
    assert is_delzant(SIMPLEX)
    assert is_delzant(blown_up_hirzebruch())
    # conv{(0,0), (1,0), (0,2)}: hypotenuse normal (-2,-1) breaks det at (1,0)
    P = HalfspacePolytope(((1, 0), (0, 1), (-2, -1)), (0, 0, -2))
    assert not is_delzant(P)
    cert = delzant_certificate(P)
    bad = [c for c in cert if not c.ok]
    assert len(bad) == 1 and bad[0].simple and not bad[0].unimodular


def test_non_simple_vertex_detected():
    # square plus a diagonal facet through the corner (1,1)
    P = HalfspacePolytope(
        ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)), (0, 0, -1, -1, -2)
    )
    cert = delzant_certificate(P)
    corner = [c for c in cert if c.vertex.point == (1, 1)]
    assert corner and not corner[0].simple


def test_lattice_points_simplex_doubled():
    pts = lattice_points(scale(SIMPLEX, 2))
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_lattice_points_blowup():
    pts = lattice_points(blown_up_hirzebruch())
    assert len(pts) == 10
    assert tuple(max(p[j] for p in pts) for j in range(2)) == (4, 3)


def test_lattice_points_against_oracle_fixtures():
    for P in (unit_square(), SIMPLEX, blown_up_hirzebruch(), iterated_plane_blowup(3)):
        assert lattice_points(P) == oracle_lattice_points(P)


def test_lattice_points_against_oracle_random():
    rng = random.Random(2024)
    for _ in range(25):
        P = random_delzant_polygon(rng)
        assert lattice_points(P) == oracle_lattice_points(P)


def test_normalize_at_vertex_blowup():
    P = blown_up_hirzebruch()
    vs = enumerate_vertices(P)
    top = next(v for v in vs if v.point == (4, 3))
    f, Q = normalize_at_vertex(P, top)
    assert f.apply(top.point) == (0, 0)
    # active facets become coordinate facets through the origin
    for k, i in enumerate(top.active):
        assert Q.normals[i] == tuple(1 if j == k else 0 for j in range(2))
        assert Q.offsets[i] == 0
    assert sorted(lattice_points(Q)) == sorted(
        tuple(f.apply(p)) for p in lattice_points(P)
    )


def test_normalize_requires_delzant_vertex():
    P = HalfspacePolytope(((1, 0), (0, 1), (-2, -1)), (0, 0, -2))
    bad = next(v for v in enumerate_vertices(P) if v.point == (1, 0))
    with pytest.raises(NotDelzantError, match=r"^normals at \(1, 0\) do not form a Z-basis$"):
        normalize_at_vertex(P, bad)


def test_vertices_property_matches_enumeration():
    P = blown_up_hirzebruch()
    assert P.vertices == tuple(enumerate_vertices(P))
    assert P.vertices is P.vertices
    with pytest.raises(UnboundedPolytopeError):
        HalfspacePolytope(((1, 0), (0, 1)), (0, 0)).vertices


def test_derived_vertices_match_fresh_enumeration():
    """scale, apply_lattice_map and normalize_at_vertex pass mapped vertices on;
    each list must equal a fresh enumeration of an equal, newly built polytope."""
    rng = random.Random(41)
    polytopes = [
        unit_square(),
        hirzebruch(),
        blown_up_hirzebruch(),
        iterated_plane_blowup(2),
        iterated_plane_blowup(7),
        projective_space(1, 3),
        projective_space(3, 2),
        projective_space(4, 1),
    ] + [random_delzant_polygon(rng) for _ in range(12)]
    for P in polytopes:
        P.vertices
        if P.dim == 1:
            f = AffineLatticeMap(((-1,),), (Fraction(5, 2),))
        else:
            f = random_unimodular_map(rng, P.dim)
        images = [scale(P, Fraction(3, 2)), scale(P, 4), apply_lattice_map(P, f)]
        images += [normalize_at_vertex(P, v)[1] for v in P.vertices]
        for Q in images:
            assert "vertices" in vars(Q)  # derived, not enumerated again
            fresh = HalfspacePolytope(Q.normals, Q.offsets)
            assert list(Q.vertices) == enumerate_vertices(fresh)


def test_unknown_vertices_are_not_derived():
    Q = scale(blown_up_hirzebruch(), 2)
    assert "vertices" not in vars(Q)


def test_scale():
    P = scale(SIMPLEX, Fraction(3, 2))
    assert P.offsets == (0, 0, Fraction(-3, 2))
    with pytest.raises(ValueError):
        scale(SIMPLEX, 0)


def test_offset_denominator_scale():
    assert offset_denominator_scale(SIMPLEX) == 1
    assert offset_denominator_scale(iterated_plane_blowup(2)) == 3
    assert offset_denominator_scale(iterated_plane_blowup(10)) == 11


def test_affine_map_roundtrip():
    rng = random.Random(99)
    for _ in range(20):
        f = random_unimodular_map(rng)
        g = f.inverse()
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
        assert g.apply(f.apply(x)) == x


def test_delzant_invariant_under_lattice_maps():
    rng = random.Random(5)
    for _ in range(10):
        P = random_delzant_polygon(rng)
        f = random_unimodular_map(rng)
        assert is_delzant(apply_lattice_map(P, f))
    for _ in range(10):
        P = random_simple_non_delzant_polygon(rng)
        f = random_unimodular_map(rng)
        assert not is_delzant(apply_lattice_map(P, f))


def test_lattice_point_count_invariant_under_maps():
    rng = random.Random(17)
    for _ in range(10):
        P = random_delzant_polygon(rng)
        f = random_unimodular_map(rng)
        Q = apply_lattice_map(P, f)
        assert len(lattice_points(P)) == len(lattice_points(Q))


def test_json_roundtrip():
    for P in (SIMPLEX, iterated_plane_blowup(2)):
        data = to_dict(P)
        Q = from_dict(json.loads(json.dumps(data)))
        assert Q == P
        assert json.dumps(to_dict(Q)) == json.dumps(data)


def test_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        from_dict({"dim": 2, "normals": [[1, 0]]})
    with pytest.raises(ValueError):
        from_dict({"dim": 3, "normals": [[1, 0], [0, 1], [-1, -1]], "offsets": ["0", "0", "-1"]})
    with pytest.raises(ValueError):
        from_dict({"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]], "offsets": ["0", "0", "x"]})


def test_bounding_box():
    lo, hi = bounding_box(blown_up_hirzebruch())
    assert lo == (0, 0)
    assert hi == (4, 3)
