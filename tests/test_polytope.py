import json
import math
import random
import re
from fractions import Fraction

import pytest

import geomgen
from geomgen import (
    AffineLatticeMap,
    apply_lattice_map,
    blowup_polygon,
    dilate,
    fibre_count,
    hirzebruch,
    int_vector,
    lattice_point_ladder,
    oracle_det,
    oracle_ehrhart_volume,
    oracle_feasible_bases,
    oracle_lex_feasible_bases,
    oracle_is_delzant,
    oracle_lattice_points,
    oracle_normalize_at_vertex,
    oracle_polygon_area,
    oracle_refusal,
    oracle_vertices,
    polytope_data,
    product_polytope,
    random_cut_cube,
    random_delzant_polygon,
    random_delzant_polytope,
    random_simple_non_delzant_polygon,
    random_unimodular_map,
    rational_vector,
    unit_square,
    vertex_map,
)
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    iterated_plane_blowup,
    projective_space,
)
import toricwidth.polytope
from toricwidth.fixtures import resolve_fixture
from toricwidth.lattice import dot
from toricwidth.polytope import (
    EmptyPolytopeError,
    HalfspacePolytope,
    NotDelzantError,
    UnboundedPolytopeError,
    bounding_box,
    delzant_vertices,
    enumerate_vertices,
    from_dict,
    is_delzant,
    lattice_fibres,
    lattice_points,
    normalize_at_vertex,
    recession_direction,
    vertex_sums,
)

SIMPLEX = projective_space(2, 1)


def test_constructor_validates():
    with pytest.raises(ValueError):
        HalfspacePolytope(((2, 0), (0, 1)), (0, 0))  # non-primitive normal
    with pytest.raises(ValueError):
        HalfspacePolytope(((1, 0), (1, 0)), (0, 0))  # duplicate facet
    with pytest.raises(ValueError):
        HalfspacePolytope(((1, 0), (0, 1)), (0,))  # length mismatch


def test_constructor_keeps_exact_input_and_converts_the_rest():
    # int tuples and Fractions are kept as the same objects; other input is
    # converted exactly, and refused with the messages of the tests'
    # int_vector and rational_vector, normals first, in order
    normals, offsets = ((1, 0), (0, 1)), (Fraction(0), Fraction(1, 2))
    P = HalfspacePolytope(normals, offsets)
    assert P.normals is normals and P.offsets is offsets
    Q = HalfspacePolytope([[True, 0.0], (Fraction(0), "1")], [0, "1/2"])
    assert Q == P and all(type(x) is int for u in Q.normals for x in u)
    assert all(type(l) is Fraction for l in Q.offsets)
    assert int_vector((True, 0.0)) == Q.normals[0] and rational_vector([0, "1/2"]) == Q.offsets
    for args, message in [
        ((((1, 0), (0, Fraction(1, 2))), (0, 0)), "not an integer: 1/2"),
        ((((), (Fraction(1, 2),)), (0, 0)), "empty vector"),
        ((((1, 0), (0, 1)), ()), "empty vector"),
        (((), ()), "empty vector"),
        ((((1, 0), (1, 0)), (Fraction(1, 2), 0.5)), "duplicate facet inequality"),
    ]:
        with pytest.raises(ValueError) as got:
            HalfspacePolytope(*args)
        assert str(got.value) == message


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
    # every vertex is simple; only the tight normals at (1,0) miss a Z-basis
    assert all(len(v.active) == 2 for v in P.vertices)
    bad = [v.point for v in P.vertices if abs(oracle_det([P.normals[i] for i in v.active])) != 1]
    assert bad == [(1, 0)]


def test_non_simple_vertex_detected():
    # square plus a diagonal facet through the corner (1,1)
    P = HalfspacePolytope(
        ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)), (0, 0, -1, -1, -2)
    )
    assert not is_delzant(P)
    corner = [v for v in P.vertices if v.point == (1, 1)]
    assert corner and corner[0].active == (2, 3, 4)
    assert all(len(v.active) == 2 for v in P.vertices if v.point != (1, 1))


def test_lattice_points_simplex_doubled():
    pts = lattice_points(dilate(SIMPLEX, 2))
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_lattice_points_blowup():
    pts = lattice_points(blown_up_hirzebruch())
    assert len(pts) == 10
    assert tuple(max(p[j] for p in pts) for j in range(2)) == (4, 3)


def test_lattice_points_against_oracle_fixtures():
    fixtures = [unit_square(), SIMPLEX, blown_up_hirzebruch(), iterated_plane_blowup(3)]
    for P in fixtures + lattice_point_ladder():
        assert lattice_points(P) == oracle_lattice_points(P)


def test_lattice_points_against_oracle_random():
    rng = random.Random(2024)
    for _ in range(25):
        P = random_delzant_polygon(rng)
        assert lattice_points(P) == oracle_lattice_points(P)


def test_lattice_fibres_simplex_doubled():
    # x_2 <= 2 - x_1 on each fibre; the facet x_1 >= 0 (c = 0) keeps every prefix
    assert lattice_fibres(dilate(SIMPLEX, 2)) == [((0,), 0, 2), ((1,), 0, 1), ((2,), 0, 0)]
    # ceil(1/3) = 1 and floor(8/3) = 2 on the segment [1/3, 8/3]
    segment = HalfspacePolytope(((1,), (-1,)), (Fraction(1, 3), Fraction(-8, 3)))
    assert lattice_fibres(segment) == [((), 1, 2)]


PRISM = HalfspacePolytope(
    ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)), (0, 0, -1, 0, -2)
)


def test_lattice_fibres_drop_prefixes_cut_by_a_flat_facet():
    # the prism (simplex) x [0, 2]: x_1 + x_2 <= 1 is flat in x_3 and drops
    # the box prefix (1, 1), whose x_3 range the other facets leave as [0, 2]
    assert lattice_fibres(PRISM) == [((0, 0), 0, 2), ((0, 1), 0, 2), ((1, 0), 0, 2)]


def test_lattice_fibres_expand_to_the_oracle_points():
    # the walk against the box scan of the oracle, as given and normalized at
    # a vertex: a segment, Delzant and blow-up polygons to d = 16, 3-D and 4-D
    # draws, a product, the flat-facet prism, and 5/3 dilates (rational
    # offsets) of all but the 4-D draws, whose oracle box is the largest
    rng = random.Random(22)
    blowups = [blowup_polygon(random.Random(d), d) for d in range(4, 17)]
    dilated = [
        HalfspacePolytope(((1,), (-1,)), (Fraction(-7, 3), Fraction(-11, 5))),
        *(random_delzant_polygon(rng) for _ in range(10)),
        *blowups,
        *(random_delzant_polytope(random.Random(seed), 3) for seed in range(4)),
        product_polytope(blowups[0], blowups[1]),
        PRISM,
    ]
    cases = dilated + [dilate(P, Fraction(5, 3)) for P in dilated]
    cases += [random_delzant_polytope(random.Random(seed), 4) for seed in range(3)]
    for P in cases:
        Q = normalize_at_vertex(P, rng.choice(P.vertices))
        assert lattice_points(P) == oracle_lattice_points(P)
        assert lattice_points(Q) == oracle_lattice_points(Q)


def test_lattice_fibres_of_the_parallelogram_with_normal_2_40_and_1():
    # the (1, 2^40) parallelogram with x_1, x_2 swapped, so the long side runs
    # along x_n and the walk is two fibres, whose ends exceed 2^40; at a
    # vertex it is the unit square
    e = 2**40
    P = HalfspacePolytope(((e, 1), (1, 0), (-e, -1), (-1, 0)), (0, 0, -1, -1))
    assert lattice_fibres(P) == [((0,), 0, 1), ((1,), -e, 1 - e)]
    for v in P.vertices:
        Q = normalize_at_vertex(P, v)
        assert lattice_points(Q) == oracle_lattice_points(Q) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("name", ["cpn:5:8", "cpn:6:6"])
def test_lattice_fibres_count_the_points_of_5_and_6_dimensional_simplices(name):
    # 1,287 and 924 points, whose prefix boxes hold 9^4 and 7^5 prefixes
    P = resolve_fixture(name)
    for Q in (P, normalize_at_vertex(P, P.vertices[-1])):
        assert fibre_count(Q) == vertex_sums(P)[0]


def test_normalize_at_vertex_blowup():
    P = blown_up_hirzebruch()
    vs = enumerate_vertices(P)
    top = next(v for v in vs if v.point == (4, 3))
    Q = normalize_at_vertex(P, top)
    f = vertex_map(P, top)
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
    """normalize_at_vertex passes mapped vertices on; each list must equal a
    fresh enumeration of an equal, newly built polytope, on integral inputs
    and on their 3/2-dilates, whose charts are those of qP."""
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
    for P in polytopes + [dilate(P, Fraction(3, 2)) for P in polytopes]:
        for Q in [normalize_at_vertex(P, v) for v in P.vertices]:
            assert "vertices" in vars(Q)  # derived, not enumerated again
            fresh = HalfspacePolytope(Q.normals, Q.offsets)
            assert list(Q.vertices) == enumerate_vertices(fresh)
            assert [v.edges for v in Q.vertices] == [v.edges for v in fresh.vertices]


def test_integer_offsets():
    # the last offset is -2m / (m + 1), and every other one an integer
    for m in (1, 2, 3, 5, 10, 50):
        P = resolve_fixture(f"example-3.8:{m}")
        q = math.lcm(*(l.denominator for l in P.offsets))
        assert q == (m + 1) // math.gcd(2, m + 1)
        assert P.integer_offsets == (q, tuple(int(q * l) for l in P.offsets))
        assert all(type(b) is int for b in P.integer_offsets[1])
        assert P.integer_offsets is P.integer_offsets  # computed once
    assert SIMPLEX.integer_offsets == (1, (0, 0, -1))


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


# the benchmark's fixtures and those of the sections tests: n = 1 to 4,
# rational offsets, up to 31,516 lattice points in qP
COUNT_FIXTURES = (
    "example-3.7", "example-3.8:1", "example-3.8:3", "example-3.8:10", "example-3.8:30",
    "example-3.8:50", "cpn:1:5", "cpn:2:20", "cpn:2:60", "cpn:3:10", "cpn:3:20", "cpn:4:3",
    "cpn:4:6",
)


def count_generators():
    """The fixtures, the ladder, blow-up polygons with 4 to 16 facets, and ten
    3-D and ten 4-D random_delzant_polytope draws."""
    return (
        [resolve_fixture(name) for name in COUNT_FIXTURES]
        + lattice_point_ladder()
        + [blowup_polygon(random.Random(d), d) for d in range(4, 17)]
        + [random_delzant_polytope(random.Random(seed), n) for n in (3, 4) for seed in range(10)]
    )


def test_vertex_sum_count_equals_the_fibre_sum_on_every_generator():
    for P in count_generators():
        assert vertex_sums(P)[0] == fibre_count(P)


def test_vertex_sums_hold_on_lattice_images_with_entries_up_to_2_40():
    # the count is the preimage's fibre sum; the image's own box is too large
    # to scan.  The image is walked afresh and also handed the mapped vertices.
    rng = random.Random(40)
    for P in count_generators():
        if P.dim == 1:
            f = AffineLatticeMap(((-1,),), (Fraction(2**40),))
        else:
            f = random_unimodular_map(rng, P.dim, shear=2**40)
        Q = apply_lattice_map(P, f)
        want = (fibre_count(P), vertex_sums(P)[1])
        assert vertex_sums(Q) == want
        assert vertex_sums(HalfspacePolytope(Q.normals, Q.offsets)) == want


def test_volume_equals_the_shoelace_area_and_the_ehrhart_coefficient():
    rng = random.Random(12)
    polygons = (
        [resolve_fixture(name) for name in COUNT_FIXTURES if name.startswith(("ex", "cpn:2"))]
        + [blowup_polygon(random.Random(d), d) for d in range(4, 17)]
        + [random_delzant_polygon(rng) for _ in range(30)]
        + [dilate(random_delzant_polygon(rng), Fraction(5, 3)) for _ in range(5)]
    )
    for P in polygons:
        assert vertex_sums(P)[1] == oracle_polygon_area(P)
    for n, draws in ((3, 10), (4, 5)):
        for seed in range(draws):
            P = random_delzant_polytope(random.Random(seed), n)
            assert vertex_sums(P)[1] == oracle_ehrhart_volume(P)


def test_vertex_sums_need_a_delzant_polytope():
    non_delzant = random_simple_non_delzant_polygon(random.Random(3))
    for P, want in (
        (non_delzant, oracle_refusal(non_delzant)),
        (CUT_CUBE, "vertex (0, 0, 1) lies on 4 facets"),
    ):
        assert want is not None and want.startswith(("normals at", "vertex"))
        with pytest.raises(NotDelzantError) as refused:
            vertex_sums(P)
        assert str(refused.value) == want


def lattice_image(P, rng, shear):
    """P under a random lattice map with shears up to `shear`, newly built, so
    its vertices are walked afresh."""
    if P.dim == 1:
        f = AffineLatticeMap(((-1,),), (Fraction(shear),))
    else:
        f = random_unimodular_map(rng, P.dim, shear=shear)
    Q = apply_lattice_map(P, f)
    return HalfspacePolytope(Q.normals, Q.offsets)


def raises(f, *args) -> bool:
    try:
        f(*args)
    except ValueError:
        return True
    return False


def unimodularity_generators():
    """count_generators() with five 5/3 dilates of blow-up polygons, simple
    non-Delzant polygons, the bounded inputs of FALLBACK_INPUTS, and lattice
    images of all of these with shears of 2^40 and 2^62."""
    rng = random.Random(62)
    bounded = [P for P in FALLBACK_INPUTS if not raises(enumerate_vertices, P)]
    base = (
        count_generators()
        + [dilate(blowup_polygon(random.Random(d), d), Fraction(5, 3)) for d in range(5, 10)]
        + [random_simple_non_delzant_polygon(random.Random(seed)) for seed in range(10)]
        + bounded
    )
    return base + [lattice_image(P, rng, shear) for shear in (2**40, 2**62) for P in base]


def test_is_delzant_equals_the_oracle_on_every_generator():
    answers = [(is_delzant(P), oracle_is_delzant(P)) for P in unimodularity_generators()]
    assert all(got == want for got, want in answers)
    assert {got for got, _ in answers} == {True, False}


def test_normalize_at_vertex_equals_the_oracle_map_at_every_vertex():
    # the image of the oracle map, with its vertices and edges enumerated
    # afresh; on a rational P (the 5/3-dilates) that is the normalization of
    # qP at q v; vertices that are not unimodular are refused by both, and
    # every vertex on exactly n facets carries the walk's edges
    for P in unimodularity_generators():
        for v in P.vertices:
            assert len(v.active) != P.dim or v.edges is not None
            if len(v.active) != P.dim:
                with pytest.raises(NotDelzantError, match=r"^vertex .* lies on \d+ facets$"):
                    normalize_at_vertex(P, v)
            elif raises(vertex_map, P, v):
                with pytest.raises(NotDelzantError, match=r"do not form a Z-basis$"):
                    normalize_at_vertex(P, v)
            else:
                Q = normalize_at_vertex(P, v)
                want = oracle_normalize_at_vertex(P, v)
                assert (Q.normals, Q.offsets) == (want.normals, want.offsets)
                assert "vertices" in vars(Q)  # mapped, not walked again
                fresh = HalfspacePolytope(want.normals, want.offsets)
                assert Q.vertices == fresh.vertices
                assert [w.edges for w in Q.vertices] == [w.edges for w in fresh.vertices]


def assert_walk_data(P):
    """Each vertex's slacks are q (<u_i, x> - lambda_i), ints when it lies on
    n facets with D = 1, and its pairings are <u_i, edges[k]>, set exactly
    where edges are."""
    q = math.lcm(*(l.denominator for l in P.offsets))
    for v in P.vertices:
        assert v.slacks == tuple(q * (dot(u, v.point) - l) for u, l in zip(P.normals, P.offsets))
        if v.edges is None:
            assert v.pairings is None
            continue
        assert v.pairings == tuple(tuple(dot(u, e) for u in P.normals) for e in v.edges)
        if abs(oracle_det([P.normals[i] for i in v.active])) == 1:
            assert all(type(s) is int for s in v.slacks)


def test_vertices_keep_the_walks_slacks_and_pairings_and_their_images_carry_them():
    # every generator: the fixtures and draws, the 5/3-dilates, simple
    # non-Delzant polygons, the cut cube and lattice images with entries
    # near 2^40 and 2^62.  The image at a Delzant vertex, the first two of
    # each P, keeps each mapped vertex's slacks and pairings unchanged
    cut_cube_corners = 0
    for P in unimodularity_generators():
        assert_walk_data(P)
        cut_cube_corners += P is CUT_CUBE and sum(v.pairings is None for v in P.vertices)
        by_facets = {x.active: x for x in P.vertices}
        for v in [v for v in P.vertices if not raises(vertex_map, P, v)][:2]:
            Q = normalize_at_vertex(P, v)
            for w in Q.vertices:
                x = by_facets[w.active]
                assert (w.slacks, w.pairings) == (x.slacks, x.pairings)
            assert_walk_data(Q)
    assert cut_cube_corners == 3  # (1, 0, 0), (0, 1, 0) and (0, 0, 1) lie on 4 facets


def test_normalize_at_vertex_names_what_is_not_delzant():
    # the cut cube is not simple, but its origin lies on three facets whose
    # normals form a Z-basis, so it normalizes; the corner (0, 0, 1) does not
    origin, corner = CUT_CUBE.vertices[:2]
    assert (origin.point, origin.active) == ((0, 0, 0), (0, 1, 2))
    assert origin.edges is not None and corner.edges is None
    Q = normalize_at_vertex(CUT_CUBE, origin)
    want = oracle_normalize_at_vertex(CUT_CUBE, origin)
    assert (Q.normals, Q.offsets) == (want.normals, want.offsets)
    assert Q.vertices == HalfspacePolytope(want.normals, want.offsets).vertices
    with pytest.raises(NotDelzantError, match=r"^vertex \(0, 0, 1\) lies on 4 facets$"):
        normalize_at_vertex(CUT_CUBE, corner)


def test_json_roundtrip():
    for P in (SIMPLEX, iterated_plane_blowup(2)):
        data = polytope_data(P)
        Q = from_dict(json.loads(json.dumps(data)))
        assert Q == P
        assert json.dumps(polytope_data(Q)) == json.dumps(data)


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


def assert_recession_direction(P, message):
    """message names a nonzero integer r with <r, u_i> >= 0 for every i."""
    match = re.fullmatch(r"recession direction \(([-\d, ]+?),?\)", message)
    assert match, message
    r = tuple(int(x) for x in match.group(1).split(", "))
    assert len(r) == P.dim and any(r)
    assert all(sum(a * b for a, b in zip(r, u)) >= 0 for u in P.normals)


def assert_same_vertices(P):
    """enumerate_vertices gives the oracle's list, or its exception: the same
    message for empty input, a recession direction for unbounded input (the
    walk reports the first unbounded edge it meets, the oracle the first
    direction of its subset scan).  Each walked vertex's edges are the
    columns of D U_A^-1, D = |det U_A|."""
    try:
        want = oracle_vertices(P)
    except (UnboundedPolytopeError, EmptyPolytopeError) as e:
        with pytest.raises(type(e)) as got:
            enumerate_vertices(P)
        if isinstance(e, UnboundedPolytopeError):
            assert_recession_direction(P, str(got.value))
        else:
            assert str(got.value) == str(e)
    else:
        got = enumerate_vertices(P)
        assert got == want
        for v in got:
            if v.edges is not None:
                D = abs(oracle_det([P.normals[i] for i in v.active]))
                assert [[dot(e, P.normals[i]) for i in v.active] for e in v.edges] == [
                    [D * (j == k) for k in range(P.dim)] for j in range(P.dim)
                ]


def half_spaces(normals, offsets):
    return HalfspacePolytope(tuple(normals), tuple(Fraction(l) for l in offsets))


# inputs that are not simple, unbounded, empty or not pointed: the walk
# follows ratio ties and degenerate pivots through them
CUT_CUBE = half_spaces(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, -1)],
    [0, 0, 0, -1, -1, -1, -1],
)
FALLBACK_INPUTS = [
    CUT_CUBE,
    half_spaces([(1, 0), (0, 1)], [0, 0]),  # quadrant: the walk's first edge is unbounded
    half_spaces([(1, 0), (-1, 0)], [0, -1]),  # strip: contains a line
    half_spaces([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)], [2, 2, -3, -3, 1]),  # empty
    half_spaces([(1, 0), (-1, 0)], [0, 1]),  # empty and contains a line
    half_spaces([(1, 0), (0, 1), (-1, 0)], [0, 0, -1]),  # a walk that meets an unbounded edge
    half_spaces([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)], [0, 0, -1, -1, -2]),  # non-simple
    half_spaces([(1, 0), (0, 1), (-1, -1)], [0, 0, 0]),  # one point on three facets
    half_spaces([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 0, 0, -1]),  # a segment in the plane
    half_spaces(  # unit cube and x + y + z <= 3, tight only at (1, 1, 1)
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, -1)],
        [0, 0, 0, -1, -1, -1, -3],
    ),
    half_spaces(  # square pyramid: the apex lies on four facets
        [(0, 0, 1), (0, 1, -1), (1, 0, -1), (0, -1, -1), (-1, 0, -1)], [0, -1, -1, -1, -1]
    ),
    half_spaces([(1,)], [3]),  # a ray
    half_spaces([(1,), (-1,)], [2, -1]),  # an empty interval
    half_spaces([(1, 0), (-1, 0), (0, 1)], [0, 1, 0]),  # empty, with a nonzero recession cone
]


def test_fallback_inputs_match_the_subset_scan():
    for P in FALLBACK_INPUTS:
        assert_same_vertices(P)
    with pytest.raises(UnboundedPolytopeError, match=r"^recession direction \(1, 0\)$"):
        enumerate_vertices(FALLBACK_INPUTS[1])
    with pytest.raises(UnboundedPolytopeError, match=r"^recession direction \(0, 1\)$"):
        enumerate_vertices(FALLBACK_INPUTS[5])
    assert [len(v.active) for v in enumerate_vertices(CUT_CUBE)] == [3, 4, 4, 4]


def test_a_pointed_input_with_no_feasible_vertex_is_empty(monkeypatch):
    # its normals span R^n, so a nonempty P would have a vertex; the
    # recession cone {x >= 0, x <= 0, y >= 0} is not {0}, but no search runs
    def refuse(P):
        raise AssertionError("no recession search on a pointed input")

    monkeypatch.setattr(toricwidth.polytope, "recession_direction", refuse)
    for P in (
        half_spaces([(1, 0), (-1, 0), (0, 1)], [0, 1, 0]),
        half_spaces([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], [0, 1, 0, 0]),
        half_spaces([(1,), (-1,)], [2, -1]),
    ):
        with pytest.raises(EmptyPolytopeError, match="^no feasible vertex$"):
            enumerate_vertices(P)


def test_an_empty_input_with_a_line_is_empty_not_unbounded():
    # its normals miss a direction k, so P would contain lines along k; the
    # slice by k^perp is pointed and has no vertex, so P is empty
    for P in (
        half_spaces([(1, 0), (-1, 0)], [0, 1]),
        half_spaces([(1, 1, 0), (-1, -1, 0)], [Fraction(1, 2), 0]),
        half_spaces([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [0, 0, 1]),
    ):
        with pytest.raises(EmptyPolytopeError, match="^no feasible vertex$"):
            enumerate_vertices(P)
        assert_same_vertices(P)
    # the nonempty strip 0 <= x <= 1 keeps its recession direction
    with pytest.raises(UnboundedPolytopeError, match=r"^recession direction \(0, 1\)$"):
        enumerate_vertices(half_spaces([(1, 0), (-1, 0)], [0, -1]))


def test_edge_walk_matches_the_subset_scan():
    rng = random.Random(755)
    fixtures = [
        resolve_fixture(name)
        for name in ["example-3.7", "example-3.8:1", "example-3.8:2", "example-3.8:7",
                     "cpn:1:3", "cpn:2:1", "cpn:3:10", "cpn:4:6"]
    ] + [unit_square(), hirzebruch(), hirzebruch(3, 2, 5)]
    polygons = [random_delzant_polygon(rng) for _ in range(600)]
    variants = [
        Q
        for P in fixtures[:4] + polygons[:20]
        for Q in (dilate(P, Fraction(7, 3)), apply_lattice_map(P, random_unimodular_map(rng, P.dim)))
    ]
    blowups = [blowup_polygon(random.Random(d), d) for d in range(5, 25)]
    non_delzant = [random_simple_non_delzant_polygon(rng) for _ in range(50)]
    for P in fixtures + lattice_point_ladder() + polygons + variants + blowups + non_delzant:
        assert_same_vertices(HalfspacePolytope(P.normals, P.offsets))


def test_an_unbounded_edge_of_the_walk_is_the_recession_direction(monkeypatch):
    # a 3-D prism over an 11-facet polygon, open upwards: the walk starts at
    # a simple vertex, so no C(d, n - 1) subset search runs
    def refuse(P):
        raise AssertionError("the walk met an unbounded edge; no subset search should run")

    monkeypatch.setattr(toricwidth.polytope, "recession_direction", refuse)
    for facets in (4, 11):
        polygon = blowup_polygon(random.Random(facets), facets)
        P = product_polytope(polygon, half_spaces([(1,)], [0]))
        with pytest.raises(UnboundedPolytopeError, match=r"^recession direction \(0, 0, 1\)$"):
            enumerate_vertices(P)
        Q = apply_lattice_map(P, random_unimodular_map(random.Random(facets), 3))
        with pytest.raises(UnboundedPolytopeError) as got:
            enumerate_vertices(Q)
        assert_recession_direction(Q, str(got.value))


@pytest.mark.parametrize("n", [3, 4])
def test_edge_walk_matches_the_subset_scan_in_higher_dimensions(n):
    rng = random.Random(n)
    for _ in range(40):
        P = random_delzant_polytope(rng, n)
        assert is_delzant(P)
        assert_same_vertices(HalfspacePolytope(P.normals, P.offsets))


def count_pivots(monkeypatch) -> dict[str, int]:
    """Counts of the pivots made before the edge walk starts ("start", the
    dual simplex) and in it ("walk"), and of the eliminations wherever
    polytope or lattice binds _eliminate, while the test runs; "start basis"
    holds the basis the last walk started from."""
    counts = {"start": 0, "walk": 0, "eliminations": 0, "start basis": None}
    phase = ["start"]
    pivot, walk = toricwidth.polytope._pivot, toricwidth.polytope._edge_walk
    eliminate = toricwidth.lattice._eliminate

    def counted_pivot(*args):
        counts[phase[0]] += 1
        return pivot(*args)

    def counted_walk(P, start):
        counts["start basis"] = start.basis
        phase[0] = "walk"
        try:
            return walk(P, start)
        finally:
            phase[0] = "start"

    def counted_eliminate(*args):
        counts["eliminations"] += 1
        return eliminate(*args)

    monkeypatch.setattr(toricwidth.polytope, "_pivot", counted_pivot)
    monkeypatch.setattr(toricwidth.polytope, "_edge_walk", counted_walk)
    for mod in (toricwidth.lattice, toricwidth.polytope):
        monkeypatch.setattr(mod, "_eliminate", counted_eliminate)
    return counts


def test_the_start_eliminates_once_and_the_walk_pivots_once_per_vertex(monkeypatch):
    # one elimination picks the first n independent normals and gives their
    # dictionary; every other vertex is one pivot of its parent's, on every
    # simple generator: fixtures, random polygons and polytopes, blow-up
    # polygons, simple non-Delzant polygons, their dilates and lattice images,
    # the lattice-point ladder and products up to b4^5
    counts = count_pivots(monkeypatch)
    rng = random.Random(36)
    b4, b5, b8 = (blowup_polygon(random.Random(s), d) for s, d in ((2, 4), (1, 5), (1, 8)))
    products = [product_polytope(b8, b8, b8), product_polytope(*[b5] * 4),
                product_polytope(*[b4] * 5), product_polytope(b4, SIMPLEX)]
    fixtures = [resolve_fixture(name) for name in ("example-3.7", "example-3.8:7", "cpn:3:10")]
    polygons = [random_delzant_polygon(rng) for _ in range(20)]
    polygons += [random_simple_non_delzant_polygon(rng) for _ in range(20)]
    polygons += [blowup_polygon(random.Random(d), d) for d in range(5, 16)]
    polytopes = [random_delzant_polytope(rng, n) for n in (3, 4) for _ in range(10)]
    simple = fixtures + polygons + polytopes + lattice_point_ladder()
    simple += [dilate(P, Fraction(5, 3)) for P in simple[:10]]
    simple += [apply_lattice_map(P, random_unimodular_map(rng, P.dim)) for P in simple[:10]]
    for P in products + simple:
        P = HalfspacePolytope(P.normals, P.offsets)
        counts.update(start=0, walk=0, eliminations=0)
        vertices = P.vertices
        assert all(len(v.active) == P.dim for v in vertices)
        assert counts["eliminations"] == 1
        assert counts["walk"] == len(vertices) - 1
    assert [len(P.vertices) for P in products[:3]] == [512, 625, 1024]


def test_an_empty_product_is_found_empty_by_the_dual_simplex_method(monkeypatch):
    # b12 x b12 and b8^3 with the facet x_1 >= 10^6: a Farkas row ends the
    # start, and no walk runs
    def refuse(P, start):
        raise AssertionError("no edge walk on an empty input")

    b8, b12 = blowup_polygon(random.Random(1), 8), blowup_polygon(random.Random(2), 12)
    monkeypatch.setattr(toricwidth.polytope, "_edge_walk", refuse)
    for P in (product_polytope(b12, b12), product_polytope(b8, b8, b8)):
        far = (1,) + (0,) * (P.dim - 1)
        Q = HalfspacePolytope(P.normals + (far,), P.offsets + (Fraction(10**6),))
        with pytest.raises(EmptyPolytopeError, match="^no feasible vertex$"):
            enumerate_vertices(Q)


def big_lattice_map(rng: random.Random, n: int) -> AffineLatticeMap:
    """(I + a E_ij)(I + b E_jk) for distinct i, j, k and |a|, |b| in
    [2^19, 2^20]: a unimodular map whose entry ab is near 2^40.  Its inverse
    I - a E_ij - b E_jk has no such entry, so the normals of the image under
    the inverse, which the transpose maps, carry ab."""
    i, j, k = rng.sample(range(n), 3)
    a, b = (rng.choice((-1, 1)) * rng.randint(2**19, 2**20) for _ in range(2))
    M = [[int(r == c) for c in range(n)] for r in range(n)]
    M[i][j], M[j][k], M[i][k] = a, b, a * b
    return AffineLatticeMap(tuple(map(tuple, M)), tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))


def test_the_exact_pivots_match_the_subset_scan(monkeypatch):
    # every division of a pivot is exact, at D = 1 and at D > 1: products,
    # 5/3-dilates, images with entries near 2^40, the simple polygons that
    # are not Delzant, and draws with their facets shuffled, which moves the
    # first n independent normals off the polytope so that the dual simplex
    # method pivots
    counts = count_pivots(monkeypatch)
    rng = random.Random(32)
    b4, b8 = blowup_polygon(random.Random(2), 4), blowup_polygon(random.Random(1), 8)
    inputs = [product_polytope(b8, b8), product_polytope(b4, b4, b4)]
    for n in (3, 4):
        for _ in range(8):
            P = random_delzant_polytope(rng, n)
            order = rng.sample(range(P.num_facets), P.num_facets)
            shuffled = HalfspacePolytope(
                tuple(P.normals[i] for i in order), tuple(P.offsets[i] for i in order)
            )
            f = big_lattice_map(rng, n)
            inputs += [P, dilate(P, Fraction(5, 3)), apply_lattice_map(P, f),
                       apply_lattice_map(P, f.inverse()), shuffled]
    inputs += [random_simple_non_delzant_polygon(rng) for _ in range(20)]
    assert max(abs(x) for P in inputs for u in P.normals for x in u) > 2**38
    starts = []
    dual_simplex = toricwidth.polytope._dual_simplex
    monkeypatch.setattr(
        toricwidth.polytope, "_dual_simplex",
        lambda dic: starts.append((dic.basis, dual_simplex(dic))) or starts[-1][1],
    )
    for P in inputs:
        starts.clear()
        assert_same_vertices(HalfspacePolytope(P.normals, P.offsets))
        # each pivot keeps the basis dual feasible, so the start minimizes
        # <c, x> over P, whose vertices the oracle has just confirmed, for c
        # the sum of the first n independent normals
        ((first, start),) = starts
        c = [sum(col) for col in zip(*(P.normals[i] for i in first))]
        q = P.integer_offsets[0]
        least = min(q * start.D * dot(c, v.point) for v in enumerate_vertices(P))
        assert dot(c, start.X[: P.dim]) == least
    assert counts["start"] > 0


def test_the_recession_direction_is_the_first_unbounded_edge_from_the_start():
    # on these two inputs the first feasible n-subset in combinations order
    # and the dual simplex start differ, and so does the first unbounded
    # edge the walk meets: (0, -1, 0, 0) and (-1, 0, 0, 0) before the start
    # moved to the dual simplex method
    cases = [
        (half_spaces(
            [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1),
             (0, 0, 0, -1), (-2, -2, -1, -1)],
            [-1, -3, 0, -1, 0, -1, 3],
        ), "(-1, 0, 0, 0)"),
        (half_spaces(
            [(-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0),
             (0, 0, 0, 1), (-2, 1, 2, -1)],
            [-1, 0, -3, 0, -1, 0, 2],
        ), "(-1, 0, 0, 2)"),
    ]
    for P, direction in cases:
        with pytest.raises(UnboundedPolytopeError) as got:
            enumerate_vertices(P)
        assert str(got.value) == f"recession direction {direction}"
        assert_recession_direction(P, str(got.value))


def pyramid(polygon, p):
    """The pyramid over a polygon with integer offsets, apex (p, 1) for a
    lattice point p inside it: z >= 0 and <u_i, x> + (lambda_i - <u_i, p>) z
    >= lambda_i, so the apex lies on every side facet."""
    sides = [(*u, int(l) - dot(u, p)) for u, l in zip(polygon.normals, polygon.offsets)]
    return half_spaces([(0, 0, 1), *sides], [0, *polygon.offsets])


DODECAGON = half_spaces(
    [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0), (-2, -1), (-1, -1), (-1, -2),
     (0, -1), (1, -1)],
    [-5, -11, -7, -11, -5, -7, -5, -11, -7, -11, -5, -7],
)


def test_the_walk_visits_each_lexicographically_feasible_basis_once(monkeypatch):
    # polytopes that are not simple: one facet enters per edge of the
    # perturbed polytope, so the walk reaches each of its bases, the
    # lexicographically feasible bases of P for the start's perturbation,
    # once, from the start's one elimination; they are a subset of P's
    # feasible bases
    counts = count_pivots(monkeypatch)
    square = half_spaces([(1, 0), (0, 1), (-1, 0), (0, -1)], [-1, -1, -1, -1])
    pyramids = [pyramid(square, (0, 0)), pyramid(DODECAGON, (0, 0))]
    # the apex (0, 0, 1) lies on every side facet
    assert [len(P.vertices) for P in pyramids] == [5, 13]
    assert [max(len(v.active) for v in P.vertices) for P in pyramids] == [4, 12]
    rng = random.Random(33)
    draws = [random_cut_cube(rng, n) for n in (2, 3, 4) for _ in range(100)]
    bounded = not_simple = fewer = 0
    for P in pyramids + [CUT_CUBE] + draws:
        assert_same_vertices(P)
        if raises(enumerate_vertices, P):
            continue
        bounded += 1
        counts.update(start=0, walk=0, eliminations=0)
        vertices = enumerate_vertices(P)
        assert counts["eliminations"] == 1
        bases = oracle_lex_feasible_bases(P, counts["start basis"])
        feasible = oracle_feasible_bases(P)
        assert counts["walk"] + 1 == bases <= feasible
        fewer += bases < feasible
        assert all((len(v.active) == P.dim) == (v.edges is not None) for v in vertices)
        not_simple += any(v.edges is None for v in vertices)
    assert bounded > 200 and not_simple > 150 and fewer > 100
    # the apex of the pyramid over the dodecagon takes the 10 triangles of a
    # triangulation of its vertex figure, against its C(12, 3) feasible bases
    counts.update(walk=0)
    enumerate_vertices(HalfspacePolytope(pyramids[1].normals, pyramids[1].offsets))
    assert counts["walk"] + 1 == 12 + 10


@pytest.mark.parametrize("D", [20, 40])
def test_a_pyramid_is_refused_after_pivots_that_follow_its_facets(monkeypatch, D):
    # pyrD has D + 1 facets and D + 1 vertices, its apex on D facets; the
    # walk over every feasible basis took 1,159 and 9,919 pivots on pyr20 and
    # pyr40, the perturbed walk takes D - 2 bases at the apex and one at
    # each vertex of the base
    counts = count_pivots(monkeypatch)
    P = geomgen.pyramid(D)
    assert (P.num_facets, len(P.vertices)) == (D + 1, D + 1)
    counts.update(start=0, walk=0, eliminations=0)
    P = HalfspacePolytope(P.normals, P.offsets)
    with pytest.raises(NotDelzantError) as got:
        delzant_vertices(P)
    assert str(got.value) == oracle_refusal(P)
    if D == 40:
        assert str(got.value) == "vertex (32, 32, 1) lies on 40 facets"
    assert counts["eliminations"] == 1
    assert counts["start"] + counts["walk"] <= 2 * (D + 1)
    assert counts["walk"] + 1 == (D - 2) + D


def test_an_open_pyramid_reports_the_first_unbounded_edge_of_the_walk():
    # the apex lies on all four facets; the walk meets the unbounded edge
    # (-1, 1, -1) first, where the search over pairs of normals finds another
    P = half_spaces([(0, 1, -1), (1, 0, -1), (0, -1, -1), (-1, 0, -1)], [0, 0, 0, 0])
    assert recession_direction(P) == (-1, -1, -1)
    with pytest.raises(UnboundedPolytopeError, match=r"^recession direction \(-1, 1, -1\)$"):
        enumerate_vertices(P)
    assert_same_vertices(P)
