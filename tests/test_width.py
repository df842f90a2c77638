import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import toricwidth.lattice
import toricwidth.polytope
import toricwidth.width
from geomgen import (
    apply_lattice_map,
    blow_up,
    blowup_polygon,
    dilate,
    hirzebruch,
    lattice_point_ladder,
    oracle_cylinder_bound,
    oracle_fano_check,
    oracle_lu_gamma,
    oracle_lu_lambda,
    oracle_relations,
    product_polytope,
    random_delzant_polygon,
    random_delzant_polytope,
    random_simple_non_delzant_polygon,
    random_unimodular_map,
    rref_fano_check,
    unit_square,
)
from toricwidth.embedding import sections_by_polytope
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    iterated_plane_blowup,
    projective_space,
    resolve_fixture,
)
from toricwidth.lattice import dot
from toricwidth.polytope import (
    HalfspacePolytope,
    NotDelzantError,
    delzant_vertices,
    enumerate_vertices,
    is_delzant,
)
from toricwidth.width import (
    GAMMA_CAVEAT,
    FanoCertificate,
    LambdaBound,
    _half_sums,
    _relations,
    cylinder_bound,
    fano_check,
    lu_gamma,
    lu_lambda,
    verify_fano_certificate,
    width_report,
)


def test_cylinder_bound_blowup():
    P = blown_up_hirzebruch()
    b = cylinder_bound(P, enumerate_vertices(P)[0])
    assert b.axis_maxima == (4, 3)
    assert b.coefficient_pi == 6
    assert b.axis == 1


def test_cylinder_bound_tie_breaks_to_smallest_axis():
    P = unit_square()
    assert cylinder_bound(P, enumerate_vertices(P)[0]).axis == 0


def test_lu_lambda_simplex():
    lam = lu_lambda(projective_space(2, 1))
    assert lam.coefficient_pi == 2
    assert lam.witness == (1, 1, 1)


def test_lu_lambda_blowup():
    lam = lu_lambda(blown_up_hirzebruch())
    assert lam.coefficient_pi == 8
    assert lam.witness == (0, 1, 0, 1, 1, 0)


def test_lu_lambda_family_exact():
    for m in (1, 2, 5, 10):
        lam = lu_lambda(iterated_plane_blowup(m))
        assert lam.coefficient_pi == 2 * (6 + Fraction(2 * m, m + 1))
        assert lam.witness == (0, 0, 1, 1, 0, 0, 1)


def test_lu_lambda_against_independent_enumeration():
    rng = random.Random(77)
    fixtures = [
        unit_square(),
        hirzebruch(),
        blown_up_hirzebruch(),
        iterated_plane_blowup(3),
        projective_space(3, 2),
    ] + [random_delzant_polygon(rng) for _ in range(10)]
    # the oracle's grid has (n + 2)^d points, so the 3-D draws keep d <= 6
    solids = []
    while len(solids) < 5:
        P = random_delzant_polytope(rng, 3)
        if P.num_facets <= 6:
            solids.append(P)
    for P in fixtures + solids:
        got = lu_lambda(P)
        want = oracle_lu_lambda(P)
        assert (got.coefficient_pi, got.witness) == want


def test_lu_lambda_no_relation():
    # a simplex shifted so one facet normal is replaced: normals of a cone
    # at the origin admit no nonnegative relation
    P = HalfspacePolytope(((1, 0), (0, 1), (-1, -2)), (0, 0, -2))
    lam = lu_lambda(P)
    assert lam is None


def test_fano_simplex_certificate():
    P = projective_space(2, 1)
    cert = fano_check(P)
    assert cert is not None
    assert cert.r == 3
    assert cert.m == (Fraction(-1, 3), Fraction(-1, 3))
    assert cert.signs == (-1, -1, -1)
    assert verify_fano_certificate(P, cert)


def test_fano_family_members():
    for n in (1, 2, 3):
        cert = fano_check(projective_space(n, 1))
        assert cert is not None and cert.r == n + 1
        assert verify_fano_certificate(projective_space(n, 1), cert)
    cert = fano_check(unit_square())
    assert cert is not None and cert.r == 2
    assert cert.m == (Fraction(-1, 2), Fraction(-1, 2))


def test_fano_rejects_non_monotone():
    assert fano_check(blown_up_hirzebruch()) is None
    for m in (1, 2, 5):
        assert fano_check(iterated_plane_blowup(m)) is None
    # degree-2 class on the simplex is a rescaled monotone class but the
    # normalization r(lambda + <m,u>) = -1 still has a solution with r = 3/2
    cert = fano_check(dilate(projective_space(2, 1), 2))
    assert cert is not None and cert.r == Fraction(3, 2)


def test_verify_fano_rejects_tampering():
    P = projective_space(2, 1)
    cert = fano_check(P)
    bad = type(cert)(r=cert.r, m=(Fraction(0), Fraction(0)), signs=cert.signs)
    assert not verify_fano_certificate(P, bad)
    for signs in (cert.signs[:-1], cert.signs + (-1,)):
        assert not verify_fano_certificate(P, type(cert)(cert.r, cert.m, signs))
    for m in (cert.m[:-1], cert.m + (Fraction(-1, 3),)):
        assert not verify_fano_certificate(P, type(cert)(cert.r, m, cert.signs))
    # the equations hold, but the sign +1 leaves the origin outside the interior
    assert not verify_fano_certificate(P, type(cert)(Fraction(1), (-1, -1), (-1, -1, 1)))


def test_verify_fano_certificate_rejects_unbounded_input():
    # r = 1, m = 0 solves the equations of {x >= -1, y >= -1}, but every
    # lattice point of the quadrant is interior to {x >= -1, y >= -1}
    P = HalfspacePolytope(((1, 0), (0, 1)), (-1, -1))
    cert = FanoCertificate(Fraction(1), (Fraction(0), Fraction(0)), (-1, -1))
    assert verify_fano_certificate(P, cert) is False


def test_lu_gamma_simplex_and_square():
    P = projective_space(2, 1)
    gamma = lu_gamma(P, fano_check(P))
    assert gamma.coefficient_pi == 2
    assert gamma.search_bound == 6
    P = unit_square()
    gamma = lu_gamma(P, fano_check(P))
    assert gamma.coefficient_pi == 2
    assert sum(gamma.witness) == 2


def test_lu_gamma_requires_fano():
    for P in (blown_up_hirzebruch(), iterated_plane_blowup(1)):
        rep = width_report(P, P.vertices[0])
        assert rep.fano is None and rep.lu_gamma is None
        assert rep.gamma_note == GAMMA_CAVEAT


def test_width_report_blowup():
    P = blown_up_hirzebruch()
    rep = width_report(P, P.vertices[0])
    assert rep.cylinder.coefficient_pi == 6
    assert rep.lu_lambda.coefficient_pi == 8
    assert rep.lu_lambda.witness == (0, 1, 0, 1, 1, 0)
    assert rep.fano is None
    assert rep.lu_gamma is None
    assert rep.gamma_note == GAMMA_CAVEAT
    assert rep.min_bound_pi == 6
    assert rep.cylinder.axis == 1


def test_width_report_family():
    for m in (1, 2, 5, 10):
        P = iterated_plane_blowup(m)
        rep = width_report(P, P.vertices[0])
        assert rep.cylinder.coefficient_pi == 8
        assert rep.lu_lambda.coefficient_pi == 2 * (6 + Fraction(2 * m, m + 1))
        assert rep.min_bound_pi == 8


def test_width_report_projective_spaces():
    for n in (1, 2, 3):
        P = projective_space(n, 1)
        rep = width_report(P, P.vertices[0])
        assert rep.cylinder.coefficient_pi == 2
        assert rep.lu_lambda.coefficient_pi == 2
        assert rep.lu_gamma.coefficient_pi == 2
        assert rep.min_bound_pi == 2
        assert rep.fano is not None
        assert rep.gamma_note is None


def test_width_report_vertex_choice():
    P = blown_up_hirzebruch()
    v = P.vertices[5]
    assert v.point == (4, 3)
    rep = width_report(P, v)
    # maxima at the far vertex still dominate the polytope's extent
    assert rep.cylinder == cylinder_bound(P, v)
    assert rep.cylinder.coefficient_pi == min(rep.cylinder.axis_maxima) * 2
    # the vertex comes from the caller, but the Delzant gate stays
    triangle = HalfspacePolytope(((1, 0), (0, 1), (-1, -2)), (0, 0, -2))
    with pytest.raises(NotDelzantError, match="do not form a Z-basis"):
        width_report(triangle, triangle.vertices[0])


def test_width_report_scales_offsets_exactly():
    # same geometry, offsets written with denominator 4
    P = HalfspacePolytope(
        ((1, 0), (0, 1), (-1, 0), (0, -1)),
        (0, 0, Fraction(-5, 4), Fraction(-5, 4)),
    )
    rep = width_report(P, P.vertices[0])
    assert P.integer_offsets[0] == 4
    assert rep.cylinder.coefficient_pi == Fraction(2 * 5, 4)
    assert rep.cylinder.axis_maxima == (Fraction(5, 4), Fraction(5, 4))


def test_cylinder_bound_scales_linearly():
    rng = random.Random(13)
    for _ in range(10):
        P = random_delzant_polygon(rng)
        v = enumerate_vertices(P)[0]
        base = cylinder_bound(P, v).coefficient_pi
        for q in (2, 3):
            Pq = dilate(P, q)
            vq = next(
                w
                for w in enumerate_vertices(Pq)
                if w.point == tuple(q * c for c in v.point)
            )
            assert cylinder_bound(Pq, vq).coefficient_pi == q * base


REFLEXIVE_HEXAGON = HalfspacePolytope(
    ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)), (-1,) * 6
)


def _random_blown_up_polygons(rng, count, max_facets=10):
    """geomgen polygons blown up at random vertices, up to max_facets facets."""
    out = []
    while len(out) < count:
        P = random_delzant_polygon(rng)
        while P.num_facets < max_facets and rng.random() < 0.8:
            cuts = [blow_up(P, v.active, k) for v in enumerate_vertices(P) for k in (1, 2)]
            # a deep cut can swallow a vertex and leave a facet that touches nothing
            cuts = [Q for Q in cuts if is_delzant(Q) and len(Q.vertices) == Q.num_facets]
            if not cuts:
                break
            P = rng.choice(cuts)
        out.append(P)
    return out


def _fano_ladder():
    rng = random.Random(2006)
    base = [
        blown_up_hirzebruch(),
        hirzebruch(),
        iterated_plane_blowup(1),
        iterated_plane_blowup(2),
        *(projective_space(n, k) for n in (1, 2, 3, 4) for k in (1, 2)),
        unit_square(),
        REFLEXIVE_HEXAGON,
        product_polytope(projective_space(1), projective_space(2)),
        product_polytope(unit_square(), projective_space(1)),
    ]
    dilated = [dilate(P, c) for P in base for c in (2, Fraction(1, 3), Fraction(5, 2))]
    images = [
        apply_lattice_map(P, random_unimodular_map(rng, P.dim))
        for P in base + dilated
        if P.dim > 1
    ]
    return base + dilated + images + _random_blown_up_polygons(rng, 20)


def test_fano_and_gamma_match_sign_pattern_oracles():
    monotone = 0
    for P in _fano_ladder():
        cert = fano_check(P)
        assert cert == oracle_fano_check(P)
        if cert is None:
            continue
        monotone += 1
        gamma = lu_gamma(P, cert)
        got = None if gamma is None else (gamma.coefficient_pi, gamma.witness)
        assert got == oracle_lu_gamma(P, 2 * (P.dim + 1))
        assert gamma is None or gamma.search_bound == 2 * (P.dim + 1)
    assert monotone >= 40


def test_cylinder_bound_matches_lattice_point_maxima():
    rng = random.Random(1996)
    polygons = [random_delzant_polygon(rng) for _ in range(20)]
    fixtures = [
        blown_up_hirzebruch(),
        hirzebruch(),
        iterated_plane_blowup(1),
        iterated_plane_blowup(3),
        projective_space(3, 2),
        unit_square(),
    ]
    dilations = [dilate(P, c) for P in polygons for c in (Fraction(2, 3), Fraction(5, 2))]
    for P in fixtures + polygons + dilations:
        q = P.integer_offsets[0]
        Pq = dilate(P, q)
        for v in enumerate_vertices(P):
            vq = next(w for w in Pq.vertices if w.point == tuple(q * c for c in v.point))
            E = sections_by_polytope(Pq, vq)
            want = tuple(max(J[j] for J in E.exponents) for j in range(P.dim))
            assert tuple(q * m for m in cylinder_bound(P, v).axis_maxima) == want


def test_fano_check_makes_no_elimination(monkeypatch):
    # the certificate is read off the first vertex's pairings and slacks, so
    # once the walk has run, fano_check eliminates nothing, on a monotone
    # input and on one that is not
    calls = []
    real = toricwidth.lattice._eliminate
    for mod in (toricwidth.lattice, toricwidth.polytope):
        monkeypatch.setattr(mod, "_eliminate", lambda A, w: calls.append(A) or real(A, w))
    octagon = HalfspacePolytope(
        ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)),
        (0, 0, -9, -9, 3, -6, -15, -6),
    )
    P = blow_up(blow_up(octagon, (0, 4)), (1, 4))
    assert P.num_facets == 10 and is_delzant(P)
    for Q, monotone in ((P, False), (REFLEXIVE_HEXAGON, True)):
        Q.vertices
        calls.clear()
        assert (fano_check(Q) is not None) is monotone
        assert calls == []


def _relation_ladder():
    """Blow-up polygons with 4 to 16 facets at seeds 1 and 2, 3-D and 4-D
    draws, projective spaces, the paper's examples, the square and the
    hexagon; each with its dilations by 2, 1/3 and 5/2, so q > 1 occurs."""
    rng = random.Random(1606)
    base = [blowup_polygon(random.Random(seed), d) for seed in (1, 2) for d in range(4, 17)]
    base += [random_delzant_polytope(rng, n) for n in (3, 4) for _ in range(3)]
    base += [resolve_fixture(f) for f in ("cpn:2:1", "cpn:3:1", "cpn:4:1", "example-3.7", "example-3.8:5")]
    base += [unit_square(), REFLEXIVE_HEXAGON]
    return [[P] + [dilate(P, c) for c in (2, Fraction(1, 3), Fraction(5, 2))] for P in base]


def test_relation_join_matches_multiset_oracle():
    """The join lists the oracle's relations, each once, with the value
    q * -sum lambda_i a_i as an int, at every total up to 2(n + 1)."""
    scales = set()
    for family in _relation_ladder():
        totals = range(1, 2 * (family[0].dim + 1) + 1)
        want = {t: list(oracle_relations(family[0], (t,))) for t in totals}
        for P in family:
            q = P.integer_offsets[0]
            scales.add(q)
            for t in totals:
                (group,) = _relations(P, (t,))
                got = sorted(group)
                assert all(type(v) is int for _, v in got)
                assert got == sorted((a, -q * dot(P.offsets, a)) for a in want[t]), (P, t)
    assert {1, 2, 3} <= scales


def test_cylinder_bound_matches_fraction_oracle():
    """At every vertex, including lattice images with negative coordinates
    and non-Delzant polygons, whose vertices' denominators need not divide q."""
    rng = random.Random(1607)
    non_delzant = [random_simple_non_delzant_polygon(rng) for _ in range(5)]
    negative = 0
    for family in _relation_ladder() + [[P, dilate(P, Fraction(5, 3))] for P in non_delzant]:
        for P in family:
            image = apply_lattice_map(P, random_unimodular_map(rng, P.dim))
            negative += any(c < 0 for w in image.vertices for c in w.point)
            for Q in (P, image):
                for v in Q.vertices:
                    assert cylinder_bound(Q, v) == oracle_cylinder_bound(Q, v)
    assert negative >= 50


def test_fano_check_matches_the_rref_route():
    """The closed form at the first vertex gives the certificate that the
    rational rref of [U | lambda | -1] gave, on every Delzant input of every
    generator; the others are refused by the Delzant gate, with its
    exception and message."""
    rng = random.Random(1708)
    inputs = _fano_ladder() + [P for family in _relation_ladder() for P in family]
    inputs += [random_delzant_polygon(rng) for _ in range(20)]
    inputs += [random_simple_non_delzant_polygon(rng) for _ in range(10)]
    inputs += lattice_point_ladder()
    # unbounded, and fewer facets than unknowns
    inputs += [HalfspacePolytope(((1, 0), (0, 1), (1, 1)), (0, 0, 1)),
               HalfspacePolytope(((1, 0), (0, 1)), (0, 0))]
    certificates = refused = 0
    for P in inputs:
        try:
            delzant_vertices(P)
        except ValueError as e:
            refused += 1
            with pytest.raises(type(e)) as got:
                fano_check(P)
            assert type(got.value) is type(e) and str(got.value) == str(e), P
            continue
        cert = fano_check(P)
        assert cert == rref_fano_check(P), P
        certificates += cert is not None
    assert 50 <= certificates < len(inputs) - refused - 50
    assert refused == 12  # the 10 non-Delzant polygons and the 2 unbounded inputs


def test_half_sums_group_each_multiset_once_by_its_sum():
    P = random_delzant_polytope(random.Random(4), 3)
    for k, table in zip(range(5), _half_sums(P)):
        listed = sorted(m for ms in table.values() for m in ms)
        assert listed == list(combinations_with_replacement(range(P.num_facets), k))
        for s, ms in table.items():
            for m in ms:
                assert s == tuple(sum(P.normals[i][c] for i in m) for c in range(P.dim))


def test_lu_lambda_matches_relation_oracle():
    """The largest -sum lambda_i a_i over the oracle's relations of total
    1 to n + 1, with the least a among ties, on the 4-D draws, cpn:4:1 and
    the dilates, where the join reads tables of size 3."""
    for family in _relation_ladder():
        for P in family:
            found = [(-dot(P.offsets, a), a) for a in oracle_relations(P, range(1, P.dim + 2))]
            if not found:
                assert lu_lambda(P) is None
                continue
            best = max(value for value, _ in found)
            witness = min(a for value, a in found if value == best)
            assert lu_lambda(P) == LambdaBound(2 * best, witness), P


def test_lu_gamma_stops_at_its_first_total(monkeypatch):
    """cpn:4:1 has relations of totals 5 and 10 only; the first needs the
    tables of sizes 2 and 3, so gamma draws no table past size 3."""
    drawn = []
    real = toricwidth.width._half_sums

    def counting(P):
        for table in real(P):
            drawn.append(table)
            yield table

    monkeypatch.setattr(toricwidth.width, "_half_sums", counting)
    P = resolve_fixture("cpn:4:1")
    gamma = lu_gamma(P, fano_check(P))
    assert gamma.witness == (1,) * 5
    assert len(drawn) <= 4
