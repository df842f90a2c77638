"""End-to-end checks tying the whole pipeline to its frozen expected values.

Each test covers one headline guarantee of the package; together they pin the
worked examples, the dual construction routes, the exact chart algebra, the
floating point verification layer, and the randomized property suite.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np

from geomgen import (
    _oracle_kernel_param,
    _oracle_phi,
    dilate,
    hirzebruch,
    mat_mul,
    oracle_is_smooth,
    oracle_lattice_points,
    polytope_from_support,
    random_delzant_polygon,
    random_simple_non_delzant_polygon,
    sections_by_conditions,
    unit_square,
)
from toricwidth.charts import chart_for_cone, transition_map
from toricwidth.embedding import sections_by_polytope
from toricwidth.fan import normal_fan
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    iterated_plane_blowup,
    projective_space,
)
from toricwidth.numeric import (
    ToricPotential,
    axis_radius_bounds,
    evaluate,
    potential_partial,
    potential_value,
    pullback_check,
    radial_quantities,
    sup_along_path,
    suggested_path_exponent,
)
from toricwidth.polytope import enumerate_vertices, is_delzant, lattice_points
from toricwidth.width import cylinder_bound, verify_fano_certificate, width_report

TEST_POLYTOPES = [
    projective_space(2, 1),
    unit_square(),
    hirzebruch(),
    blown_up_hirzebruch(),
    dilate(iterated_plane_blowup(1), 2),
]


def vertex_for_cone(P, cone):
    for v in enumerate_vertices(P):
        if v.active == tuple(cone):
            return v
    raise AssertionError(f"no vertex with active set {cone}")


def random_torus_point(rng, n):
    return [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for _ in range(n)]


def random_disc_point(rng, n):
    return [
        cmath.rect(rng.uniform(0.1, 0.9), rng.uniform(0, 2 * math.pi)) for _ in range(n)
    ]


def test_blown_up_hirzebruch_end_to_end():
    start = time.perf_counter()
    P = blown_up_hirzebruch()
    rep = width_report(P, P.vertices[0])
    elapsed = time.perf_counter() - start
    assert rep.lu_lambda.coefficient_pi == 8
    assert rep.lu_lambda.witness == (0, 1, 0, 1, 1, 0)
    assert rep.fano is None
    assert rep.cylinder.coefficient_pi == 6
    assert rep.min_bound_pi == 6
    assert elapsed < 1.0
    print(
        f"PASS blown-up Hirzebruch: Lambda=8pi, cylinder=6pi, radius^2=6, "
        f"not Fano, {elapsed:.3f}s"
    )


def test_iterated_blowup_family_end_to_end():
    for m in (1, 2, 5, 10):
        start = time.perf_counter()
        P = iterated_plane_blowup(m)
        rep = width_report(P, P.vertices[0])
        elapsed = time.perf_counter() - start
        assert rep.lu_lambda.coefficient_pi == 2 * (6 + Fraction(2 * m, m + 1))
        assert rep.fano is None
        assert rep.cylinder.coefficient_pi == 8
        assert elapsed < 1.0
        print(
            f"PASS blowup family m={m}: Lambda={rep.lu_lambda.coefficient_pi}pi, "
            f"cylinder=8pi via scale q={P.integer_offsets[0]}, {elapsed:.3f}s"
        )


def test_projective_space_sanity():
    for n in (1, 2, 3):
        P = projective_space(n, 1)
        rep = width_report(P, P.vertices[0])
        assert rep.cylinder.coefficient_pi == 2
        assert rep.lu_lambda.coefficient_pi == 2
        assert rep.lu_gamma.coefficient_pi == 2
        assert rep.fano is not None
        assert verify_fano_certificate(P, rep.fano)
    print("PASS projective spaces n=1,2,3: every bound equals 2pi, Fano re-verified")


def test_section_methods_agree_on_every_cone():
    # embed's lattice-point construction against the invariance-conditions
    # oracle, cone by cone, on the fixtures and 30 random Delzant polygons
    rng = random.Random(8)
    polygons = [random_delzant_polygon(rng) for _ in range(30)]
    total = 0
    for P in TEST_POLYTOPES + polygons:
        F = normal_fan(P)
        g = P.integer_offsets[1]
        for ci, cone in enumerate(F.max_cones):
            by_conditions = sections_by_conditions(F, g, ci)
            by_polytope = sections_by_polytope(P, vertex_for_cone(P, cone))
            assert by_conditions.exponents == by_polytope.exponents
            total += 1
    print(f"PASS dual section routes agree on all {total} maximal cones of 35 fans")


def test_chart_cocycle_and_kernel_invariance():
    rng = random.Random(2026)
    cones = 0
    for P in TEST_POLYTOPES:
        F = normal_fan(P)
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        for C1 in charts:
            for C2 in charts:
                E12 = transition_map(C1, C2)
                for C3 in charts:
                    E23 = transition_map(C2, C3)
                    E13 = transition_map(C1, C3)
                    assert mat_mul(E23, E12) == E13
        for C in charts:
            cones += 1
            for _ in range(10):
                z = random_torus_point(rng, len(F.generators))
                ac = random_torus_point(rng, len(C.complement))
                alpha = _oracle_kernel_param(C, ac)
                moved = np.array(_oracle_phi(C, [a * w for a, w in zip(alpha, z)]))
                fixed = np.array(_oracle_phi(C, z))
                dev = np.max(np.abs(moved - fixed) / np.maximum(1.0, np.abs(fixed)))
                assert dev < 1e-9
    print(
        f"PASS chart algebra: exact cocycles on 5 fans, kernel invariance "
        f"< 1e-9 at 10 points for each of {cones} charts"
    )


def test_pullback_identity_and_gradient():
    rng = random.Random(3001)
    potentials = {
        "projective plane": ToricPotential(
            sections_by_polytope(
                projective_space(2, 1), enumerate_vertices(projective_space(2, 1))[0]
            )
        ),
        "blown-up Hirzebruch": ToricPotential(
            sections_by_polytope(
                blown_up_hirzebruch(), enumerate_vertices(blown_up_hirzebruch())[0]
            )
        ),
    }
    for label, T in potentials.items():
        worst = 0.0
        for _ in range(20):
            xi = random_disc_point(rng, T.dim)
            worst = max(worst, pullback_check(T, xi))
        assert worst < 1e-4
        worst_grad = 0.0
        for _ in range(20):
            x = [rng.uniform(0.1, 3.0) for _ in range(T.dim)]
            for j in range(T.dim):
                h = 1e-6 * x[j]
                xp, xm = list(x), list(x)
                xp[j] += h
                xm[j] -= h
                fd = (potential_value(T, xp) - potential_value(T, xm)) / (2 * h)
                a = potential_partial(T, x, j)
                worst_grad = max(worst_grad, abs(a - fd) / max(1.0, abs(a)))
        assert worst_grad < 1e-5
        print(
            f"PASS pullback for {label}: form deviation {worst:.2e} < 1e-4, "
            f"gradient deviation {worst_grad:.2e} < 1e-5"
        )


def test_path_supremum_and_radial_bound():
    rng = random.Random(4001)
    for P in TEST_POLYTOPES:
        T = ToricPotential(sections_by_polytope(P, enumerate_vertices(P)[0]))
        for j in range(T.dim):
            s = suggested_path_exponent(T, j)
            sup = sup_along_path(T, j, s, 1e9)
            assert abs(sup - axis_radius_bounds(T)[j]) < 1e-3
        for _ in range(100):
            x = [rng.uniform(0.1, 3.0) for _ in range(T.dim)]
            radial = radial_quantities(evaluate(T, [x]))[0]
            for j in range(T.dim):
                assert radial[j] <= axis_radius_bounds(T)[j] + 1e-12
    print(
        "PASS radial analysis: path supremum within 1e-3 of sqrt(2 max) on "
        "every axis of 5 embeddings; bound holds at 100 random points each"
    )


def test_random_polygon_property_suite():
    rng = random.Random(50_000)
    for _ in range(50):
        P = random_delzant_polygon(rng)
        F = normal_fan(P)
        assert is_delzant(P) and oracle_is_smooth(F)
        assert list(lattice_points(P)) == oracle_lattice_points(P)
        g = P.integer_offsets[1]
        Q = polytope_from_support(F, g)
        assert Q.normals == P.normals and Q.offsets == P.offsets
        v = enumerate_vertices(P)[0]
        base = cylinder_bound(P, v).coefficient_pi
        for q in (2, 3):
            Pq = dilate(P, q)
            vq = next(
                w
                for w in enumerate_vertices(Pq)
                if w.point == tuple(q * c for c in v.point)
            )
            scaled = cylinder_bound(Pq, vq).coefficient_pi
            assert scaled == q * base
    for _ in range(10):
        P = random_simple_non_delzant_polygon(rng)
        assert not is_delzant(P) and not oracle_is_smooth(normal_fan(P))
    print(
        "PASS property suite: 50 random Delzant polygons (smoothness, lattice "
        "oracle, support round-trip, linear scaling) and 10 non-Delzant rejections"
    )
