import cmath
import math
import random
from fractions import Fraction

import pytest

from geomgen import (
    _oracle_kernel_param,
    blowup_polygon,
    dilate,
    embedding_from_exponents,
    full_section_exponents,
    hirzebruch,
    oracle_sections,
    random_delzant_polygon,
    random_delzant_polytope,
    sections_by_conditions,
    twist_exponents,
    unit_square,
)
from toricwidth.charts import chart_for_cone
from toricwidth.embedding import MonomialEmbedding, sections_by_polytope
from toricwidth.fan import normal_fan
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    iterated_plane_blowup,
    projective_space,
    resolve_fixture,
)
from toricwidth.polytope import HalfspacePolytope, enumerate_vertices

TOL = 1e-9

TEST_POLYTOPES = [
    projective_space(2, 1),
    unit_square(),
    hirzebruch(),
    blown_up_hirzebruch(),
    dilate(iterated_plane_blowup(1), 2),
]


def test_embedding_normalizes():
    E = embedding_from_exponents(((1, 0), (0, 0), (0, 1)))
    assert E.exponents == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError):
        embedding_from_exponents(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        embedding_from_exponents(((-1, 0),))


def test_embedding_groups_exponents_into_fibres():
    E = embedding_from_exponents(((1, 0), (0, 0), (0, 1), (0, 2), (3, 5)))
    assert E.fibres == (((0,), 0, 2), ((1,), 0, 0), ((3,), 5, 5))
    assert MonomialEmbedding.from_fibres(E.fibres) == E
    assert E.dim == 2 and embedding_from_exponents(((2,), (1,))).fibres == (((), 1, 2),)
    with pytest.raises(ValueError, match="duplicate exponent"):
        embedding_from_exponents(((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        embedding_from_exponents(((-1, 0),))
    with pytest.raises(ValueError, match="exponents must share one dimension"):
        embedding_from_exponents(((0, 0), (0,)))
    with pytest.raises(ValueError, match="interval of x_n over each prefix"):
        embedding_from_exponents(((0, 0), (0, 2)))


@pytest.mark.parametrize(
    "fibres, message",
    [
        ((), "at least one exponent"),
        ((((0,), -2, -1),), "nonnegative"),  # negative ends
        ((((0,), 0, -1),), r"empty fibre \[0, -1\]"),  # a negative end
        ((((1, -1), 0, 3),), "nonnegative"),
        ((((0,), 3, 2),), r"empty fibre \[3, 2\]"),
        ((((0,), 0, 1), ((0,), 3, 4)), "increase strictly"),  # a repeated prefix
        ((((1,), 0, 1), ((0,), 0, 1)), "increase strictly"),
        ((((0,), 0, 1), ((1, 0), 0, 1)), "share one dimension"),
    ],
)
def test_malformed_fibres_raise(fibres, message):
    with pytest.raises(ValueError, match=message):
        MonomialEmbedding.from_fibres(fibres)


def test_twist_exponents_blowup():
    P = blown_up_hirzebruch()
    F = normal_fan(P)
    g = P.integer_offsets[1]
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert twist_exponents(C, g) == (-1, -1, -3, -3)


def test_twist_exponents_cp2_degree2():
    P = dilate(projective_space(2, 1), 2)
    F = normal_fan(P)
    g = P.integer_offsets[1]
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert twist_exponents(C, g) == (-2,)


def test_sections_cp2():
    P = projective_space(2, 1)
    v = enumerate_vertices(P)[0]
    E = sections_by_polytope(P, v)
    assert E.exponents == ((0, 0), (0, 1), (1, 0))
    E2 = sections_by_polytope(dilate(P, 2), enumerate_vertices(dilate(P, 2))[0])
    assert len(E2.exponents) == 6


def test_sections_of_a_rational_polytope_are_those_of_qp_at_every_vertex():
    # at P's k-th vertex the exponents are the lattice points of qP
    # normalized at its k-th vertex; q is 1, 3, 2 and 4 on example-3.8:m
    # (offset -2m / (m + 1)), 3 on the 5/3-dilates and 15 on the segment
    rng = random.Random(30)
    drawn = [random_delzant_polygon(rng) for _ in range(4)]
    drawn += [blowup_polygon(random.Random(d), d) for d in (5, 7, 9)]
    drawn += [random_delzant_polytope(random.Random(seed), 3) for seed in (0, 2)]
    cases = [resolve_fixture(f"example-3.8:{m}") for m in (1, 2, 3, 7)]
    cases += [dilate(P, Fraction(5, 3)) for P in drawn]
    cases.append(HalfspacePolytope(((1,), (-1,)), (Fraction(-7, 3), Fraction(-11, 5))))
    assert [P.integer_offsets[0] for P in cases] == [1, 3, 2, 4] + [3] * len(drawn) + [15]
    for i, P in enumerate(cases):
        for k, v in enumerate(P.vertices):
            assert sections_by_polytope(P, v).exponents == oracle_sections(P, k), (i, k)


def test_sections_by_conditions_requires_strict_convexity():
    F = normal_fan(unit_square())
    with pytest.raises(ValueError):
        sections_by_conditions(F, (0, 0, 0, 0), 0)
    # the polytope {x >= 0, y >= 0, -x - y >= 1} of this g is empty
    with pytest.raises(ValueError, match="support function is not strictly convex"):
        sections_by_conditions(normal_fan(projective_space(2, 1)), (0, 0, 1), 0)


def test_dual_section_methods_agree_everywhere():
    for P in TEST_POLYTOPES:
        F = normal_fan(P)
        g = P.integer_offsets[1]
        vertices = enumerate_vertices(P)
        for ci, cone in enumerate(F.max_cones):
            A = sections_by_conditions(F, g, ci)
            v = next(w for w in vertices if w.active == cone)
            B = sections_by_polytope(P, v)
            assert A.exponents == B.exponents


def test_section_count_is_vertex_independent():
    for P in TEST_POLYTOPES:
        counts = {len(sections_by_polytope(P, v).exponents) for v in enumerate_vertices(P)}
        assert len(counts) == 1


def test_full_section_exponents_nonnegative_and_consistent():
    P = blown_up_hirzebruch()
    F = normal_fan(P)
    g = P.integer_offsets[1]
    for ci in range(len(F.max_cones)):
        pairs = full_section_exponents(F, g, ci)
        assert len(pairs) == 10
        for x_cone, x_comp in pairs:
            assert all(e >= 0 for e in x_cone)
            assert all(e >= 0 for e in x_comp)


def test_section_kernel_transformation_law():
    # a section built from (x_cone, x_comp) rescales by the twist of the
    # kernel element: F(alpha . z) = prod alpha_i^{-g(u_i)} F(z)
    rng = random.Random(11)
    P = blown_up_hirzebruch()
    F = normal_fan(P)
    g = P.integer_offsets[1]
    d = len(F.generators)
    for ci in range(len(F.max_cones)):
        C = chart_for_cone(F, ci)
        pairs = full_section_exponents(F, g, ci)
        exps = {}
        for x_cone, x_comp in pairs:
            full = [0] * d
            for k, j in enumerate(C.cone):
                full[j] = x_cone[k]
            for l, j in enumerate(C.complement):
                full[j] = x_comp[l]
            exps[tuple(full)] = None
        for full in exps:
            for _ in range(3):
                z = [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for _ in range(d)]
                ac = [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for _ in C.complement]
                alpha = _oracle_kernel_param(C, ac)

                def ev(w):
                    out = 1.0 + 0j
                    for c, e in zip(w, full):
                        out *= c**e
                    return out

                factor = 1.0 + 0j
                for a, gi in zip(alpha, g):
                    factor *= a ** (-gi)
                lhs = ev([a * w for a, w in zip(alpha, z)])
                rhs = factor * ev(z)
                assert abs(lhs - rhs) / max(1.0, abs(rhs)) < TOL

