import cmath
import math
import random

import pytest

from geomgen import full_section_exponents, sections_by_conditions, twist_exponents
from toricwidth.charts import chart_for_cone, kernel_param
from toricwidth.embedding import MonomialEmbedding, sections_by_polytope
from toricwidth.fan import SupportFunction, normal_fan, support_function
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    hirzebruch,
    iterated_plane_blowup,
    projective_space,
    unit_square,
)
from toricwidth.polytope import enumerate_vertices, scale

TOL = 1e-9

TEST_POLYTOPES = [
    projective_space(2, 1),
    unit_square(),
    hirzebruch(),
    blown_up_hirzebruch(),
    scale(iterated_plane_blowup(1), 2),
]


def test_embedding_normalizes():
    E = MonomialEmbedding(((1, 0), (0, 0), (0, 1)))
    assert E.exponents == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError):
        MonomialEmbedding(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        MonomialEmbedding(((-1, 0),))


def test_embedding_groups_exponents_into_fibres():
    E = MonomialEmbedding(((1, 0), (0, 0), (0, 1), (0, 2), (3, 5)))
    assert E.fibres == (((0,), 0, 2), ((1,), 0, 0), ((3,), 5, 5))
    assert MonomialEmbedding.from_fibres(E.fibres) == E
    assert E.dim == 2 and MonomialEmbedding(((2,), (1,))).fibres == (((), 1, 2),)
    with pytest.raises(ValueError, match="duplicate exponent"):
        MonomialEmbedding(((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        MonomialEmbedding(((-1, 0),))
    with pytest.raises(ValueError, match="exponents must share one dimension"):
        MonomialEmbedding(((0, 0), (0,)))
    with pytest.raises(ValueError, match="interval of x_n over each prefix"):
        MonomialEmbedding(((0, 0), (0, 2)))


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
    g = support_function(P)
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert twist_exponents(C, g) == (-1, -1, -3, -3)


def test_twist_exponents_cp2_degree2():
    P = scale(projective_space(2, 1), 2)
    F = normal_fan(P)
    g = support_function(P)
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert twist_exponents(C, g) == (-2,)


def test_sections_cp2():
    P = projective_space(2, 1)
    v = enumerate_vertices(P)[0]
    E = sections_by_polytope(P, v)
    assert E.exponents == ((0, 0), (0, 1), (1, 0))
    E2 = sections_by_polytope(scale(P, 2), enumerate_vertices(scale(P, 2))[0])
    assert len(E2.exponents) == 6


def test_sections_by_conditions_requires_strict_convexity():
    F = normal_fan(unit_square())
    with pytest.raises(ValueError):
        sections_by_conditions(F, SupportFunction((0, 0, 0, 0)), 0)
    # the polytope {x >= 0, y >= 0, -x - y >= 1} of this g is empty
    with pytest.raises(ValueError, match="support function is not strictly convex"):
        sections_by_conditions(normal_fan(projective_space(2, 1)), SupportFunction((0, 0, 1)), 0)


def test_dual_section_methods_agree_everywhere():
    for P in TEST_POLYTOPES:
        F = normal_fan(P)
        g = support_function(P)
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
    g = support_function(P)
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
    g = support_function(P)
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
                alpha = kernel_param(C, ac)

                def ev(w):
                    out = 1.0 + 0j
                    for c, e in zip(w, full):
                        out *= c**e
                    return out

                factor = 1.0 + 0j
                for a, gi in zip(alpha, g.values):
                    factor *= a ** (-gi)
                lhs = ev([a * w for a, w in zip(alpha, z)])
                rhs = factor * ev(z)
                assert abs(lhs - rhs) / max(1.0, abs(rhs)) < TOL

