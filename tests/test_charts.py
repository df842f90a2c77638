import cmath
import dataclasses
import math
import random
import re

import numpy as np
import pytest

from toricwidth.charts import (
    ChartTable,
    NonUnimodularConeError,
    chart_for_cone,
    chart_table,
    transition_map,
)
from geomgen import (
    AffineLatticeMap,
    _oracle_kernel_param,
    _oracle_monomials,
    _oracle_phi,
    _oracle_psi,
    altered_table,
    apply_lattice_map,
    assert_same_flags,
    blowup_polygon,
    dilate,
    exponent_rows,
    failed_checks,
    hirzebruch,
    lattice_point_ladder,
    mat_mul,
    oracle_chart_for_cone,
    oracle_chart_suite,
    oracle_exponents_kill_relations,
    product_polytope,
    random_delzant_polygon,
    random_delzant_polytope,
    random_simple_non_delzant_polygon,
    random_unimodular_map,
    relation_and_cocycle,
    transition_exponents,
    transpose,
    unit_square,
)
from toricwidth.fan import Fan, normal_fan
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    iterated_plane_blowup,
    projective_space,
)
from toricwidth.lattice import dot, integer_kernel_basis
from toricwidth.verify import chart_suite, exact_checks

TOL = 1e-9

TEST_FANS = [
    normal_fan(projective_space(2, 1)),
    normal_fan(unit_square()),
    normal_fan(hirzebruch()),
    normal_fan(blown_up_hirzebruch()),
    normal_fan(dilate(iterated_plane_blowup(1), 2)),
]


def random_torus_point(rng, n):
    return [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for _ in range(n)]


def charts_of(F):
    return [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]


def rel_dev(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))


def test_cp2_chart_data():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert C.U == ((1, 0), (0, 1))
    assert C.U_inv == ((1, 0), (0, 1))
    assert C.V == ((-1,), (-1,))
    assert exponent_rows(C) == ((1, 0, -1), (0, 1, -1))


def test_blowup_chart_has_four_v_columns():
    F = normal_fan(blown_up_hirzebruch())
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert C.complement == (2, 3, 4, 5)
    cols = list(zip(*C.V))
    assert cols == [(1, -1), (-1, 1), (1, -2), (0, -1)]


def test_chart_rejects_non_unimodular():
    F = Fan(((1, 0), (1, 2)), ((0, 1),))
    with pytest.raises(NonUnimodularConeError):
        chart_for_cone(F, 0)


def oracle_chart_fans():
    """Blow-up polygons with 4 to 16 facets, 3-D and 4-D draws, b8 x b8, and
    lattice images of a polygon and a 3-D draw whose normals have entries
    of 2^40 and more."""
    rng = random.Random(16)
    polygons = [blowup_polygon(random.Random(40 + d), d) for d in range(4, 17)]
    draws = [random_delzant_polytope(rng, n) for n in (3, 3, 4, 4)]
    b8 = blowup_polygon(random.Random(1), 8)
    shears = (((1, 2**40), (0, 1)), ((1, 0, 2**40), (0, 1, -(2**40)), (0, 0, 1)))
    steep = [
        apply_lattice_map(P, AffineLatticeMap(M, (0,) * len(M)))
        for P, M in zip((polygons[-1], draws[0]), shears)
    ]
    return [normal_fan(P) for P in polygons + draws + [product_polytope(b8, b8)] + steep]


def test_chart_table_arrays_equal_np_array_of_the_walks_rows():
    # the arrays are read with fromiter; np.array over the nested tuples is
    # the oracle, in values, shape and dtype, on every generator
    rng = random.Random(17)
    b8 = blowup_polygon(random.Random(1), 8)
    polytopes = [random_delzant_polygon(rng) for _ in range(20)] + lattice_point_ladder()
    polytopes += [product_polytope(b8, b8, b8), hirzebruch(3, 2, 5)]
    fans = TEST_FANS + oracle_chart_fans() + [normal_fan(P) for P in polytopes]
    dtypes = []
    for F in fans:
        table = chart_table(F)
        dtype = table.T.dtype
        dtypes.append(dtype)
        for got, rows in ((table.generators, F.generators), (table.inverses, F.inverses),
                          (table.T, F.pairings)):
            want = np.array(rows, dtype=dtype)
            assert got.dtype == dtype and got.shape == want.shape
            assert (got == want).all()
    assert dtypes.count(object) == 2 and dtypes[-2] == np.int64  # the steep fans; b8³


def test_chart_for_cone_matches_its_own_elimination():
    # the fan's inverses come from the edge walk; the oracle eliminates
    # [U | I | W] per cone, as chart_for_cone did before it read them
    fans = oracle_chart_fans()
    for F in fans:
        for ci in range(len(F.max_cones)):
            got, want = chart_for_cone(F, ci), oracle_chart_for_cone(F, ci)
            assert (got.cone, got.complement) == (want.cone, want.complement)
            assert (got.U, got.U_inv, got.V) == (want.U, want.U_inv, want.V)
            assert all(type(x) is int for M in (got.U_inv, got.V) for row in M for x in row)
    assert all(max(abs(x) for u in F.generators for x in u) >= 2**40 for F in fans[-2:])


def test_chart_for_cone_refuses_what_its_own_elimination_refuses():
    rng = random.Random(17)
    for _ in range(10):
        F = normal_fan(random_simple_non_delzant_polygon(rng))
        refused = 0
        for ci in range(len(F.max_cones)):
            try:
                want = oracle_chart_for_cone(F, ci)
            except NonUnimodularConeError as e:
                with pytest.raises(NonUnimodularConeError, match=f"^{re.escape(str(e))}$"):
                    chart_for_cone(F, ci)
                refused += 1
            else:
                assert chart_for_cone(F, ci) == want
        assert refused >= 1
    # a fan built by hand has no inverses: only the oracle eliminates
    F = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1),))
    assert oracle_chart_for_cone(F, 0).U_inv == ((1, 0), (0, 1))
    message = r"^cone \(0, 1\) generators are not a Z-basis$"
    with pytest.raises(NonUnimodularConeError, match=message):
        chart_for_cone(F, 0)


def test_phi_psi_identity():
    # phi after psi is the identity: exactly, as T[c] is I on c's cone, and
    # in floats, through the oracle's chart maps
    rng = random.Random(0)
    for F in TEST_FANS:
        table = chart_table(F)
        for c, C in enumerate(charts_of(F)):
            assert table.T[c][:, table.cone[c]].tolist() == np.eye(F.dim, dtype=int).tolist()
            for _ in range(10):
                xi = random_torus_point(rng, F.dim)
                assert np.abs(np.array(_oracle_phi(C, _oracle_psi(C, xi))) - xi).max() < 1e-12


def test_psi_places_ones():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, 0)
    z = _oracle_psi(C, [0.0, 0.0])
    assert z.count(1.0 + 0j) == 1
    assert [z[j] for j in C.cone] == [0j, 0j]


def test_phi_rejects_zero_complement():
    # the complement coordinate carries exponent -1 in both components
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert C.complement == (2,) and all(row[0] < 0 for row in C.V)
    with pytest.raises(ZeroDivisionError):
        _oracle_phi(C, [1.0, 1.0, 0.0])


def test_kernel_param_cp2():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    assert _oracle_kernel_param(C, [3.0 + 0j]) == [3.0 + 0j, 3.0 + 0j, 3.0 + 0j]


def test_kernel_param_lands_in_kernel():
    rng = random.Random(1)
    for F in TEST_FANS:
        generator_rows = list(zip(*F.generators))
        for C in charts_of(F):
            for _ in range(10):
                ac = random_torus_point(rng, len(C.complement))
                image = _oracle_monomials(generator_rows, _oracle_kernel_param(C, ac))
                assert np.abs(np.array(image) - 1).max() < TOL
        assert "kernel_param_in_kernel" not in failed_checks(chart_suite(F))


def test_kernel_invariance_of_charts():
    rng = random.Random(2)
    for F in TEST_FANS:
        d = len(F.generators)
        for C in charts_of(F):
            for _ in range(10):
                z = random_torus_point(rng, d)
                ac = random_torus_point(rng, d - F.dim)
                moved = [a * w for a, w in zip(_oracle_kernel_param(C, ac), z)]
                assert rel_dev(_oracle_phi(C, moved), _oracle_phi(C, z)) < TOL
        assert "kernel_invariance" not in failed_checks(chart_suite(F))


def test_multiplicativity_of_charts():
    # phi_sigma(alpha . z) = phi_sigma(alpha) . phi_sigma(z) for torus alpha
    rng = random.Random(3)
    for F in TEST_FANS:
        d = len(F.generators)
        for C in charts_of(F):
            for _ in range(5):
                z, alpha = random_torus_point(rng, d), random_torus_point(rng, d)
                lhs = _oracle_phi(C, [a * w for a, w in zip(alpha, z)])
                rhs = np.array(_oracle_phi(C, alpha)) * np.array(_oracle_phi(C, z))
                assert rel_dev(lhs, rhs) < TOL


def test_exponent_rows_kill_relations():
    for F in TEST_FANS:
        rel_basis = integer_kernel_basis(transpose(F.generators))
        assert rel_basis  # d > n for all test fans
        for ci in range(len(F.max_cones)):
            rows = exponent_rows(chart_for_cone(F, ci))
            for r in rows:
                for w in rel_basis:
                    assert dot(r, w) == 0


def test_transition_cp2():
    F = normal_fan(projective_space(2, 1))
    charts = {c: chart_for_cone(F, i) for i, c in enumerate(F.max_cones)}
    assert transition_map(charts[(0, 1)], charts[(1, 2)]) == ((-1, 1), (-1, 0))
    assert transition_map(charts[(0, 1)], charts[(0, 1)]) == ((1, 0), (0, 1))


def test_transition_matches_chart_composition():
    rng = random.Random(4)
    for F in TEST_FANS:
        charts = charts_of(F)
        for C1 in charts:
            for C2 in charts:
                E = transition_map(C1, C2)
                for _ in range(5):
                    xi = random_torus_point(rng, F.dim)
                    direct = _oracle_phi(C2, _oracle_psi(C1, xi))
                    assert rel_dev(_oracle_monomials(E, xi), direct) < TOL


def test_transition_cocycle_exact():
    for F in TEST_FANS:
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        for C1 in charts:
            for C2 in charts:
                E12 = transition_map(C1, C2)
                for C3 in charts:
                    E23 = transition_map(C2, C3)
                    E13 = transition_map(C1, C3)
                    assert mat_mul(E23, E12) == E13


def exponent_table_fans():
    """TEST_FANS, 3-D and 4-D random Delzant polytopes, and a unimodular
    image of the Hirzebruch surface of degree 2^70, whose transition
    exponents lie past 2^63."""
    rng = random.Random(12)
    draws = [random_delzant_polytope(rng, n) for n in (3, 3, 4, 4)]
    steep = apply_lattice_map(hirzebruch(2**70), random_unimodular_map(rng))
    return TEST_FANS + [normal_fan(P) for P in draws + [steep]]


def test_transition_exponents_match_each_transition_map():
    # the k^2 oracle against transition_map, and the table's gathers
    # E[a, b] = T[b] on a's cone against the oracle, in int64 and past it
    for F in exponent_table_fans():
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        E = transition_exponents(charts)
        table = chart_table(F)
        k, n = len(charts), F.dim
        assert E.shape == (k, k, n, n) and E.dtype == object
        for a in range(k):
            for b in range(k):
                assert tuple(map(tuple, E[a, b])) == transition_map(charts[a], charts[b])
                assert all(type(e) is int for e in E[a, b].flat)
                assert table.T[b][:, table.cone[a]].tolist() == E[a, b].tolist()
    assert max(abs(e) for e in E.flat) > 2**63  # the steep surface comes last, exact
    assert table.T.dtype == object


def one_chart(table: ChartTable, c: int) -> ChartTable:
    rows = slice(c, c + 1)
    return ChartTable(
        table.generators, table.cone[rows], table.complement[rows], table.inverses[rows], table.T[rows]
    )


def test_relation_check_agrees_with_the_dot_loop_oracle():
    for F in exponent_table_fans():
        assert oracle_exponents_kill_relations(F) is True
        table = chart_table(F)
        assert not failed_checks(exact_checks(table))
        for c in range(len(table.cone)):
            assert not failed_checks(exact_checks(one_chart(table, c)))
    # the steep surface's V is past int64: its checks ran on Python ints
    assert table.T.dtype == object


def test_relation_check_catches_every_wrong_v_entry():
    # raising any one entry of any chart's V by 1 breaks V = U^-1 W; the
    # relations then come either from a wrong V (chart 0) or meet one, and
    # a wrong chart alone has relations that G does not kill.  The exact
    # suite fails every check that the float oracle fails on the same table
    rng = random.Random(13)
    fans = TEST_FANS + [normal_fan(random_delzant_polytope(rng, n)) for n in (3, 4)]
    for F in fans:
        charts, table = charts_of(F), chart_table(F)
        d, n = len(F.generators), F.dim
        for c, C in enumerate(charts):
            for i in range(n):
                for l in range(d - n):
                    V = [list(row) for row in C.V]
                    V[i][l] += 1
                    bad = list(charts)
                    bad[c] = dataclasses.replace(C, V=tuple(map(tuple, V)))
                    wrong = altered_table(table, [(c, i, C.complement[l], 1)])
                    failed = failed_checks(exact_checks(wrong))
                    assert "exponents_kill_relations" in failed
                    assert relation_and_cocycle(exact_checks(one_chart(wrong, c)))[0] is False
                    assert oracle_exponents_kill_relations(F, charts=bad) is False
                    assert failed_checks(oracle_chart_suite(F, c, 1, table=wrong)) <= failed


# the checks that a wrong entry of some chart's V fails
FAILED_BY_A_WRONG_V = {
    "kernel_param_in_kernel", "exponents_kill_relations",
    "transition_matches_charts", "transition_cocycle_exact",
}


def test_chart_suite_passes_and_catches_a_wrong_transition():
    F = normal_fan(blown_up_hirzebruch())
    assert all(r.passed for r in chart_suite(F))

    # each ordered pair of the 6 charts in turn gets the identity as its
    # chart change on the generators of a's cone off b's cone: T[b]'s
    # columns there become unit columns, and so does that part of V_b.  The
    # transition check, which multiplies U_b^-1 U_a out of the inverses,
    # fails with the kernel and exact checks, and with every check that the
    # float oracle fails on the same table
    table = chart_table(F)
    k, n = len(table.cone), F.dim
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            changes = [
                (b, i, j, int(i == m) - int(table.T[b, i, j]))
                for m, j in enumerate(table.cone[a]) if j not in table.cone[b]
                for i in range(n)
            ]
            wrong = altered_table(table, changes)
            failed = failed_checks(exact_checks(wrong))
            assert failed == FAILED_BY_A_WRONG_V
            assert failed_checks(oracle_chart_suite(F, a * k + b, 2, table=wrong)) <= failed


def test_chart_suite_catches_a_wrong_v_entry_on_another_charts_cone():
    # the transition check reads V_b on the columns whose generator lies in
    # some chart's cone; raising any one entry of any V breaks it, since
    # every generator of a complete fan lies in some maximal cone, and so it
    # breaks the cocycle check, which reads the same columns, and the
    # relation and kernel checks, with every check the float oracle fails
    F = normal_fan(blown_up_hirzebruch())
    table, charts = chart_table(F), charts_of(F)
    d, n = len(F.generators), F.dim
    for c, C in enumerate(charts):
        for i in range(n):
            for l in range(d - n):
                assert any(C.complement[l] in other.cone for other in charts)
                wrong = altered_table(table, [(c, i, C.complement[l], 1)])
                failed = failed_checks(exact_checks(wrong))
                assert failed == FAILED_BY_A_WRONG_V
                assert failed_checks(oracle_chart_suite(F, c, 2, table=wrong)) <= failed


def test_chart_suite_catches_a_wrong_walk_pairing():
    # the table's T is the walked vertices' pairings, which the pivots update
    # beside the edges, so the transition check compares two blocks of the
    # walk's dictionary: one wrong off-cone pairing of one cone breaks it
    for P in (blown_up_hirzebruch(), random_delzant_polytope(random.Random(5), 3)):
        F = normal_fan(P)
        assert not failed_checks(chart_suite(F))
        for c, cone in enumerate(F.max_cones):
            for i in range(F.dim):
                for j in set(range(len(F.generators))).difference(cone):
                    pairings = [list(row) for row in F.pairings[c]]
                    pairings[i][j] += 1
                    wrong = list(F.pairings)
                    wrong[c] = tuple(map(tuple, pairings))
                    bad = dataclasses.replace(F, pairings=tuple(wrong))
                    assert "transition_matches_charts" in failed_checks(chart_suite(bad))


def test_exact_suite_catches_a_wrong_entry_on_a_charts_own_cone():
    # phi_c after psi_c reads T[c] on c's cone, where it must be I; the float
    # sweeps read only c's complement there, so they pass whatever it holds.
    # Raising entry (i, m) of that block adds row m of V_c to row i of
    # T[c] R_c, so the kernel invariance fails too unless that row is 0
    for F in TEST_FANS:
        table = chart_table(F)
        k, n = table.cone.shape
        for c in range(k):
            for i in range(n):
                for m, j in enumerate(table.cone[c]):
                    wrong = altered_table(table, [(c, i, j, 1)])
                    failed = failed_checks(exact_checks(wrong))
                    want = {"phi_after_psi_identity", "transition_cocycle_exact"}
                    if table.T[c, m, table.complement[c]].any():
                        want.add("kernel_invariance")
                    assert failed == want
                    assert failed_checks(oracle_chart_suite(F, c, 1, table=wrong)) <= failed


def test_exact_suite_agrees_with_the_float_oracle_wherever_it_is_finite():
    # each float sweep tests the identity of monomial maps that its exact
    # check decides; on entries of 2^40 and more the sweeps overflow
    for i, F in enumerate(oracle_chart_fans() + exponent_table_fans()):
        got = chart_suite(F)
        assert not failed_checks(got)
        assert_same_flags(got, oracle_chart_suite(F, i, 1))


def test_monomial_composition_is_matrix_product():
    # the fact behind the exact transition and cocycle checks
    rng = random.Random(6)
    E = ((1, -1), (0, 2))
    G = ((2, 1), (-1, 0))
    for _ in range(10):
        xi = random_torus_point(rng, 2)
        lhs = _oracle_monomials(G, _oracle_monomials(E, xi))
        assert rel_dev(lhs, _oracle_monomials(mat_mul(G, E), xi)) < TOL


def test_transition_rejects_mismatched_fans():
    F1 = normal_fan(projective_space(2, 1))
    F2 = normal_fan(unit_square())
    with pytest.raises(ValueError):
        transition_map(chart_for_cone(F1, 0), chart_for_cone(F2, 0))
