import cmath
import dataclasses
import math
import random
import re

import numpy as np
import pytest

import toricwidth.charts
import toricwidth.verify
from toricwidth.charts import (
    ChartTable,
    NonUnimodularConeError,
    chart_for_cone,
    chart_table,
    kernel_params,
    monomials,
    phi_sigmas,
    psi_sigmas,
    torus_images,
    transition_map,
    transition_sides,
)
from geomgen import (
    AffineLatticeMap,
    _oracle_kernel_param,
    altered_table,
    charts_of_table,
    apply_lattice_map,
    _oracle_phi,
    _oracle_psi,
    assert_same_results,
    blowup_polygon,
    dilate,
    exponent_rows,
    hirzebruch,
    mat_mul,
    oracle_chart_for_cone,
    oracle_chart_suite,
    oracle_exponents_kill_relations,
    product_polytope,
    random_delzant_polytope,
    random_simple_non_delzant_polygon,
    random_unimodular_map,
    stack_charts,
    transition_exponents,
    transpose,
    unit_square,
)
from toricwidth.fan import Fan, normal_fan
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    iterated_plane_blowup,
    projective_space,
    resolve_fixture,
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


def random_torus_points(rng, rows, n):
    return np.array([random_torus_point(rng, n) for _ in range(rows)]).reshape(rows, n)


def charts_of(F):
    return [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]


def each_chart(F, samples):
    """The stacked charts of F, each repeated for `samples` rows, and their count."""
    k = len(F.max_cones)
    return chart_table(F).charts(np.repeat(np.arange(k), samples)), k


def rel_dev(a, b):
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
    rng = random.Random(0)
    for F in TEST_FANS:
        A, k = each_chart(F, 10)
        xi = random_torus_points(rng, 10 * k, F.dim)
        assert np.abs(phi_sigmas(A, psi_sigmas(A, xi)) - xi).max() < 1e-12


def test_psi_places_ones():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, 0)
    z = psi_sigmas(stack_charts([C]), [[0.0, 0.0]])[0].tolist()
    assert z.count(1.0 + 0j) == 1
    assert [z[j] for j in C.cone] == [0j, 0j]


def test_phi_rejects_zero_complement():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    z = [1.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        phi_sigmas(stack_charts([C]), [z])


def test_kernel_param_cp2():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    alpha = kernel_params(stack_charts([C]), [[3.0 + 0j]])[0].tolist()
    assert alpha == [3.0 + 0j, 3.0 + 0j, 3.0 + 0j]


def test_kernel_param_lands_in_kernel():
    rng = random.Random(1)
    for F in TEST_FANS:
        A, k = each_chart(F, 10)
        ac = random_torus_points(rng, 10 * k, len(F.generators) - F.dim)
        image = torus_images(F, kernel_params(A, ac))
        assert np.abs(image - 1).max() < TOL


def test_kernel_invariance_of_charts():
    rng = random.Random(2)
    for F in TEST_FANS:
        A, k = each_chart(F, 10)
        d = len(F.generators)
        z = random_torus_points(rng, 10 * k, d)
        ac = random_torus_points(rng, 10 * k, d - F.dim)
        moved = kernel_params(A, ac) * z
        assert rel_dev(phi_sigmas(A, moved), phi_sigmas(A, z)) < TOL


def test_multiplicativity_of_charts():
    # phi_sigma(alpha . z) = phi_sigma(alpha) . phi_sigma(z) for torus alpha
    rng = random.Random(3)
    for F in TEST_FANS:
        A, k = each_chart(F, 5)
        d = len(F.generators)
        z = random_torus_points(rng, 5 * k, d)
        alpha = random_torus_points(rng, 5 * k, d)
        lhs = phi_sigmas(A, alpha * z)
        rhs = phi_sigmas(A, alpha) * phi_sigmas(A, z)
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
                E = np.array(transition_map(C1, C2), dtype=np.int64)
                xi = random_torus_points(rng, 5, F.dim)
                A1, A2 = (stack_charts([C] * 5) for C in (C1, C2))
                direct = phi_sigmas(A2, psi_sigmas(A1, xi))
                assert rel_dev(monomials(xi, E), direct) < TOL


def pair_form_fans():
    """n = 1, d - n < n (CP^2), CP^3 and CP^4, blow-up polygons with 4 to 16
    facets, 3-D and 4-D draws and the product b8 x b8 (64 charts)."""
    rng = random.Random(14)
    specs = ["cpn:1:1", "cpn:1:7", "cpn:2:1", "cpn:2:4", "cpn:3:2", "cpn:4:1"]
    polytopes = [resolve_fixture(s) for s in specs]
    polytopes += [blowup_polygon(random.Random(40 + d), d) for d in range(4, 17)]
    polytopes += [random_delzant_polytope(rng, n) for n in (3, 3, 4, 4)]
    b8 = blowup_polygon(random.Random(1), 8)
    return [normal_fan(P) for P in polytopes + [product_polytope(b8, b8)]]


def test_phi_after_psi_on_the_set_coordinates_is_bit_for_bit_the_full_form():
    # both sides of transition_sides share their powers where their
    # exponents agree; each is bit for bit its own full form: phi_b after
    # psi_a through the stacked charts of chart_for_cone, and the monomial
    # map of the k^2 oracle's exponents
    rng = random.Random(15)
    for F in pair_form_fans():
        table, charts = chart_table(F), charts_of(F)
        E = transition_exponents(charts).astype(np.int64)
        k, n = len(F.max_cones), F.dim
        samples = 3 if k <= 20 else 1
        pair = np.repeat(np.arange(k * k), samples)
        a, b = pair // k, pair % k
        xi = random_torus_points(rng, len(pair), n)
        monomial, got = transition_sides(table, a, b, xi)
        A, B = (stack_charts([charts[c] for c in rows]) for rows in (a, b))
        assert np.array_equal(got, phi_sigmas(B, psi_sigmas(A, xi)))
        assert np.array_equal(monomial, monomials(xi, E[a, b]))
        # a slice of rows gives the same values as the whole
        some = slice(len(pair) // 3, len(pair) // 2)
        sides = transition_sides(table, a[some], b[some], xi[some])
        assert np.array_equal(sides[0], monomial[some]) and np.array_equal(sides[1], got[some])
        # on a table with one raised entry in every chart's first complement
        # column, the chart side follows the table and the monomial side not
        wrong = altered_table(table, [(c, 0, table.complement[c, 0], 1) for c in range(k)])
        bad = charts_of_table(F, wrong.T)
        A, B = (stack_charts([bad[c] for c in rows]) for rows in (a, b))
        monomial_w, got_w = transition_sides(wrong, a, b, xi)
        assert np.array_equal(got_w, phi_sigmas(B, psi_sigmas(A, xi)))
        assert np.array_equal(monomial_w, monomial) and not np.array_equal(got_w, got)


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
    with pytest.raises(OverflowError):
        table.exponents  # the float maps need int64 exponents


def one_chart(table: ChartTable, c: int) -> ChartTable:
    rows = slice(c, c + 1)
    return ChartTable(
        table.generators, table.cone[rows], table.complement[rows], table.inverses[rows], table.T[rows]
    )


def test_relation_check_agrees_with_the_dot_loop_oracle():
    for F in exponent_table_fans():
        assert oracle_exponents_kill_relations(F) is True
        table = chart_table(F)
        assert exact_checks(table) == (True, True)
        for c in range(len(table.cone)):
            assert exact_checks(one_chart(table, c)) == (True, True)
    # the steep surface's V is past int64: its checks ran on Python ints
    assert table.T.dtype == object


def test_relation_check_catches_every_wrong_v_entry():
    # raising any one entry of any chart's V by 1 breaks V = U^-1 W; the
    # relations then come either from a wrong V (chart 0) or meet one, and
    # a wrong chart alone has relations that G does not kill
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
                    assert exact_checks(wrong)[0] is False
                    assert exact_checks(one_chart(wrong, c))[0] is False
                    assert oracle_exponents_kill_relations(F, charts=bad) is False


# the checks that a wrong entry of some chart's V fails
FAILED_BY_A_WRONG_V = {
    "kernel_param_in_kernel", "exponents_kill_relations",
    "transition_matches_charts", "transition_cocycle_exact",
}


def test_chart_suite_passes_and_catches_a_wrong_transition(monkeypatch):
    F = normal_fan(blown_up_hirzebruch())
    assert all(r.passed for r in chart_suite(F, seed=3, samples=2))

    # each ordered pair of the 6 charts in turn gets the identity as its
    # chart change on the generators of a's cone off b's cone: T[b]'s
    # columns there become unit columns, and so does that part of V_b.  The
    # transition sweep, whose monomial side multiplies U_b^-1 U_a out of the
    # inverses, fails with the kernel and exact checks, as under the k^3
    # oracle on the same table
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
            monkeypatch.setattr(toricwidth.verify, "chart_table", lambda F, wrong=wrong: wrong)
            got = chart_suite(F, seed=a * k + b, samples=2)
            failed = {r.name for r in got if not r.passed}
            assert failed == FAILED_BY_A_WRONG_V
            assert_same_results(got, oracle_chart_suite(F, a * k + b, 2, table=wrong))


def test_chart_suite_catches_a_wrong_v_entry_on_another_charts_cone(monkeypatch):
    # the transition sweep reads V_b only on the columns whose generator lies
    # in chart a's cone; raising any one entry of any V breaks it, since
    # every generator of a complete fan lies in some maximal cone, and so it
    # breaks the cocycle check, which reads the same columns, and the
    # relation and kernel checks, as under the k^3 oracle
    F = normal_fan(blown_up_hirzebruch())
    table, charts = chart_table(F), charts_of(F)
    d, n = len(F.generators), F.dim
    for c, C in enumerate(charts):
        for i in range(n):
            for l in range(d - n):
                assert any(C.complement[l] in other.cone for other in charts)
                wrong = altered_table(table, [(c, i, C.complement[l], 1)])
                monkeypatch.setattr(toricwidth.verify, "chart_table", lambda F, wrong=wrong: wrong)
                got = chart_suite(F, seed=c, samples=2)
                failed = {r.name for r in got if not r.passed}
                assert failed == FAILED_BY_A_WRONG_V
                assert_same_results(got, oracle_chart_suite(F, c, 2, table=wrong))


def test_monomial_composition_is_matrix_product():
    rng = random.Random(6)
    E = ((1, -1), (0, 2))
    G = ((2, 1), (-1, 0))
    xi = random_torus_points(rng, 10, 2)
    lhs = monomials(monomials(xi, np.array(E)), np.array(G))
    rhs = monomials(xi, np.array(mat_mul(G, E)))
    assert rel_dev(lhs, rhs) < TOL


def test_transition_rejects_mismatched_fans():
    F1 = normal_fan(projective_space(2, 1))
    F2 = normal_fan(unit_square())
    with pytest.raises(ValueError):
        transition_map(chart_for_cone(F1, 0), chart_for_cone(F2, 0))


def test_row_forms_with_a_chart_per_row_match_single_points():
    # each row of a stacked call is bit for bit the one-row call of its
    # chart, and matches the pure-Python oracles
    rng = random.Random(7)
    draws = [normal_fan(random_delzant_polytope(rng, n)) for n in (3, 3, 4, 4)]
    for F in TEST_FANS + draws:
        charts = charts_of(F)
        table = chart_table(F)
        d, n = len(F.generators), F.dim
        which = np.array([rng.randrange(len(charts)) for _ in range(20)])
        A = table.charts(which)
        Z = random_torus_points(rng, len(which), d)
        XI, AC = Z[:, :n], Z[:, n:]
        phi, psi, alpha = phi_sigmas(A, Z), psi_sigmas(A, XI), kernel_params(A, AC)
        image = torus_images(F, alpha)
        for r, c in enumerate(which):
            one = table.charts(np.array([c]))
            assert phi[r].tolist() == phi_sigmas(one, Z[[r]])[0].tolist()
            assert psi[r].tolist() == psi_sigmas(one, XI[[r]])[0].tolist()
            assert alpha[r].tolist() == kernel_params(one, AC[[r]])[0].tolist()
            assert image[r].tolist() == torus_images(F, alpha[[r]])[0].tolist()
            C = charts[c]
            assert rel_dev(phi[r], np.array(_oracle_phi(C, Z[r]))) < TOL
            assert psi[r].tolist() == _oracle_psi(C, XI[r])
            assert rel_dev(alpha[r], np.array(_oracle_kernel_param(C, AC[r]))) < TOL


def test_row_forms_guard_zeros_in_any_row():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    A = stack_charts([C, C])
    with pytest.raises(ValueError, match="coordinate 2 is zero"):
        phi_sigmas(A, [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="must be nonzero"):
        kernel_params(A, [[2.0], [0.0]])
