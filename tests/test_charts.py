import cmath
import math
import random

import numpy as np
import pytest

import toricwidth.verify
from toricwidth.charts import (
    NonUnimodularConeError,
    chart_for_cone,
    kernel_param,
    kernel_params,
    monomial_eval,
    monomial_evals,
    monomial_map,
    phi_sigma,
    phi_sigmas,
    psi_sigma,
    psi_sigmas,
    stack_charts,
    torus_images,
    transition_exponents,
    transition_map,
)
from geomgen import (
    assert_same_results,
    exponent_rows,
    oracle_chart_suite,
    oracle_exponents_kill_relations,
    random_delzant_polytope,
    random_unimodular_map,
)
from toricwidth.fan import Fan, normal_fan
from toricwidth.fixtures import (
    blown_up_hirzebruch,
    hirzebruch,
    iterated_plane_blowup,
    projective_space,
    unit_square,
)
from toricwidth.lattice import dot, integer_kernel_basis, mat_mul, matrix_from_columns
from toricwidth.polytope import apply_lattice_map, scale
from toricwidth.verify import chart_suite

TOL = 1e-9

TEST_FANS = [
    normal_fan(projective_space(2, 1)),
    normal_fan(unit_square()),
    normal_fan(hirzebruch()),
    normal_fan(blown_up_hirzebruch()),
    normal_fan(scale(iterated_plane_blowup(1), 2)),
]


def torus_image(F, alpha):
    """The torus map at one point, as torus_images gives it for one row."""
    return tuple(complex(w) for w in torus_images(F, [alpha])[0])


def random_torus_point(rng, n):
    return [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for _ in range(n)]


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


def test_phi_psi_identity():
    rng = random.Random(0)
    for F in TEST_FANS:
        for ci in range(len(F.max_cones)):
            C = chart_for_cone(F, ci)
            for _ in range(10):
                xi = random_torus_point(rng, F.dim)
                back = phi_sigma(C, psi_sigma(C, xi))
                assert max(abs(a - b) for a, b in zip(back, xi)) < 1e-12


def test_psi_places_ones():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, 0)
    z = psi_sigma(C, [0.0, 0.0])
    assert z.count(1.0 + 0j) == 1
    assert [z[j] for j in C.cone] == [0j, 0j]


def test_phi_rejects_zero_complement():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    z = [1.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        phi_sigma(C, z)


def test_kernel_param_cp2():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    alpha = kernel_param(C, [3.0 + 0j])
    assert alpha == (3.0 + 0j, 3.0 + 0j, 3.0 + 0j)


def test_kernel_param_lands_in_kernel():
    rng = random.Random(1)
    for F in TEST_FANS:
        for ci in range(len(F.max_cones)):
            C = chart_for_cone(F, ci)
            for _ in range(10):
                ac = random_torus_point(rng, len(C.complement))
                alpha = kernel_param(C, ac)
                image = torus_image(F, alpha)
                assert max(abs(w - 1) for w in image) < TOL


def test_kernel_invariance_of_charts():
    rng = random.Random(2)
    for F in TEST_FANS:
        for ci in range(len(F.max_cones)):
            C = chart_for_cone(F, ci)
            for _ in range(10):
                z = random_torus_point(rng, len(F.generators))
                ac = random_torus_point(rng, len(C.complement))
                alpha = kernel_param(C, ac)
                moved = [a * w for a, w in zip(alpha, z)]
                f1 = phi_sigma(C, moved)
                f2 = phi_sigma(C, z)
                rel = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(f1, f2))
                assert rel < TOL


def test_multiplicativity_of_charts():
    # phi_sigma(alpha . z) = phi_sigma(alpha) . phi_sigma(z) for torus alpha
    rng = random.Random(3)
    for F in TEST_FANS:
        for ci in range(len(F.max_cones)):
            C = chart_for_cone(F, ci)
            d = len(F.generators)
            for _ in range(5):
                z = random_torus_point(rng, d)
                alpha = random_torus_point(rng, d)
                lhs = phi_sigma(C, [a * w for a, w in zip(alpha, z)])
                rhs = [a * b for a, b in zip(phi_sigma(C, alpha), phi_sigma(C, z))]
                rel = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(lhs, rhs))
                assert rel < TOL


def test_exponent_rows_kill_relations():
    for F in TEST_FANS:
        rel_basis = integer_kernel_basis(matrix_from_columns(F.generators))
        assert rel_basis  # d > n for all test fans
        for ci in range(len(F.max_cones)):
            rows = exponent_rows(chart_for_cone(F, ci))
            for r in rows:
                for w in rel_basis:
                    assert dot(r, w) == 0


def test_transition_cp2():
    F = normal_fan(projective_space(2, 1))
    charts = {c: chart_for_cone(F, i) for i, c in enumerate(F.max_cones)}
    E = transition_map(charts[(0, 1)], charts[(1, 2)])
    assert E.exponents == ((-1, 1), (-1, 0))
    assert E.needs_nonzero == (True, False)
    same = transition_map(charts[(0, 1)], charts[(0, 1)])
    assert same.exponents == ((1, 0), (0, 1))


def test_transition_matches_chart_composition():
    rng = random.Random(4)
    for F in TEST_FANS:
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        for C1 in charts:
            for C2 in charts:
                E = transition_map(C1, C2)
                for _ in range(5):
                    xi = random_torus_point(rng, F.dim)
                    direct = phi_sigma(C2, psi_sigma(C1, xi))
                    via = monomial_eval(E, xi)
                    rel = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(via, direct))
                    assert rel < TOL


def test_transition_cocycle_exact():
    for F in TEST_FANS:
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        for C1 in charts:
            for C2 in charts:
                E12 = transition_map(C1, C2)
                for C3 in charts:
                    E23 = transition_map(C2, C3)
                    E13 = transition_map(C1, C3)
                    assert mat_mul(E23.exponents, E12.exponents) == E13.exponents


def exponent_table_fans():
    """TEST_FANS, 3-D and 4-D random Delzant polytopes, and a unimodular
    image of the Hirzebruch surface of degree 2^70, whose transition
    exponents lie past 2^63."""
    rng = random.Random(12)
    draws = [random_delzant_polytope(rng, n) for n in (3, 3, 4, 4)]
    steep = apply_lattice_map(hirzebruch(2**70), random_unimodular_map(rng))
    return TEST_FANS + [normal_fan(P) for P in draws + [steep]]


def test_transition_exponents_match_each_transition_map():
    for F in exponent_table_fans():
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        E = transition_exponents(charts)
        k, n = len(charts), F.dim
        assert E.shape == (k, k, n, n) and E.dtype == object
        for a in range(k):
            for b in range(k):
                assert tuple(map(tuple, E[a, b])) == transition_map(charts[a], charts[b]).exponents
                assert all(type(e) is int for e in E[a, b].flat)
    assert max(abs(e) for e in E.flat) > 2**63  # the steep surface comes last, exact


def test_stacked_relation_check_matches_the_dot_loop(monkeypatch):
    real = toricwidth.verify.integer_kernel_basis
    for F in exponent_table_fans():
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        # the first unit vector is no relation: U^-1 G e_0 = U^-1 u_0 != 0
        unit = (1,) + (0,) * (len(F.generators) - 1)
        for extra in ([], [unit]):
            relations = real(matrix_from_columns(F.generators)) + extra
            monkeypatch.setattr(toricwidth.verify, "integer_kernel_basis", lambda G: relations)
            got = toricwidth.verify._exponents_kill_relations(F, charts)
            assert got == oracle_exponents_kill_relations(F, relations) == (not extra)


def test_chart_suite_passes_and_catches_a_wrong_transition(monkeypatch):
    F = normal_fan(blown_up_hirzebruch())
    assert all(r.passed for r in chart_suite(F, seed=3, samples=2))

    # each ordered pair of the 6 charts in turn gets the identity as its
    # chart change; both transition checks fail, as under the k^3 oracle
    charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
    k = len(charts)
    for a in range(k):
        for b in range(k):
            if a == b:
                continue

            def wrong(charts, a=a, b=b):
                E = transition_exponents(charts)
                E[a, b] = E[a, a]
                return E

            monkeypatch.setattr(toricwidth.verify, "transition_exponents", wrong)
            got = chart_suite(F, seed=a * k + b, samples=2)
            failed = {r.name for r in got if not r.passed}
            assert failed == {"transition_matches_charts", "transition_cocycle_exact"}
            assert_same_results(got, oracle_chart_suite(F, a * k + b, 2, table=wrong(charts)))


def test_monomial_composition_is_matrix_product():
    rng = random.Random(6)
    E = monomial_map(((1, -1), (0, 2)))
    G = monomial_map(((2, 1), (-1, 0)))
    GE = monomial_map(mat_mul(G.exponents, E.exponents))
    for _ in range(10):
        xi = random_torus_point(rng, 2)
        lhs = monomial_eval(G, monomial_eval(E, xi))
        rhs = monomial_eval(GE, xi)
        assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(lhs, rhs)) < TOL


def test_monomial_eval_guards_zero():
    E = monomial_map(((-1, 0), (0, 1)))
    with pytest.raises(ValueError):
        monomial_eval(E, [0.0, 1.0])
    assert monomial_eval(E, [2.0, 0.0]) == (0.5 + 0j, 0j)


def test_transition_rejects_mismatched_fans():
    F1 = normal_fan(projective_space(2, 1))
    F2 = normal_fan(unit_square())
    with pytest.raises(ValueError):
        transition_map(chart_for_cone(F1, 0), chart_for_cone(F2, 0))


def test_row_forms_with_a_chart_per_row_match_single_points():
    rng = random.Random(7)
    for F in TEST_FANS:
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
        d, n = len(F.generators), F.dim
        which = np.array([rng.randrange(len(charts)) for _ in range(20)])
        A = stack_charts(charts).take(which)
        Z = np.array([random_torus_point(rng, d) for _ in which])
        XI, AC = Z[:, :n], Z[:, n:]
        phi, psi, alpha = phi_sigmas(A, Z), psi_sigmas(A, XI), kernel_params(A, AC)
        image = torus_images(F, alpha)
        for r, c in enumerate(which):
            assert tuple(phi[r]) == phi_sigma(charts[c], Z[r])
            assert tuple(psi[r]) == psi_sigma(charts[c], XI[r])
            assert tuple(alpha[r]) == kernel_param(charts[c], AC[r])
            assert tuple(image[r]) == torus_image(F, alpha[r])


def test_row_forms_guard_zeros_in_any_row():
    F = normal_fan(projective_space(2, 1))
    C = chart_for_cone(F, F.max_cones.index((0, 1)))
    with pytest.raises(ValueError, match="coordinate 2 is zero"):
        phi_sigmas(C.arrays, [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="must be nonzero"):
        kernel_params(C.arrays, [[2.0], [0.0]])
    E = monomial_map(((-1, 0), (0, 1)))
    with pytest.raises(ValueError, match="input 0 must be nonzero"):
        monomial_evals(E, [[2.0, 0.0], [0.0, 1.0]])
    assert monomial_evals(E, [[2.0, 0.0], [4.0, 1.0]]).tolist() == [[0.5, 0.0], [0.25, 1.0]]
