import cmath
import math
import random
import warnings

import numpy as np
import pytest

import toricwidth.numeric
import toricwidth.verify
from geomgen import (
    dilate,
    embedding_cases,
    embedding_from_exponents,
    fs_diastasis,
    oracle_complex_hessian,
    oracle_potential_partial,
    oracle_potential_value,
    oracle_psi_map,
    oracle_pullback_check,
    oracle_sections,
    random_delzant_polytope,
    sup_along_path,
    suggested_path_exponent,
)
from toricwidth.embedding import sections_by_polytope
from toricwidth.fixtures import blown_up_hirzebruch, projective_space, resolve_fixture
from toricwidth.numeric import (
    DegenerateJacobianWarning,
    ToricPotential,
    axis_radius_bounds,
    evaluate,
    moduli,
    potential_partial,
    potential_value,
    potential_values,
    psi_map,
    psi_maps,
    pullback_check,
    radial_quantities,
    sups_along_paths,
)
from toricwidth.polytope import enumerate_vertices
from toricwidth.verify import numeric_suite

CP2 = ToricPotential(embedding_from_exponents(((0, 0), (1, 0), (0, 1))))


def blowup_potential() -> ToricPotential:
    P = blown_up_hirzebruch()
    return ToricPotential(sections_by_polytope(P, enumerate_vertices(P)[0]))


def random_modulus_point(rng: random.Random, n: int) -> list[complex]:
    return [
        rng.uniform(0.1, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        for _ in range(n)
    ]


def test_potential_value_and_partial_cp2():
    assert potential_value(CP2, (1.0, 1.0)) == pytest.approx(2 * math.log(3))
    assert potential_partial(CP2, (1.0, 1.0), 0) == pytest.approx(2 / 3)
    assert potential_partial(CP2, (1.0, 1.0), 1) == pytest.approx(2 / 3)


def test_partial_matches_finite_differences():
    rng = random.Random(5)
    for T in (CP2, blowup_potential()):
        for _ in range(20):
            x = [rng.uniform(0.1, 3.0) for _ in range(T.dim)]
            for j in range(T.dim):
                h = 1e-6 * x[j]
                xp = list(x)
                xm = list(x)
                xp[j] += h
                xm[j] -= h
                fd = (potential_value(T, xp) - potential_value(T, xm)) / (2 * h)
                assert potential_partial(T, x, j) == pytest.approx(fd, abs=1e-5)


def test_psi_map_values():
    out = psi_map(CP2, (1.0, 1.0))
    r = math.sqrt(2 / 3)
    assert out[0] == pytest.approx(r)
    assert out[1] == pytest.approx(r)
    assert psi_map(CP2, (0.0, 0.0)) == (0.0, 0.0)


def test_psi_map_extends_continuously():
    on_axis = psi_map(CP2, (0.0, 0.5))
    near_axis = psi_map(CP2, (1e-9, 0.5))
    assert abs(on_axis[1] - near_axis[1]) < 1e-6
    assert on_axis[0] == 0.0


def test_psi_map_rejects_dead_axis():
    T = ToricPotential(embedding_from_exponents(((0, 0), (0, 1))))
    with pytest.raises(ValueError):
        psi_map(T, (0.5, 0.5))


def test_pullback_identity_cp2():
    rng = random.Random(11)
    for _ in range(10):
        xi = random_modulus_point(rng, 2)
        assert pullback_check(CP2, xi) < 1e-4


def test_pullback_identity_blowup():
    rng = random.Random(12)
    T = blowup_potential()
    for _ in range(10):
        xi = random_modulus_point(rng, 2)
        assert pullback_check(T, xi) < 1e-4


def test_pullback_single_exponent_is_degenerate():
    # one monomial: Psi has constant modulus, so its differential drops rank
    # and both sides of the identity vanish
    T = ToricPotential(embedding_from_exponents(((1,),)))
    with pytest.warns(DegenerateJacobianWarning):
        dev = pullback_check(T, (0.5 + 0.25j,))
    assert dev < 1e-4


def test_radial_quantity_bounded_by_axis_maximum():
    rng = random.Random(21)
    for T in (CP2, blowup_potential()):
        bounds = axis_radius_bounds(T)
        for _ in range(100):
            x = [rng.uniform(0.1, 3.0) for _ in range(T.dim)]
            assert (radial_quantities(evaluate(T, [x]))[0] <= np.array(bounds) + 1e-12).all()


def test_radial_quantity_matches_psi_modulus():
    rng = random.Random(22)
    T = blowup_potential()
    for _ in range(10):
        xi = random_modulus_point(rng, 2)
        out = psi_map(T, xi)
        radial = radial_quantities(evaluate(T, [[abs(c) ** 2 for c in xi]]))[0]
        for j in range(2):
            assert abs(out[j]) == pytest.approx(radial[j])


def test_suggested_path_exponent():
    assert suggested_path_exponent(CP2, 0) == 2
    assert suggested_path_exponent(CP2, 1) == 2
    T = blowup_potential()
    # largest complementary degree on each axis of the section set
    assert suggested_path_exponent(T, 0) == 1 + max(J[1] for J in T.embedding.exponents)
    assert suggested_path_exponent(T, 1) == 1 + max(J[0] for J in T.embedding.exponents)


def test_sup_along_path_attains_axis_bound():
    for T in (CP2, blowup_potential()):
        for j in range(T.dim):
            sup = sup_along_path(T, j, 1e9)
            assert abs(sup - axis_radius_bounds(T)[j]) < 1e-3


def test_sup_along_path_increases_toward_bound():
    T = blowup_potential()
    values = [sup_along_path(T, 0, t) for t in (10.0, 1e3, 1e6, 1e9)]
    assert values == sorted(values)
    assert values[-1] <= axis_radius_bounds(T)[0]


def test_path_kernel_matches_its_oracle_bit_for_bit():
    # the kernel sets the lanes below -746 to 0.0 without np.exp, which the
    # oracle takes on every lane: on example-3.8:200 all but 0.01 % of the
    # lanes underflow, and at t = 10 no lane of CP2 or the blow-up does
    P = resolve_fixture("example-3.8:200")
    long = ToricPotential(sections_by_polytope(P, enumerate_vertices(P)[0]))
    for T, t_max in ((long, 1e6), (CP2, 10.0), (blowup_potential(), 10.0)):
        want = [sup_along_path(T, j, t_max) for j in range(T.dim)]
        assert sups_along_paths(T, slice(None), t_max).tolist() == want


def test_fs_diastasis():
    assert fs_diastasis(()) == 0.0
    assert fs_diastasis((0.0, 0.0)) == 0.0
    assert fs_diastasis((1.0,)) == pytest.approx(math.log(2))
    assert fs_diastasis((3 + 4j,)) == pytest.approx(math.log(26))


def test_error_paths():
    with pytest.raises(ValueError):
        potential_value(CP2, (-1.0, 1.0))
    with pytest.raises(ValueError):
        potential_value(CP2, (1.0,))
    with pytest.raises(ValueError):
        potential_partial(CP2, (1.0, 1.0), 2)
    with pytest.raises(ValueError):
        potential_partial(CP2, (1.0,), 0)
    with pytest.raises(ValueError):
        psi_map(CP2, (1.0,))
    with pytest.raises(ValueError):
        sup_along_path(CP2, 0, 1.0)


def test_no_spurious_warnings_on_interior_points():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi_map(CP2, (0.3, 0.7))
        pullback_check(CP2, (0.3 + 0.1j, 0.5 - 0.2j))


def test_projective_space_potential_matches_fubini_study():
    # for the degree-1 simplex the potential is 2 log(1 + sum x), whose
    # diastasis from the origin is fs_diastasis of the chart coordinate
    T = ToricPotential(sections_by_polytope(
        projective_space(2, 1),
        enumerate_vertices(projective_space(2, 1))[0],
    ))
    u = (0.4 + 0.3j, 0.2 - 0.6j)
    x = [abs(c) ** 2 for c in u]
    assert potential_value(T, x) == pytest.approx(2 * fs_diastasis(u))


def fixture_potential(spec: str) -> ToricPotential:
    P = resolve_fixture(spec)
    return ToricPotential(sections_by_polytope(P, P.vertices[0]))


ORACLE_POTENTIALS = ["cpn:2:1", "example-3.7", "cpn:3:3", "example-3.8:3"]


def oracle_points(T: ToricPotential, rng: random.Random) -> list[list[float]]:
    """Points of [0.1, 10]^n, each also with one and with two coordinates zeroed."""
    points = []
    for _ in range(20):
        x = [rng.uniform(0.1, 10.0) for _ in range(T.dim)]
        points.append(x)
        points += [x[:j] + [0.0] + x[j + 1:] for j in range(T.dim)]
        points.append([0.0, 0.0] + x[2:])
    return points


@pytest.fixture(params=ORACLE_POTENTIALS)
def oracle_potential(request) -> ToricPotential:
    return fixture_potential(request.param)


def test_potential_matches_scalar_oracle(oracle_potential):
    T = oracle_potential
    for x in oracle_points(T, random.Random(31)):
        assert potential_value(T, x) == pytest.approx(oracle_potential_value(T, x), rel=1e-12)
        got = evaluate(T, [x]).partials[0]
        for j in range(T.dim):
            want = oracle_potential_partial(T, x, j)
            assert got[j] == pytest.approx(want, rel=1e-12, abs=0)
            if min(x) > 0:
                assert potential_partial(T, x, j) == pytest.approx(want, rel=1e-12)


def test_psi_map_matches_scalar_oracle(oracle_potential):
    T = oracle_potential
    rng = random.Random(32)
    for x in oracle_points(T, rng):
        xi = [math.sqrt(c) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for c in x]
        try:
            want = oracle_psi_map(T, xi)
        except ValueError:  # a partial vanishes on this hyperplane
            with pytest.raises(ValueError):
                psi_map(T, xi)
            continue
        for got, w in zip(psi_map(T, xi), want):
            assert abs(got - w) <= 1e-12 * abs(w)


def test_pullback_check_matches_per_point_stencil(oracle_potential):
    # the oracle builds the form side by second differences of the potential,
    # the check in closed form, so they differ by finite-difference noise:
    # a 1e-16 change of the potential divided by 4 h^2 = 4e-8
    T = oracle_potential
    rng = random.Random(33)
    for _ in range(5):
        xi = random_modulus_point(rng, T.dim)
        got = pullback_check(T, xi)
        assert abs(got - oracle_pullback_check(T, xi)) < 1e-6
        assert abs(got - oracle_pullback_check(T, xi, potential_value, psi_map)) < 1e-6


def test_complex_hessian_matches_linear_space_oracle(oracle_potential):
    """The closed form 2 Cov(J_a, J_b) / (xi_a conj(xi_b)), and its limit on
    the coordinate hyperplanes, against the sums S, S_a, S_ab."""
    T = oracle_potential
    rng = random.Random(37)
    rows = []
    for x in oracle_points(T, rng) + [[0.0] * T.dim]:
        rows.append([math.sqrt(c) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for c in x])
    XI = np.array(rows)
    got = toricwidth.numeric._complex_hessians(XI, evaluate(T, moduli(XI), hessians=len(XI)))
    assert sum(0 in row for row in rows) > len(rows) // 2
    for H, xi in zip(got, rows):
        want = oracle_complex_hessian(T, xi)
        assert np.abs(H - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), xi


def test_pullback_check_raises_where_the_monomial_sum_vanishes():
    T = ToricPotential(embedding_from_exponents(((1, 0), (0, 1))))
    with pytest.raises(ValueError, match="monomial sum vanishes"):
        pullback_check(T, (0.0, 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda T: pullback_check(T, (1e155,)),
        lambda T: potential_values(evaluate(T, [[math.inf]])),
        lambda T: psi_maps([[1e155]], evaluate(T, moduli(np.array([[1e155]])))),
    ],
    ids=["pullback_check", "potential_values", "psi_maps"],
)
def test_overflowing_coordinates_raise_naming_the_overflow(call):
    # x = |xi|^2 is inf above |xi| ~ 1.3e154; that is the error, with no
    # RuntimeWarning and no claim that the monomial sum vanishes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            call(fixture_potential("cpn:1:1"))


@pytest.mark.parametrize("spec", ["cpn:1:400", "example-3.8:50"])
def test_symplectic_pullback_deviation_is_far_below_tolerance(spec):
    # central differences of the potential left 5e-5 here, half the tolerance
    check = next(r for r in numeric_suite(fixture_potential(spec), seed=1)
                 if r.name == "symplectic_pullback")
    assert check.passed and check.deviation < 1e-6


def test_pullback_check_on_rows_is_the_worst_row_bit_for_bit(monkeypatch):
    rng = random.Random(36)
    cases = [
        (T, [random_modulus_point(rng, T.dim) for _ in range(13)])
        for T in (CP2, blowup_potential(), fixture_potential("example-3.8:3"))
    ]
    worst = [max(pullback_check(T, xi) for xi in rows) for T, rows in cases]
    assert [pullback_check(T, rows) for T, rows in cases] == worst
    # one row per slice
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 1)
    assert [pullback_check(T, np.array(rows)) for T, rows in cases] == worst


def test_pullback_check_warns_once_for_singular_rows():
    # on P^1, det J = 2 / (1 + |xi|^2)^2 falls below the tolerance far out
    T = fixture_potential("cpn:1:1")
    rows = [[0.5], [400.0], [0.3j], [500j]]
    per_row = []
    for xi in rows:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            per_row.append(pullback_check(T, xi))
        assert len(caught) == (abs(xi[0]) > 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert pullback_check(T, rows) == max(per_row)
    assert [w.category for w in caught] == [DegenerateJacobianWarning]


def test_batches_split_by_entry_budget_without_changing_values(monkeypatch):
    T = fixture_potential("example-3.8:3")
    rng = np.random.default_rng(34)
    X = rng.uniform(0.1, 10.0, (50, 2))
    X[::7, 0] = 0.0
    XI = np.sqrt(X) * np.exp(1j * rng.uniform(0, 2 * np.pi, X.shape))
    whole = potential_values(evaluate(T, X)), evaluate(T, X).partials, psi_maps(XI, evaluate(T, moduli(XI)))
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 3 * len(T.embedding.exponents))
    split = potential_values(evaluate(T, X)), evaluate(T, X).partials, psi_maps(XI, evaluate(T, moduli(XI)))
    for a, b in zip(whole, split):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", ["cpn:3:10", "example-3.8:3"])
def test_one_row_slices_give_the_covariances_bit_for_bit(monkeypatch, spec):
    T = fixture_potential(spec)
    rng = np.random.default_rng(35)
    X = rng.uniform(0.1, 10.0, (23, T.dim))
    X[::5, 0] = 0.0
    X[1::6, -1] = 0.0
    X[2, :] = 0.0
    fields = lambda s: (s.lse, s.partials, s.cov)
    whole = fields(evaluate(T, X, hessians=len(X)))
    rows = [fields(evaluate(T, X[r:r + 1], hessians=1)) for r in range(len(X))]
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 1)
    split = fields(evaluate(T, X, hessians=len(X)))
    for i, (a, b) in enumerate(zip(whole, split)):
        assert np.array_equal(a, b), i
        assert np.array_equal(a, np.concatenate([r[i] for r in rows])), i


@pytest.mark.parametrize("spec", ["cpn:1:400", "example-3.8:1", "cpn:3:10"])
@pytest.mark.parametrize("entries", [20, 64, None])
def test_trailing_covariances_match_a_pass_over_those_rows_alone(monkeypatch, spec, entries):
    # the last h rows of a stack, sliced n times narrower than the rows
    # before them, get the covariances and sums of a pass over them alone
    T = fixture_potential(spec)
    rng = np.random.default_rng(39)
    X = rng.uniform(0.1, 10.0, (40, T.dim))
    X[::6, 0] = 0.0
    if entries is not None:
        monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", entries)
    for h in (0, 1, 7, 40):
        got = evaluate(T, X, hessians=h)
        alone = evaluate(T, X[len(X) - h:], hessians=h)
        assert got.cov.shape == (h, T.dim, T.dim)
        assert np.array_equal(got.cov, alone.cov), h
        assert np.array_equal(got.lse[len(X) - h:], alone.lse), h
        assert np.array_equal(got.partials[len(X) - h:], alone.partials), h
        # a run of rows keeps the covariances of those among its last rows
        run = got[max(len(X) - h - 3, 0):len(X) - 1]
        assert np.array_equal(run.cov, alone.cov[:h - 1]), h


def test_evaluate_takes_a_row_count_of_hessians():
    # True is not one row: a flag would silently give one covariance
    for h in (True, -1, 3):
        with pytest.raises(ValueError, match="hessians must count some of the 2 rows"):
            evaluate(CP2, [[1.0, 2.0], [3.0, 4.0]], hessians=h)


def test_exponent_array_is_the_oracle_exponents_as_floats():
    # the rows np.array(exponents, float) gives, stored as columns
    for label, P, vertices in embedding_cases():
        for k in vertices:
            JT = ToricPotential(sections_by_polytope(P, P.vertices[k])).exponent_columns
            want = np.array(oracle_sections(P, k), dtype=float)
            # contiguous along the monomials, the axis every sum runs over
            assert JT.dtype == want.dtype and JT.flags.c_contiguous, (label, k)
            assert np.array_equal(JT.T, want), (label, k)
    for exponents in (((0, 0), (1, 0), (0, 1)), ((1,),), ((3,), (4,)), ((1, 0), (2, 1))):
        JT = ToricPotential(embedding_from_exponents(exponents)).exponent_columns
        assert np.array_equal(JT.T, np.array(sorted(exponents), dtype=float))


def test_high_degree_stays_finite():
    # x^400 at x = 10 is far outside double range; the potential is not
    T = fixture_potential("cpn:1:400")
    # sum_k 10^k = (10^401 - 1) / 9, and the weighted mean degree is 400 - 1/9
    assert potential_value(T, [10.0]) == pytest.approx(2 * (401 * math.log(10) - math.log(9)))
    assert potential_partial(T, [10.0], 0) == pytest.approx(2 * (400 - 1 / 9) / 10, rel=1e-12)
    assert radial_quantities(evaluate(T, [[10.0]]))[0, 0] <= axis_radius_bounds(T)[0]
    assert np.isfinite(psi_map(T, [3.0 + 1j])).all()


def test_every_function_refuses_where_the_monomial_sum_vanishes():
    # x_0 + x_0^2 x_1 vanishes on x_0 = 0: evaluate refuses the row, with
    # no warning and no step inside
    T = ToricPotential(embedding_from_exponents(((1, 0), (2, 1))))
    calls = [
        lambda: psi_map(T, (0.0, 0.5j)),
        lambda: pullback_check(T, (0.0, 0.5j)),
        lambda: potential_value(T, (0.0, 1.0)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="^potential undefined: monomial sum vanishes$"):
                call()


def test_the_closed_chart_matches_the_oracles(oracle_potential):
    # rows with some xi_j = 0: psi_maps and radial_quantities stay within the
    # axis radius bounds and equal the linear-space oracles there
    T = oracle_potential
    rng = random.Random(38)
    rows = [[math.sqrt(c) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for c in x]
            for x in oracle_points(T, rng) if 0.0 in x]
    XI = np.array(rows)
    sums = evaluate(T, moduli(XI))
    W, R = psi_maps(XI, sums), radial_quantities(sums)
    bounds = axis_radius_bounds(T)
    assert (np.abs(W) <= bounds + 1e-9).all() and (R <= bounds + 1e-9).all()
    for xi, x, w, r in zip(rows, sums.X, W, R):
        for got, want in zip(w, oracle_psi_map(T, xi)):
            assert abs(got - want) <= 1e-12 * abs(want)
        for j in range(T.dim):
            partial = oracle_potential_partial(T, x, j)
            assert potential_partial(T, x, j) == pytest.approx(partial, rel=1e-12)
            assert r[j] == pytest.approx(math.sqrt(x[j] * partial), rel=1e-12, abs=0)


def test_radial_quantities_match_pointwise():
    T = blowup_potential()
    X = np.random.default_rng(35).uniform(0.1, 3.0, (30, 2))
    R = radial_quantities(evaluate(T, X))
    for x, r in zip(X, R):
        for j in range(2):
            assert r[j] == pytest.approx(math.sqrt(x[j] * potential_partial(T, x, j)), rel=1e-12)


def test_numeric_suite_passes_and_catches_a_low_radius_bound(monkeypatch):
    # radial_bound reports its largest signed gap |Psi_j| - bound_j: below 0
    # on a passing run, above the tolerance once the bound is halved
    T = fixture_potential("example-3.8:3")
    got = {r.name: r for r in numeric_suite(T, seed=4, samples=3)}
    assert all(r.passed for r in got.values())
    assert got["radial_bound"].deviation < 0
    true_bounds = toricwidth.numeric.axis_radius_bounds
    monkeypatch.setattr(toricwidth.verify, "axis_radius_bounds", lambda T: 0.5 * true_bounds(T))
    got = {r.name: r for r in numeric_suite(T, seed=4, samples=3)}
    failed = {name for name, r in got.items() if not r.passed}
    assert failed == {"radial_bound", "radial_sup_along_path", "psi_within_cylinder"}
    assert got["radial_bound"].deviation > 1e-9


def both_passes(monkeypatch, P) -> tuple[ToricPotential, ToricPotential]:
    """The potential of P's embedding at its first vertex twice: once taking
    the closed pass whatever its fibre lengths, once the dense pass."""
    E = sections_by_polytope(P, P.vertices[0])
    potentials = []
    for length in (0, math.inf):
        monkeypatch.setattr(toricwidth.numeric, "CLOSED_FORM_LENGTH", length)
        potentials.append(ToricPotential(E))
        assert potentials[-1].closed_form is (length == 0)  # fixed on first use
    monkeypatch.undo()
    return potentials[0], potentials[1]


CLOSED_FORM_INPUTS = {
    "cpn:1:400": lambda: resolve_fixture("cpn:1:400"),
    "example-3.8:50": lambda: resolve_fixture("example-3.8:50"),
    "cpn:3:40": lambda: resolve_fixture("cpn:3:40"),  # N / F = 14.3
    "dilated-3d": lambda: dilate(random_delzant_polytope(random.Random(3), 3), 6),
}


def closed_form_rows(n: int, rng: np.random.Generator) -> np.ndarray:
    """Drawn rows, then rows whose x_n is 1, 1 +- 1e-9 or e^{+-8}, where
    the closed pass turns to its series or to long tails."""
    X = rng.uniform(0.1, 10.0, (40, n))
    special = rng.uniform(0.1, 10.0, (5, n))
    special[:, -1] = [1.0, 1 + 1e-9, 1 - 1e-9, math.exp(8), math.exp(-8)]
    return np.concatenate([X, special])


@pytest.mark.parametrize("spec", CLOSED_FORM_INPUTS)
def test_the_closed_pass_matches_the_dense_pass(monkeypatch, spec):
    # lse and partials to 1e-10 relative, covariances to 1e-10 of each
    # row's largest entry; rows on a coordinate hyperplane take the dense
    # pass bit for bit
    closed, dense = both_passes(monkeypatch, CLOSED_FORM_INPUTS[spec]())
    n = closed.dim
    rng = np.random.default_rng(41)
    X = closed_form_rows(n, rng)
    on = X[::4].copy()
    on[:, 0] = 0.0
    on[1::2, -1] = 0.0
    X = np.concatenate([X, on])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(closed, X, hessians=len(X))
    want = evaluate(dense, X, hessians=len(X))
    assert np.abs(got.lse - want.lse).max() <= 1e-10 * np.abs(want.lse).max()
    assert (np.abs(got.partials - want.partials) <= 1e-10 * np.abs(want.partials)).all()
    scale = np.abs(want.cov).max(axis=(1, 2))
    assert (np.abs(got.cov - want.cov).max(axis=(1, 2)) <= 1e-10 * scale).all()
    zero = (X == 0).any(axis=1)
    assert zero.sum() == len(on)
    for a, b in ((got.lse, want.lse), (got.partials, want.partials), (got.cov, want.cov)):
        assert np.array_equal(a[zero], b[zero])


@pytest.mark.parametrize("spec", ["cpn:1:400", "dilated-3d"])
def test_the_closed_pass_works_row_by_row(monkeypatch, spec):
    # one-row slices and one-row passes give the bits of the whole pass,
    # rows on a coordinate hyperplane mixed in
    closed, _ = both_passes(monkeypatch, CLOSED_FORM_INPUTS[spec]())
    X = closed_form_rows(closed.dim, np.random.default_rng(42))[::3]
    X[::4, 0] = 0.0
    fields = lambda s: (s.lse, s.partials, s.cov)
    whole = fields(evaluate(closed, X, hessians=len(X)))
    rows = [fields(evaluate(closed, X[r:r + 1], hessians=1)) for r in range(len(X))]
    tail = fields(evaluate(closed, X[5:], hessians=3))
    monkeypatch.setattr(toricwidth.numeric, "BATCH_ENTRIES", 1)
    split = fields(evaluate(closed, X, hessians=len(X)))
    for i, (a, b) in enumerate(zip(whole, split)):
        assert np.array_equal(a, b), i
        assert np.array_equal(a, np.concatenate([r[i] for r in rows])), i
    assert np.array_equal(tail[2], whole[2][-3:])
    assert np.array_equal(tail[0], whole[0][5:])


def test_the_closed_pass_stays_finite_and_quiet_at_extreme_rows(monkeypatch):
    # no RuntimeWarning, though the unused branch overflows or divides by 0
    closed, dense = both_passes(monkeypatch, resolve_fixture("example-3.8:50"))
    X = np.array([[1e-300, 1e-300], [1e300, 1e-300], [1e-300, 1e300], [1e300, 1e300],
                  [1.0, 1.0], [5e-324, 2.0], [2.0, 5e-324]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(closed, X, hessians=len(X))
    assert np.isfinite(got.lse).all() and np.isfinite(got.partials).all()
    assert np.isfinite(got.cov).all()
    want = evaluate(dense, X, hessians=len(X))
    assert np.abs(got.lse - want.lse).max() <= 1e-10 * np.abs(want.lse).max()


def test_long_fibres_select_the_closed_pass():
    # N / F reaches CLOSED_FORM_LENGTH = 13 on these; of the verify
    # workload's fixtures only on cpn:1:400 (401), not on cpn:2:20 (11)
    closed = {"cpn:1:400", "example-3.8:50", "cpn:3:40", "cpn:2:24"}
    dense = {"example-3.7", "example-3.8:1", "example-3.8:3", "cpn:2:5", "cpn:2:20", "cpn:3:3",
             "cpn:3:10"}
    assert {spec for spec in closed | dense if fixture_potential(spec).closed_form} == closed
