import math
import random
from fractions import Fraction

import pytest

from geomgen import (
    AffineLatticeMap,
    blowup_polygon,
    fraction_free_solve,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    oracle_det,
    oracle_rref,
    random_delzant_polytope,
    transpose,
)
from toricwidth.charts import NonUnimodularConeError, chart_for_cone
from toricwidth.fan import Fan, normal_fan
from toricwidth.fixtures import resolve_fixture
from toricwidth.lattice import (
    dot,
    int_vector,
    integer_kernel_basis,
    is_primitive,
    rref,
    solve_rational,
)


# The tests' determinant is geomgen.oracle_det; these pin it by hand.
def test_det_2x2():
    assert oracle_det(((2, 1), (1, 1))) == 1
    assert oracle_det(((1, 0), (0, 1))) == 1
    assert oracle_det(((1, 2), (2, 4))) == 0


def test_det_rational_entries():
    assert oracle_det(((Fraction(1, 2), 0), (0, Fraction(1, 3)))) == Fraction(1, 6)


def test_det_bigger():
    M = ((2, 0, 1), (1, 1, 0), (0, 3, 1))
    # cofactor expansion by hand: 2*(1) - 0 + 1*(3) = 5
    assert oracle_det(M) == 5


def is_z_basis(M) -> bool:
    """A Z-basis test by one fraction-free elimination that ends with D = 1,
    the D the edge walk reads at each vertex."""
    solved = fraction_free_solve(M, [()] * len(M))
    return solved is not None and solved[0] == 1


def test_is_z_basis():
    assert is_z_basis(((1, 0), (1, -1)))
    assert not is_z_basis(((1, 0), (1, 2)))
    with pytest.raises(ValueError):
        is_z_basis(((1, 0),))


def _random_unimodular(rng, n):
    """The identity under random integer row operations and row swaps."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        if rng.random() < 0.3:
            M[i], M[j] = M[j], M[i]
    return tuple(tuple(row) for row in M)


def test_integer_z_basis_test_agrees_with_the_determinant():
    # random matrices, unimodular ones (det +-1) and singular ones (a row
    # repeated or zeroed), n = 1..4
    rng = random.Random(11)
    kinds = {"unimodular": 0, "singular": 0, "other": 0}
    for k in range(360):
        n = rng.randint(1, 4)
        if k % 3 == 0:
            M = _random_unimodular(rng, n)
        else:
            M = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(n)]
                 for _ in range(n)]
            if k % 3 == 1:
                i, j = rng.randrange(n), rng.randrange(n)
                M[i] = list(M[j]) if i != j else [0] * n
            M = tuple(tuple(row) for row in M)
        d = oracle_det(M)
        kinds["unimodular" if abs(d) == 1 else "singular" if d == 0 else "other"] += 1
        assert is_z_basis(M) == (abs(d) == 1), M
    assert min(kinds.values()) >= 50, kinds


def _fans():
    specs = ["example-3.7", "example-3.8:1", "example-3.8:4", "cpn:1:3", "cpn:2:1",
             "cpn:3:2", "cpn:4:1"]
    yield from (normal_fan(resolve_fixture(s)) for s in specs)
    yield from (normal_fan(blowup_polygon(random.Random(seed), d))
                for seed, d in ((1, 6), (2, 9), (100016, 16)))
    yield from (normal_fan(random_delzant_polytope(random.Random(seed), n))
                for seed, n in ((1, 3), (2, 4)))


def test_chart_inverse_is_the_unimodular_inverse():
    for F in _fans():
        n = F.dim
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for k in range(len(F.max_cones)):
            C = chart_for_cone(F, k)
            W = tuple(tuple(F.generators[j][i] for j in C.complement) for i in range(n))
            assert C.U_inv == inverse_unimodular(C.U)
            assert mat_mul(C.U, C.U_inv) == identity
            assert mat_mul(C.U, C.V) == W


def test_unimodularity_messages_are_unchanged():
    with pytest.raises(NonUnimodularConeError, match=r"^cone \(0, 1\) generators are not a Z-basis$"):
        chart_for_cone(Fan(((1, 0), (1, 2)), ((0, 1),)), 0)
    with pytest.raises(NonUnimodularConeError, match=r"^cone \(0, 1\) generators are not a Z-basis$"):
        chart_for_cone(Fan(((1, 0), (2, 0), (0, 1)), ((0, 1),)), 0)  # singular
    with pytest.raises(NonUnimodularConeError, match=r"^cone \(0,\) is not full-dimensional$"):
        chart_for_cone(Fan(((1, 0), (0, 1)), ((0,),)), 0)
    for M in (((2, 0), (0, 1)), ((1, 2), (2, 4)), ((3,),)):
        with pytest.raises(ValueError, match=r"^matrix must be unimodular$"):
            AffineLatticeMap(M, (0,) * len(M))
    for M in ((), ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match=r"^matrix must be square and nonempty$"):
            AffineLatticeMap(M, (0, 0))
    assert AffineLatticeMap(((0, 1), (1, 0)), (0, 0)).matrix == ((0, 1), (1, 0))


def test_is_primitive():
    assert is_primitive((1, -1))
    assert is_primitive((0, 1))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 0))
    assert is_primitive((-1,))
    assert not is_primitive((2,))


def test_inverse_unimodular():
    assert inverse_unimodular(((1, 1), (0, 1))) == ((1, -1), (0, 1))
    with pytest.raises(ValueError):
        inverse_unimodular(((2, 0), (0, 1)))


def test_inverse_unimodular_reports_the_signed_determinant():
    with pytest.raises(ValueError, match=r"^matrix is not unimodular \(det = -2\)$"):
        inverse_unimodular(((2, 0), (0, -1)))
    with pytest.raises(ValueError, match=r"^matrix is not unimodular \(det = 0\)$"):
        inverse_unimodular(((1, 2), (2, 4)))


def test_fraction_free_solve():
    # M Y = D B with D = |det M|, also when a zero pivot forces a row swap
    assert fraction_free_solve(((0, 1), (2, 0)), ((1, 0), (3, 5))) == (2, [[3, 5], [2, 0]])
    assert fraction_free_solve(((1, 2), (2, 4)), ((1,), (1,))) is None
    rng = random.Random(3)
    for _ in range(300):
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        M = tuple(
            tuple(rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n))
            for _ in range(n)
        )
        B = tuple(tuple(rng.randint(-9, 9) for _ in range(k)) for _ in range(n))
        solved = fraction_free_solve(M, B)
        if oracle_det(M) == 0:
            assert solved is None
            continue
        D, Y = solved
        assert D == abs(oracle_det(M))
        assert mat_mul(M, Y) == tuple(tuple(D * x for x in row) for row in B)
        assert all(type(y) is int for row in Y for y in row)


def test_solve_rational():
    assert solve_rational(((1, 0), (1, 1)), (1, 2)) == (1, 1)
    assert solve_rational(((1, 1), (2, 2)), (1, 2)) is None
    assert solve_rational(((2, 0), (0, 4)), (1, 1)) == (Fraction(1, 2), Fraction(1, 4))


def test_rref_and_rank():
    R, pivots = rref(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    assert pivots == (0, 1)
    assert len(rref(((1, 2), (2, 4)))[1]) == 1
    assert len(rref(((1, 0), (0, 1)))[1]) == 2
    assert rref(()) == ((), ()) and len(rref(())[1]) == 0 and integer_kernel_basis(()) == []


def _oracle_matrix(rng, kind):
    """A random 1-6 x 1-8 matrix of the given kind: small integers, rank
    deficient (rows combined from others, zero columns), rationals, entries
    past 2^63, or zero leading entries that force row swaps."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 8)
    if kind == "rational":
        entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    elif kind == "huge":
        entry = lambda: rng.choice((-1, 1)) * rng.randint(0, 2**70) if rng.random() < 0.8 else 0
    else:
        entry = lambda: rng.randint(-4, 4) if rng.random() < 0.7 else 0
    M = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "deficient":
        for i in range(1, rows):
            if rng.random() < 0.6:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                M[i] = [a * x + b * y for x, y in zip(M[rng.randrange(i)], M[rng.randrange(i)])]
        for c in rng.sample(range(cols), rng.randint(0, cols // 2)):
            for row in M:
                row[c] = 0
    if kind == "swaps":
        for row in M[: rng.randint(1, rows)]:
            lead = rng.randint(1, cols)
            row[:lead] = [0] * lead
    return tuple(tuple(row) for row in M)


def test_elimination_agrees_with_the_fraction_oracles():
    rng = random.Random(2024)
    kinds = ("small", "deficient", "rational", "huge", "swaps")
    seen = {"rank_deficient": 0, "square": 0, "swapped": 0, "past_2_63": 0}
    for k in range(600):
        M = _oracle_matrix(rng, kinds[k % len(kinds)])
        rows, cols = len(M), len(M[0])
        R, pivots = rref(M)
        want_R, want_pivots = oracle_rref(M)
        assert (R, pivots) == (want_R, want_pivots), M
        assert all(type(x) is Fraction for row in R for x in row)
        assert len(rref(M)[1]) == len(want_pivots)
        m = min(rows, cols)
        block = tuple(row[:m] for row in M[:m])
        if all(type(x) is int for row in block for x in row):
            solved = fraction_free_solve(block, [()] * m)
            assert (0 if solved is None else solved[0]) == abs(oracle_det(block)), block
        if all(type(x) is int for row in M for x in row):
            free = [c for c in range(cols) if c not in want_pivots]
            basis = integer_kernel_basis(M)
            assert len(basis) == len(free)
            for f, x in zip(free, basis):
                # the primitive kernel vector that is positive at f and 0 at
                # every other free column, which pins it down
                assert all(dot(row, x) == 0 for row in M)
                assert x[f] > 0 and all(x[g] == 0 for g in free if g != f)
                assert math.gcd(*x) == 1
        seen["rank_deficient"] += len(want_pivots) < min(rows, cols)
        seen["square"] += rows == cols
        seen["swapped"] += M[0][0] == 0 and any(row[0] for row in M)
        seen["past_2_63"] += any(abs(x) > 2**63 for row in M for x in row)
    assert min(seen.values()) >= 40, seen


def test_integer_kernel_basis():
    # relations among the CP^2 normals e1, e2, -e1-e2 as columns
    M = ((1, 0, -1), (0, 1, -1))
    basis = integer_kernel_basis(M)
    assert len(basis) == 1
    w = basis[0]
    assert all(dot(row, w) == 0 for row in M)
    assert abs(w[0]) == 1  # (1, 1, 1) up to sign


def test_random_unimodular_roundtrip():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 4)
        M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            if n == 1:
                break
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for col in range(n):
                M[i][col] += c * M[j][col]
        M = tuple(tuple(row) for row in M)
        assert abs(oracle_det(M)) == 1
        Minv = inverse_unimodular(M)
        assert mat_mul(M, Minv) == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n))
        b = mat_vec(M, x)
        assert solve_rational(M, b) == x


def test_random_solve_exactness():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        M = tuple(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
            for _ in range(n)
        )
        x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        b = mat_vec(M, x)
        got = solve_rational(M, b)
        if oracle_det(M) == 0:
            assert got is None
        else:
            assert got == x


def test_transpose_and_columns():
    M = ((1, 2), (3, 4))
    assert transpose(M) == ((1, 3), (2, 4))
    assert transpose([(1, 3), (2, 4)]) == M  # a matrix from its columns


def test_int_vector_rejects_non_integers():
    with pytest.raises(ValueError):
        int_vector((1, Fraction(1, 2)))
    assert int_vector((Fraction(2, 1), 3)) == (2, 3)
