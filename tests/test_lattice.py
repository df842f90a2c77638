import random
from fractions import Fraction

import pytest

from toricwidth.lattice import (
    det,
    dot,
    fraction_free_solve,
    int_vector,
    integer_kernel_basis,
    inverse_unimodular,
    is_primitive,
    is_z_basis,
    mat_mul,
    mat_vec,
    matrix_from_columns,
    matrix_rank,
    rref,
    solve_rational,
    transpose,
)


def test_det_2x2():
    assert det(((2, 1), (1, 1))) == 1
    assert det(((1, 0), (0, 1))) == 1
    assert det(((1, 2), (2, 4))) == 0


def test_det_rational_entries():
    assert det(((Fraction(1, 2), 0), (0, Fraction(1, 3)))) == Fraction(1, 6)


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))


def test_det_bigger():
    M = ((2, 0, 1), (1, 1, 0), (0, 3, 1))
    # cofactor expansion by hand: 2*(1) - 0 + 1*(3) = 5
    assert det(M) == 5


def test_is_z_basis():
    assert is_z_basis(((1, 0), (1, -1)))
    assert not is_z_basis(((1, 0), (1, 2)))
    with pytest.raises(ValueError):
        is_z_basis(((1, 0),))


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
        if det(M) == 0:
            assert solved is None
            continue
        D, Y = solved
        assert D == abs(det(M))
        assert mat_mul(M, Y) == tuple(tuple(D * x for x in row) for row in B)
        assert all(type(y) is int for row in Y for y in row)


def test_solve_rational():
    assert solve_rational(((1, 0), (1, 1)), (1, 2)) == (1, 1)
    assert solve_rational(((1, 1), (2, 2)), (1, 2)) is None
    assert solve_rational(((2, 0), (0, 4)), (1, 1)) == (Fraction(1, 2), Fraction(1, 4))


def test_rref_and_rank():
    R, pivots = rref(((1, 2, 3), (2, 4, 6), (1, 0, 1)))
    assert pivots == (0, 1)
    assert matrix_rank(((1, 2), (2, 4))) == 1
    assert matrix_rank(((1, 0), (0, 1))) == 2


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
        assert abs(det(M)) == 1
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
        if det(M) == 0:
            assert got is None
        else:
            assert got == x


def test_transpose_and_columns():
    M = ((1, 2), (3, 4))
    assert transpose(M) == ((1, 3), (2, 4))
    assert matrix_from_columns([(1, 3), (2, 4)]) == M


def test_int_vector_rejects_non_integers():
    with pytest.raises(ValueError):
        int_vector((1, Fraction(1, 2)))
    assert int_vector((Fraction(2, 1), 3)) == (2, 3)
