"""Exact linear algebra over integers and rationals.

Vectors are tuples, matrices are tuples of row tuples.  Everything in this
module is exact: arbitrary-precision ints, fractions.Fraction, no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

IntVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]
IntMatrix = tuple[tuple[int, ...], ...]
RationalMatrix = tuple[tuple[Fraction, ...], ...]


def _as_int(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return f.numerator


def int_vector(entries: Iterable) -> IntVector:
    v = tuple(_as_int(x) for x in entries)
    if not v:
        raise ValueError("empty vector")
    return v


def rational_vector(entries: Iterable) -> RationalVector:
    v = tuple(Fraction(x) for x in entries)
    if not v:
        raise ValueError("empty vector")
    return v


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(a * b for a, b in zip(u, v))


def is_primitive(u: Sequence[int]) -> bool:
    """A nonzero integer vector is primitive when its entries have gcd 1."""
    if all(x == 0 for x in u):
        return False
    return math.gcd(*(abs(int(x)) for x in u)) == 1 if len(u) > 1 else abs(int(u[0])) == 1


def transpose(M: Sequence[Sequence]) -> tuple:
    return tuple(zip(*[tuple(row) for row in M]))


def matrix_from_columns(cols: Sequence[Sequence]) -> tuple:
    return transpose(cols)


def mat_vec(M: Sequence[Sequence], x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in M)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple:
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def det(M: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination.

    Rows are first scaled to integers; intermediate entries stay integral,
    which keeps coefficient growth polynomial instead of exponential.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    scale = Fraction(1)
    A = []
    for row in M:
        frow = [Fraction(x) for x in row]
        l = math.lcm(*(f.denominator for f in frow))
        scale *= l
        A.append([int(f * l) for f in frow])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return Fraction(sign * A[n - 1][n - 1]) / scale


def is_z_basis(vectors: Sequence[Sequence[int]]) -> bool:
    """n integer vectors form a basis of the integer lattice iff |det| = 1,
    that is iff one fraction-free elimination ends with D = 1."""
    n = len(vectors)
    if n == 0:
        raise ValueError("no vectors given")
    if any(len(v) != n for v in vectors):
        raise ValueError(f"need {n} vectors of length {n}")
    solved = fraction_free_solve(vectors, [()] * n)
    return solved is not None and solved[0] == 1


def fraction_free_solve(
    M: Sequence[Sequence[int]], B: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]] | None:
    """Integers (D, Y) with M Y = D B and D > 0; None when M is singular.

    M is an n x n integer matrix and B an integer matrix of n rows, given as
    rows.  Fraction-free Gauss-Jordan elimination on [M | B] (Bareiss 1968;
    Nakos, Turner and Williams 1997): every division by the previous pivot is
    exact, so entries stay integers of polynomial size.  The left block ends
    as the last pivot, +-det M, times the identity, so D = |det M| and
    Y = D M^-1 B; the left block is not stored.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(B) != n:
        raise ValueError("need a square system with matching right-hand side")
    A = [[*row, *rhs] for row, rhs in zip(M, B)]
    prev = 1
    for k in range(n):
        if A[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot is None:
                return None
            A[k], A[pivot] = A[pivot], A[k]
        top = A[k]
        p = top[k]
        tail = top[k + 1 :]
        for i, row in enumerate(A):
            if i != k:
                f = row[k]
                row[k + 1 :] = [(p * a - f * t) // prev for a, t in zip(row[k + 1 :], tail)]
        prev = p
    Y = [row[n:] for row in A]
    if prev < 0:
        return -prev, [[-y for y in row] for row in Y]
    return prev, Y


def solve_rational(M: Sequence[Sequence], b: Sequence) -> RationalVector | None:
    """Solve the square system M x = b exactly; None when M is singular.

    Each row of [M | b] is scaled to integers, then fraction_free_solve.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(b) != n:
        raise ValueError("need a square system with matching right-hand side")
    A = []
    for row, rhs in zip(M, b):
        frow = [Fraction(x) for x in row] + [Fraction(rhs)]
        l = math.lcm(*(f.denominator for f in frow))
        A.append([f.numerator * (l // f.denominator) for f in frow])
    solved = fraction_free_solve([row[:n] for row in A], [row[n:] for row in A])
    if solved is None:
        return None
    D, Y = solved
    return tuple(Fraction(y, D) for y, in Y)


def inverse_unimodular(M: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of an integer matrix with det +-1: one elimination of [M | I]."""
    n = len(M)
    solved = fraction_free_solve(M, [[int(i == j) for j in range(n)] for i in range(n)])
    if solved is None or solved[0] != 1:
        raise ValueError(f"matrix is not unimodular (det = {det(M)})")
    return tuple(tuple(row) for row in solved[1])


def rref(M: Sequence[Sequence]) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals; returns (R, pivot columns)."""
    A = [[Fraction(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        p = A[r][c]
        A[r] = [x / p for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in A), tuple(pivots)


def matrix_rank(M: Sequence[Sequence]) -> int:
    if not M:
        return 0
    return len(rref(M)[1])


def integer_kernel_basis(M: Sequence[Sequence[int]]) -> list[IntVector]:
    """Integer spanning set of {x : M x = 0}, one vector per free column."""
    if not M:
        return []
    R, pivots = rref(M)
    cols = len(M[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * cols
        x[f] = Fraction(1)
        for r, p in enumerate(pivots):
            x[p] = -R[r][f]
        l = math.lcm(*(v.denominator for v in x))
        basis.append(tuple(int(v * l) for v in x))
    return basis
