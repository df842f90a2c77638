"""Exact linear algebra over integers and rationals.

Vectors are tuples, matrices are tuples of row tuples.  Everything in this
module is exact: arbitrary-precision ints, fractions.Fraction, no floats.

All elimination is one integer kernel, _eliminate (fraction-free
Gauss-Jordan).  det reads sign * D over the row scale, fraction_free_solve
and solve_rational read D and the right-hand block, rref the rows over D and
the pivot columns; the rest sit on these.
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
    if type(x) is int:  # not bool, which takes the exact parse below
        return x
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
    return math.gcd(*u) == 1


def transpose(M: Sequence[Sequence]) -> tuple:
    return tuple(zip(*[tuple(row) for row in M]))


def matrix_from_columns(cols: Sequence[Sequence]) -> tuple:
    return transpose(cols)


def mat_vec(M: Sequence[Sequence], x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in M)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple:
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def _integer_rows(M: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """Each row scaled to integers by the lcm of its denominators, and the
    product of those lcms."""
    rows, scale = [], 1
    for row in M:
        frow = [Fraction(x) for x in row]
        l = math.lcm(*(f.denominator for f in frow))
        scale *= l
        rows.append([f.numerator * (l // f.denominator) for f in frow])
    return rows, scale


def _eliminate(A: list[list[int]], width: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows A, in place,
    with pivots in the first width columns; returns the pivot columns, the
    last pivot D and the sign of the row swaps.

    Each step updates whole rows, row <- (p * row - f * pivot row) / previous
    pivot, and every division is exact (Bareiss 1968; Nakos, Turner and
    Williams 1997).  Pivot row k ends with D in its pivot column and 0 in
    the other pivot columns, so A / D is the reduced row echelon form; for a
    square block with a pivot in every column, D is +-its determinant.
    """
    pivots, D, sign = [], 1, 1
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            A[r], A[pivot] = A[pivot], A[r]
            sign = -sign
        top = A[r]
        p = top[c]
        for i, row in enumerate(A):
            if i != r:
                f = row[c]
                A[i] = [(p * a - f * t) // D for a, t in zip(row, top)]
        pivots.append(c)
        D = p
    return pivots, D, sign


def det(M: Sequence[Sequence]) -> Fraction:
    """Determinant: sign * D of the eliminated integer rows, over their scale."""
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    A, scale = _integer_rows(M)
    pivots, D, sign = _eliminate(A, n)
    return Fraction(sign * D, scale) if len(pivots) == n else Fraction(0)


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
    rows.  [M | B] is eliminated with pivots in M's columns: the left block
    ends as the last pivot, +-det M, times the identity, so D = |det M| and
    Y = D M^-1 B.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(B) != n:
        raise ValueError("need a square system with matching right-hand side")
    A = [[*row, *rhs] for row, rhs in zip(M, B)]
    pivots, D, _ = _eliminate(A, n)
    if len(pivots) < n:
        return None
    Y = [row[n:] for row in A]
    if D < 0:
        return -D, [[-y for y in row] for row in Y]
    return D, Y


def solve_rational(M: Sequence[Sequence], b: Sequence) -> RationalVector | None:
    """Solve the square system M x = b exactly; None when M is singular.

    The integer rows of [M | b] are eliminated with pivots in M's columns.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(b) != n:
        raise ValueError("need a square system with matching right-hand side")
    A, _ = _integer_rows((*row, rhs) for row, rhs in zip(M, b))
    pivots, D, _ = _eliminate(A, n)
    return tuple(Fraction(row[n], D) for row in A) if len(pivots) == n else None


def inverse_unimodular(M: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of an integer matrix with det +-1: one elimination of [M | I]."""
    n = len(M)
    solved = fraction_free_solve(M, [[int(i == j) for j in range(n)] for i in range(n)])
    if solved is None or solved[0] != 1:
        raise ValueError(f"matrix is not unimodular (det = {det(M)})")
    return tuple(tuple(row) for row in solved[1])


def rref(M: Sequence[Sequence]) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals, A / D for the integer rows
    A of M eliminated over every column; returns (R, pivot columns)."""
    A, _ = _integer_rows(M)
    pivots, D, _ = _eliminate(A, len(A[0]) if A else 0)
    return tuple(tuple(Fraction(a, D) for a in row) for row in A), tuple(pivots)


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
