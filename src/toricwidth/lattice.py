"""Exact linear algebra over integers and rationals.

Vectors are tuples, matrices are tuples of row tuples.  Everything in this
module is exact: arbitrary-precision ints, fractions.Fraction, no floats.

All elimination is one integer kernel, _eliminate (fraction-free
Gauss-Jordan).  solve_rational reads D and the right-hand block, rref the
rows over D and the pivot columns; the rest sit on these.  The vertex
enumeration calls _eliminate once, at its start, to pick n independent
normals with their dictionary; its later pivots are its own.  No Z-basis
test lives here: a vertex's tight normals form one when the walk's
D = |det U_A| there is 1, and the fan and the charts take their inverses
and their pairings U_A^-1 G^T with the generators G from the walk.  The
tests' oracles keep their own square solve in geomgen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

IntVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]
IntMatrix = tuple[tuple[int, ...], ...]
RationalMatrix = tuple[tuple[Fraction, ...], ...]


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(a * b for a, b in zip(u, v))


def quotient(p, q: int):
    """p / q exactly: the int p // q when q divides p, else a Fraction."""
    d, r = divmod(p, q)
    return Fraction(p, q) if r else d


def is_primitive(u: Sequence[int]) -> bool:
    """A nonzero integer vector is primitive when its entries have gcd 1."""
    return math.gcd(*u) == 1


def _integer_rows(M: Iterable[Iterable]) -> list[list[int]]:
    """Each row scaled to integers by the lcm of its denominators."""
    rows = []
    for row in M:
        frow = [Fraction(x) for x in row]
        l = math.lcm(*(f.denominator for f in frow))
        rows.append([f.numerator * (l // f.denominator) for f in frow])
    return rows


def _eliminate(A: list[list[int]], width: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows A, in place,
    with pivots in the first width columns; returns the pivot columns and the
    last pivot D.

    Each step updates whole rows, row <- (p * row - f * pivot row) / previous
    pivot, and every division is exact (Bareiss 1968; Nakos, Turner and
    Williams 1997).  Pivot row k ends with D in its pivot column and 0 in
    the other pivot columns, so A / D is the reduced row echelon form; for a
    square block with a pivot in every column, D is +-its determinant.
    """
    pivots, D = [], 1
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        top = A[r]
        p = top[c]
        for i, row in enumerate(A):
            if i != r:
                f = row[c]
                A[i] = [(p * a - f * t) // D for a, t in zip(row, top)]
        pivots.append(c)
        D = p
    return pivots, D


def solve_rational(M: Sequence[Sequence], b: Sequence) -> RationalVector | None:
    """Solve the square system M x = b exactly; None when M is singular.

    The integer rows of [M | b] are eliminated with pivots in M's columns.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(b) != n:
        raise ValueError("need a square system with matching right-hand side")
    A = _integer_rows((*row, rhs) for row, rhs in zip(M, b))
    pivots, D = _eliminate(A, n)
    return tuple(Fraction(row[n], D) for row in A) if len(pivots) == n else None


def rref(M: Sequence[Sequence]) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals, A / D for the integer rows
    A of M eliminated over every column; returns (R, pivot columns)."""
    A = _integer_rows(M)
    pivots, D = _eliminate(A, len(A[0]) if A else 0)
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
