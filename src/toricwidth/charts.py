"""Affine charts of a smooth fan and the monomial maps between them.

For a maximal cone sigma with generator indices j_1 < ... < j_n, write U for
the n x n matrix whose columns are those generators and V = U^-1 * W, where W
collects the remaining generators as columns (ascending index).  The chart
map on homogeneous coordinates z in C^d is

    phi([z])_k = z_{j_k} * prod_l z_{j_l}^{V[k][l]}   (l over the complement)

and its right inverse psi places xi on the sigma slots and 1 elsewhere.
All exponent data is exact integer arithmetic; only evaluation uses floats.

Every chart of a fan with k maximal cones comes from one exact product
(chart_table): the stacked inverses U_c^-1, the edge directions of the
walked vertices (fan.normal_fan), times the generators give the (k, n, d)
table T with T[c]_ij = <w_i^c, u_j>.  Its columns on chart c's cone are the
identity and its other columns are c's V; the exponents of the chart change
phi_b after psi_a, E[a, b] = U_b^-1 U_a, are T[b]'s columns on a's cone.  So
every V is a gather of T, and no chart runs an elimination or a product of
its own.  T is int64 when d M^2 < INT64_BOUND for
M = max(n max|w| max|u|, max|u|, 1), which bounds T, the generators and
every product and partial sum of T, of the generators and of verify's exact
checks on them, and an object array of Python ints, exact at any size,
otherwise.  The float maps need int64 exponents, so ChartTable.exponents
raises OverflowError on entries past 2^63.

Each map has one form, on rows of points (phi_sigmas, psi_sigmas,
kernel_params, torus_images, monomials, transition_sides), evaluated with
numpy.  The chart forms take ChartArrays, which hold one chart per row of
points (ChartTable.charts), so a sweep over many charts and points is one
pass; a single point is a single row.  transition_sides evaluates both sides
of a chart change on the n coordinates that psi_a sets: the monomial map
with E[a, b] = U_b^-1 U_a multiplied out of the table's inverses and
generators, and phi_b after psi_a with chart b's V read off T, so that a
wrong entry of T makes the two disagree.  chart_for_cone and transition_map
give the exact data of one chart and of one chart change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fan import Fan
from .lattice import IntMatrix, dot

# an int64 product is used only when a bound on its entries and partial sums
# stays below this; a module constant, so that a test can force the fallback
INT64_BOUND = 2**63


class NonUnimodularConeError(ValueError):
    pass


@dataclass(frozen=True)
class ChartData:
    """Exact chart data for one maximal cone of a smooth fan."""

    fan: Fan
    cone: tuple[int, ...]
    complement: tuple[int, ...]
    U: IntMatrix
    U_inv: IntMatrix
    V: IntMatrix  # n x (d - n); column l belongs to generator complement[l]


def _inverse(F: Fan, cone_index: int) -> IntMatrix:
    """U^-1 of F.max_cones[cone_index]; refuses a cone that is not unimodular."""
    cone = F.max_cones[cone_index]
    if len(cone) != F.dim:
        raise NonUnimodularConeError(f"cone {cone} is not full-dimensional")
    U_inv = F.inverses[cone_index] if F.inverses else None
    if U_inv is None:
        raise NonUnimodularConeError(f"cone {cone} generators are not a Z-basis")
    return U_inv


def chart_for_cone(F: Fan, cone_index: int) -> ChartData:
    """Chart data for F.max_cones[cone_index]; the cone must be unimodular.
    V[k][l] = <w_k, u_{complement[l]}> over the rows w_k of F's U^-1."""
    U_inv = _inverse(F, cone_index)
    cone = F.max_cones[cone_index]
    complement = tuple(i for i in range(len(F.generators)) if i not in cone)
    V = tuple(tuple(dot(w, F.generators[j]) for j in complement) for w in U_inv)
    U = tuple(zip(*(F.generators[i] for i in cone)))
    return ChartData(F, cone, complement, U, U_inv, V)


def exact_array(rows) -> np.ndarray:
    """rows as an int64 array when every entry fits, else as Python ints."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def largest(A: np.ndarray) -> int:
    """max |entry| of an exact array, as a Python int (0 when empty)."""
    return max(int(A.max()), -int(A.min())) if A.size else 0


@dataclass(frozen=True)
class ChartArrays:
    """The cone slots, complement and V of one chart per row of points, as
    integer arrays stacked along a leading axis."""

    d: int
    cone: np.ndarray  # (rows, n)
    complement: np.ndarray  # (rows, d - n)
    V: np.ndarray  # (rows, n, d - n)


@dataclass(frozen=True)
class ChartTable:
    """Every chart of a smooth fan: its generators G (d, n), and per
    maximal cone c its slots cone[c], its complement, U_c^-1 and
    T[c] = U_c^-1 G^T.  G, the inverses and T are all int64 or all
    Python-int object arrays (see the module doc)."""

    generators: np.ndarray  # (d, n)
    cone: np.ndarray  # (k, n)
    complement: np.ndarray  # (k, d - n)
    inverses: np.ndarray  # (k, n, n)
    T: np.ndarray  # (k, n, d)

    @cached_property
    def exponents(self) -> np.ndarray:
        """T in int64, for the float maps; OverflowError past 2^63."""
        return self.T if self.T.dtype == np.int64 else self.T.astype(np.int64)

    @cached_property
    def places(self) -> np.ndarray:
        """(k, d): the slot of each generator in each chart's cone, or n for
        a generator off the cone."""
        k, n = self.cone.shape
        places = np.full((k, self.T.shape[2]), n)
        places[np.arange(k)[:, None], self.cone] = np.arange(n)
        return places

    def charts(self, rows) -> ChartArrays:
        """Chart rows[r] of the table in row r: its V gathered from T."""
        n = self.cone.shape[1]
        complement = self.complement[rows]
        chart = np.asarray(rows)[:, None, None]
        V = self.exponents[chart, np.arange(n)[:, None], complement[:, None]]
        return ChartArrays(self.T.shape[2], self.cone[rows], complement, V)


def chart_table(F: Fan) -> ChartTable:
    """Every chart of F from one exact product of the stacked inverses and
    the generators; refuses F, naming the first such cone, when a maximal
    cone is not unimodular."""
    inverses = [_inverse(F, ci) for ci in range(len(F.max_cones))]
    k, n, d = len(inverses), F.dim, len(F.generators)
    cone = np.array(F.max_cones, dtype=np.int64).reshape(k, n)
    off = np.ones((k, d), dtype=bool)
    off[np.arange(k)[:, None], cone] = False
    complement = np.nonzero(off)[1].reshape(k, d - n)
    G, W = exact_array(F.generators), exact_array(inverses)
    M = max(n * largest(W) * largest(G), largest(G), 1)
    if d * M * M >= INT64_BOUND:
        G, W = G.astype(object), W.astype(object)
    return ChartTable(G, cone, complement, W, W @ G.T)


def monomials(X, E) -> np.ndarray:
    """prod_m X[..., m] ** E[..., k, m] for each k: the monomial map with
    integer exponent rows E at each row of X.  E is one matrix for every
    row, or one matrix per row stacked along its first axis."""
    return (np.asarray(X, dtype=complex)[..., None, :] ** E).prod(axis=-1)


def _rows(X: np.ndarray) -> np.ndarray:
    """Row indices of X as a column, to index each row's own chart slots;
    a one-row ChartArrays serves every row."""
    return np.arange(len(X))[:, None]


def phi_sigmas(A: ChartArrays, Z) -> np.ndarray:
    """The chart map at each row of Z (homogeneous coordinates, one point
    per row): the cone slots times the complement coordinates to the
    powers V.  Complement coordinates must be nonzero whenever they carry
    a negative exponent; we simply require them all nonzero."""
    Z = np.asarray(Z, dtype=complex)
    if Z.shape[-1] != A.d:
        raise ValueError(f"need {A.d} homogeneous coordinates")
    r = _rows(Z)
    off = Z[r, A.complement]
    if (off == 0).any():
        zero = np.broadcast_to(A.complement, off.shape)[off == 0][0]
        raise ValueError(f"coordinate {zero} is zero but lies off the cone")
    return Z[r, A.cone] * monomials(off, A.V)


def psi_sigmas(A: ChartArrays, XI) -> np.ndarray:
    """Homogeneous representatives with each row of XI on the cone slots
    and 1 elsewhere."""
    XI = np.asarray(XI, dtype=complex)
    if XI.shape[-1] != A.cone.shape[-1]:
        raise ValueError(f"need {A.cone.shape[-1]} chart coordinates")
    Z = np.ones((len(XI), A.d), dtype=complex)
    Z[_rows(XI), A.cone] = XI
    return Z


def transition_sides(table: ChartTable, a, b, XI) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the chart change at each row r of XI: the monomial map
    with exponents E[a[r], b[r]] = U_b^-1 U_a, multiplied out of the
    table's inverses and generators, and phi_b after psi_a through chart
    b's V, which T holds.

    psi_a sets only the n coordinates of a's cone, and the others are 1, as
    are their powers.  So coordinate k of phi_b is XI at the slot in a's
    cone of b's k-th cone generator (or 1), times the powers XI_m^V[k, m]
    over the generators cone_a[m] off b's cone, with V = T[b] on a's cone,
    in ascending m, which is the order of b's complement.  A power is a
    function of its base and exponent, so the chart side takes the
    monomial side's XI_m^E[k, m] wherever V[k, m] = E[k, m], and its own
    power elsewhere; on b's cone it reads an exact 1, the value XI_m^0
    that phi_b's own power gives.  So every product is the one the full
    chart maps form, bit for bit."""
    XI = np.asarray(XI, dtype=complex)
    n = table.cone.shape[1]
    if XI.shape[-1] != n:
        raise ValueError(f"need {n} chart coordinates")
    a, b = np.asarray(a), np.asarray(b)
    cone_a = table.cone[a]
    E = table.inverses[b] @ table.generators[cone_a].transpose(0, 2, 1)
    E = E if E.dtype == np.int64 else E.astype(np.int64)
    powers = XI[:, None, :] ** E
    V = table.exponents[b[:, None, None], np.arange(n)[:, None], cone_a[:, None]]
    on_b = table.places[b[:, None], cone_a] < n  # cone_a[m] lies in b's cone
    chart = np.where(on_b[:, None], 1, powers)
    own = V != E
    if own.any():
        own &= ~on_b[:, None]
        chart[own] = np.broadcast_to(XI[:, None, :], V.shape)[own] ** V[own]
    padded = np.concatenate([XI, np.ones((len(XI), 1), dtype=complex)], -1)
    slots = padded[_rows(XI), table.places[a[:, None], table.cone[b]]]
    # np.multiply, not *, which may swap the operands to reuse a temporary:
    # a complex product rounds by operand order when numpy fuses its adds
    return powers.prod(axis=-1), np.multiply(slots, chart.prod(axis=-1))


def kernel_params(A: ChartArrays, AC) -> np.ndarray:
    """Extend complement torus values (one point per row of AC) to elements
    of the kernel torus.

    The cone slots are forced: alpha_{j_k} = prod_l alpha_{j_l}^{-V[k][l]}.
    Each result alpha satisfies prod_k alpha_k^{u_k,i} = 1 for every i.
    """
    AC = np.asarray(AC, dtype=complex)
    if AC.shape[-1] != A.complement.shape[-1]:
        raise ValueError(f"need {A.complement.shape[-1]} complement values")
    if (AC == 0).any():
        raise ValueError("kernel torus values must be nonzero")
    alpha = np.ones((len(AC), A.d), dtype=complex)
    r = _rows(AC)
    alpha[r, A.complement] = AC
    alpha[r, A.cone] = monomials(AC, -A.V)
    return alpha


def torus_images(F: Fan, alpha) -> np.ndarray:
    """The map (C^*)^d -> (C^*)^n, alpha -> (prod_k alpha_k^{u_k,i})_i, at
    each row of alpha."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape[-1] != len(F.generators):
        raise ValueError(f"need {len(F.generators)} torus coordinates")
    return monomials(alpha, np.array(F.generators, dtype=np.int64).T)


def transition_map(C1: ChartData, C2: ChartData) -> IntMatrix:
    """Exponent matrix U_2^-1 * U_1 of the chart change phi_2 after psi_1
    (the maps of C2 and C1), a monomial map that monomials evaluates;
    transitions compose by matrix product, so E_13 = E_23 * E_12 exactly.
    """
    if C1.fan.generators != C2.fan.generators:
        raise ValueError("charts belong to different fans")
    return tuple(tuple(dot(w, C1.fan.generators[j]) for j in C1.cone) for w in C2.U_inv)
