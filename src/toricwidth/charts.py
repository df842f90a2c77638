"""Affine charts of a smooth fan and the monomial maps between them.

For a maximal cone sigma with generator indices j_1 < ... < j_n, write U for
the n x n matrix whose columns are those generators and V = U^-1 * W, where W
collects the remaining generators as columns (ascending index).  The chart
map on homogeneous coordinates z in C^d is

    phi([z])_k = z_{j_k} * prod_l z_{j_l}^{V[k][l]}   (l over the complement)

and its right inverse psi places xi on the sigma slots and 1 elsewhere.
All exponent data is exact integer arithmetic; only evaluation uses floats.
U^-1 is the fan's, the edge directions of the walked vertex on sigma
(fan.normal_fan), so each entry of V is one dot product and no chart runs
an elimination of its own; verify's exact checks cross-check the walk's.

Each map has one form, on rows of points (phi_sigmas, psi_sigmas,
phi_after_psi_sigmas, kernel_params, torus_images, monomials), evaluated
with numpy.  The chart forms take ChartArrays, which hold one chart per row
of points, so a sweep over many charts and points is one pass; a single
point is a single row.  phi_after_psi_sigmas takes the stack of all charts
and a pair of chart indices per row, and evaluates phi_b after psi_a on
the n coordinates that psi_a sets: n^2 powers a row, not n (d - n).
transition_map gives the exponent matrix of one chart change, and
transition_exponents those of every chart change from one stacked integer
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fan import Fan
from .lattice import IntMatrix, dot, transpose


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

    @property
    def dim(self) -> int:
        return len(self.cone)


def chart_for_cone(F: Fan, cone_index: int) -> ChartData:
    """Chart data for F.max_cones[cone_index]; the cone must be unimodular.
    V[k][l] = <w_k, u_{complement[l]}> over the rows w_k of F's U^-1."""
    cone = F.max_cones[cone_index]
    if len(cone) != F.dim:
        raise NonUnimodularConeError(f"cone {cone} is not full-dimensional")
    U_inv = F.inverses[cone_index] if F.inverses else None
    if U_inv is None:
        raise NonUnimodularConeError(f"cone {cone} generators are not a Z-basis")
    complement = tuple(i for i in range(len(F.generators)) if i not in cone)
    V = tuple(tuple(dot(w, F.generators[j]) for j in complement) for w in U_inv)
    return ChartData(F, cone, complement, transpose([F.generators[i] for i in cone]), U_inv, V)


def monomials(X, E) -> np.ndarray:
    """prod_m X[..., m] ** E[..., k, m] for each k: the monomial map with
    integer exponent rows E at each row of X.  E is one matrix for every
    row, or one matrix per row stacked along its first axis."""
    return (np.asarray(X, dtype=complex)[..., None, :] ** E).prod(axis=-1)


@dataclass(frozen=True)
class ChartArrays:
    """The cone slots, complement and V of one chart per row of points, as
    integer arrays stacked along a leading axis."""

    d: int
    cone: np.ndarray  # (rows, n)
    complement: np.ndarray  # (rows, d - n)
    V: np.ndarray  # (rows, n, d - n)

    def take(self, rows) -> "ChartArrays":
        """The stacked charts self[rows[r]], one for each row r."""
        return ChartArrays(self.d, self.cone[rows], self.complement[rows], self.V[rows])

    @cached_property
    def places(self) -> np.ndarray:
        """(rows, d): the slot of each generator in its row's cone, or n
        for a generator off the cone."""
        rows, n = self.cone.shape
        places = np.full((rows, self.d), n)
        np.put_along_axis(places, self.cone, np.arange(n), -1)
        return places

    @cached_property
    def powers(self) -> np.ndarray:
        """(rows, n, d): V with column l moved to generator complement[l],
        and 0 at the cone generators."""
        rows, n = self.cone.shape
        powers = np.zeros((rows, n, self.d), dtype=np.int64)
        np.put_along_axis(powers, self.complement[:, None, :], self.V, -1)
        return powers


def stack_charts(charts: Sequence[ChartData]) -> ChartArrays:
    """Arrays of charts[i] in row i; take() then picks a chart per point."""
    k, n, d = len(charts), charts[0].dim, len(charts[0].fan.generators)
    return ChartArrays(
        d,
        np.array([C.cone for C in charts], dtype=np.int64),
        np.array([C.complement for C in charts], dtype=np.int64).reshape(k, d - n),
        np.array([C.V for C in charts], dtype=np.int64).reshape(k, n, d - n),
    )


def phi_sigmas(A: ChartArrays, Z) -> np.ndarray:
    """The chart map at each row of Z (homogeneous coordinates, one point
    per row): the cone slots times the complement coordinates to the
    powers V.  Complement coordinates must be nonzero whenever they carry
    a negative exponent; we simply require them all nonzero."""
    Z = np.asarray(Z, dtype=complex)
    if Z.shape[-1] != A.d:
        raise ValueError(f"need {A.d} homogeneous coordinates")
    off = np.take_along_axis(Z, A.complement, -1)
    if (off == 0).any():
        raise ValueError(f"coordinate {A.complement[off == 0][0]} is zero but lies off the cone")
    return np.take_along_axis(Z, A.cone, -1) * monomials(off, A.V)


def psi_sigmas(A: ChartArrays, XI) -> np.ndarray:
    """Homogeneous representatives with each row of XI on the cone slots
    and 1 elsewhere."""
    XI = np.asarray(XI, dtype=complex)
    if XI.shape[-1] != A.cone.shape[-1]:
        raise ValueError(f"need {A.cone.shape[-1]} chart coordinates")
    Z = np.ones(XI.shape[:-1] + (A.d,), dtype=complex)
    np.put_along_axis(Z, A.cone, XI, -1)
    return Z


def phi_after_psi_sigmas(A: ChartArrays, a, b, XI) -> np.ndarray:
    """phi_sigmas(A.take(b), psi_sigmas(A.take(a), XI)): row r of XI through
    chart a[r] of the stack A, then chart b[r].

    psi_a sets only the n coordinates of a's cone, and the others are 1, as
    are their powers.  So coordinate k is XI at the slot in a's cone of b's
    k-th cone generator (or 1), times the powers XI_m^V_b[k, l] over the
    complement columns l of b whose generator is cone_a[m], in ascending l
    (both tuples are sorted, so ascending m).  That is n^2 powers XI_m^e,
    with e = 0 where cone_a[m] lies in b's cone.  Multiplying by an exact 1
    changes nothing, so every product is the one phi_sigmas forms, bit for
    bit."""
    XI = np.asarray(XI, dtype=complex)
    n = A.cone.shape[-1]
    if XI.shape[-1] != n:
        raise ValueError(f"need {n} chart coordinates")
    a, b = np.asarray(a), np.asarray(b)
    padded = np.concatenate([XI, np.ones(XI.shape[:-1] + (1,), dtype=complex)], -1)
    slots = np.take_along_axis(padded, A.places[a[:, None], A.cone[b]], -1)
    powers = A.powers[b[:, None, None], np.arange(n)[:, None], A.cone[a][:, None, :]]
    # np.multiply, not *, which may swap the operands to reuse a temporary:
    # a complex product rounds by operand order when numpy fuses its adds
    return np.multiply(slots, monomials(XI, powers))


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
    alpha = np.ones(AC.shape[:-1] + (A.d,), dtype=complex)
    np.put_along_axis(alpha, A.complement, AC, -1)
    np.put_along_axis(alpha, A.cone, monomials(AC, -A.V), -1)
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


def transition_exponents(charts: Sequence[ChartData]) -> np.ndarray:
    """E[a, b] = U_b^-1 U_a, the exponents of transition_map(charts[a], charts[b]), for
    all pairs from one stacked product of object arrays: Python ints, exact at any size."""
    U = np.array([C.U for C in charts], dtype=object)
    U_inv = np.array([C.U_inv for C in charts], dtype=object)
    return U_inv[None] @ U[:, None]
