"""Affine charts of a smooth fan and the monomial maps between them.

For a maximal cone sigma with generator indices j_1 < ... < j_n, write U for
the n x n matrix whose columns are those generators and V = U^-1 * W, where W
collects the remaining generators as columns (ascending index).  The chart
map on homogeneous coordinates z in C^d is

    phi_sigma([z])_k = z_{j_k} * prod_l z_{j_l}^{V[k][l]}   (l over the complement)

and its right inverse psi_sigma places xi on the sigma slots and 1 elsewhere.
All exponent data is exact integer arithmetic; only evaluation uses floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fan import Fan
from .lattice import (
    IntMatrix,
    det,
    inverse_unimodular,
    mat_mul,
    matrix_from_columns,
)


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

    def exponent_rows(self) -> IntMatrix:
        """Full n x d exponent matrix: row k gives phi_sigma component k.

        Equals U^-1 times the matrix of all generators as columns, which is
        how one sees that each row pairs to zero with every relation among
        the generators (so the monomials are well defined on orbits).
        """
        full = matrix_from_columns(self.fan.generators)
        return mat_mul(self.U_inv, full)


def chart_for_cone(F: Fan, cone_index: int) -> ChartData:
    """Chart data for F.max_cones[cone_index]; the cone must be unimodular."""
    cone = F.max_cones[cone_index]
    n = F.dim
    if len(cone) != n:
        raise NonUnimodularConeError(f"cone {cone} is not full-dimensional")
    U = matrix_from_columns([F.generators[i] for i in cone])
    if abs(det(U)) != 1:
        raise NonUnimodularConeError(f"cone {cone} generators are not a Z-basis")
    U_inv = inverse_unimodular(U)
    complement = tuple(i for i in range(len(F.generators)) if i not in cone)
    if complement:
        W = matrix_from_columns([F.generators[i] for i in complement])
        V = mat_mul(U_inv, W)
    else:
        V = tuple(() for _ in range(n))
    return ChartData(F, cone, complement, U, U_inv, V)


def phi_sigma(C: ChartData, z: Sequence[complex]) -> tuple[complex, ...]:
    """Evaluate the chart map at homogeneous coordinates z.

    Complement coordinates must be nonzero whenever they carry a negative
    exponent; we simply require them all nonzero.
    """
    d = len(C.fan.generators)
    if len(z) != d:
        raise ValueError(f"need {d} homogeneous coordinates")
    for l, j in enumerate(C.complement):
        if z[j] == 0:
            raise ValueError(f"coordinate {j} is zero but lies off the cone")
    out = []
    for k in range(C.dim):
        val = complex(z[C.cone[k]])
        for l, j in enumerate(C.complement):
            e = C.V[k][l]
            if e:
                val *= complex(z[j]) ** e
        out.append(val)
    return tuple(out)


def psi_sigma(C: ChartData, xi: Sequence[complex]) -> tuple[complex, ...]:
    """Homogeneous representative with xi on the cone slots and 1 elsewhere."""
    if len(xi) != C.dim:
        raise ValueError(f"need {C.dim} chart coordinates")
    z = [1.0 + 0.0j] * len(C.fan.generators)
    for k, j in enumerate(C.cone):
        z[j] = complex(xi[k])
    return tuple(z)


def kernel_param(C: ChartData, alpha_complement: Sequence[complex]) -> tuple[complex, ...]:
    """Extend complement torus values to an element of the kernel torus.

    The cone slots are forced: alpha_{j_k} = prod_l alpha_{j_l}^{-V[k][l]}.
    The result alpha satisfies prod_k alpha_k^{u_k,i} = 1 for every i.
    """
    if len(alpha_complement) != len(C.complement):
        raise ValueError(f"need {len(C.complement)} complement values")
    if any(a == 0 for a in alpha_complement):
        raise ValueError("kernel torus values must be nonzero")
    alpha = [1.0 + 0.0j] * len(C.fan.generators)
    for l, j in enumerate(C.complement):
        alpha[j] = complex(alpha_complement[l])
    for k, j in enumerate(C.cone):
        val = 1.0 + 0.0j
        for l, jc in enumerate(C.complement):
            e = C.V[k][l]
            if e:
                val *= complex(alpha_complement[l]) ** (-e)
        alpha[j] = val
    return tuple(alpha)


def torus_image(F: Fan, alpha: Sequence[complex]) -> tuple[complex, ...]:
    """The map (C^*)^d -> (C^*)^n, alpha -> (prod_k alpha_k^{u_k,i})_i."""
    d = len(F.generators)
    if len(alpha) != d:
        raise ValueError(f"need {d} torus coordinates")
    out = []
    for i in range(F.dim):
        val = 1.0 + 0.0j
        for k in range(d):
            e = F.generators[k][i]
            if e:
                val *= complex(alpha[k]) ** e
        out.append(val)
    return tuple(out)


@dataclass(frozen=True)
class MonomialMapData:
    """xi -> (prod_m xi_m^{E[k][m]})_k with integer exponent matrix E.

    needs_nonzero[m] marks inputs that occur with a negative exponent, where
    the map is only defined away from xi_m = 0.
    """

    exponents: IntMatrix
    needs_nonzero: tuple[bool, ...]


def monomial_map(E: IntMatrix) -> MonomialMapData:
    cols = len(E[0]) if E else 0
    needs = tuple(any(row[m] < 0 for row in E) for m in range(cols))
    return MonomialMapData(tuple(tuple(row) for row in E), needs)


def monomial_eval(M: MonomialMapData, xi: Sequence[complex]) -> tuple[complex, ...]:
    if len(xi) != len(M.needs_nonzero):
        raise ValueError("wrong input length")
    for m, needed in enumerate(M.needs_nonzero):
        if needed and xi[m] == 0:
            raise ValueError(f"input {m} must be nonzero for this map")
    out = []
    for row in M.exponents:
        val = 1.0 + 0.0j
        for m, e in enumerate(row):
            if e:
                val *= complex(xi[m]) ** e
        out.append(val)
    return tuple(out)


def transition_map(C1: ChartData, C2: ChartData) -> MonomialMapData:
    """Chart change phi_sigma2 after psi_sigma1 as a monomial map.

    Its exponent matrix is U_2^-1 * U_1; transitions compose by matrix
    product, so E_13 = E_23 * E_12 exactly.
    """
    if C1.fan.generators != C2.fan.generators:
        raise ValueError("charts belong to different fans")
    E = mat_mul(C2.U_inv, C1.U)
    return monomial_map(E)
