"""Affine charts of a smooth fan and the monomial maps between them.

For a maximal cone sigma with generator indices j_1 < ... < j_n, write U for
the n x n matrix whose columns are those generators and V = U^-1 * W, where W
collects the remaining generators as columns (ascending index).  The chart
map on homogeneous coordinates z in C^d is

    phi([z])_k = z_{j_k} * prod_l z_{j_l}^{V[k][l]}   (l over the complement)

and its right inverse psi places xi on the sigma slots and 1 elsewhere.
These and the chart changes are Laurent monomial maps, and on the torus
z -> z^A equals z -> z^B exactly when the integer matrices A and B are
equal; so every identity among them is one of exponent matrices, which
verify decides in exact integer arithmetic without evaluating a point.

Every chart of a fan with k maximal cones comes from the walk (chart_table):
the pairings of the walked vertices (fan.normal_fan), stacked, are the
(k, n, d) table T with T[c]_ij = <w_i^c, u_j>, w_i^c the rows of U_c^-1.
Its columns on chart c's cone are the identity and its other columns are
c's V; the exponents of the chart change phi_b after psi_a,
E[a, b] = U_b^-1 U_a, are T[b]'s columns on a's cone.  So every V is a
gather of T, and no chart runs an elimination or a product of its own.
chart_table reads M = max(n max|w| max|u|, max|u|, 1) off the Python ints
of the generators and inverses, before building any array; M bounds T, the
generators and every product and partial sum of verify.exact_checks, so G,
the inverses and T are all built as int64 when d M^2 < INT64_BOUND, and as
object arrays of Python ints, exact at any size, otherwise.  chart_for_cone
and transition_map give the exact data of one chart and of one chart change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .fan import Fan
from .lattice import IntMatrix, dot

# int64 tables are used only when a bound on their products' entries and
# partial sums stays below this; a module constant, so a test can force the fallback
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


def _cone_rows(F: Fan, cone_index: int) -> tuple[IntMatrix, IntMatrix]:
    """U^-1 of F.max_cones[cone_index] and its pairings U^-1 G^T, as the
    walk kept them; refuses a cone that is not unimodular."""
    cone = F.max_cones[cone_index]
    if len(cone) != F.dim:
        raise NonUnimodularConeError(f"cone {cone} is not full-dimensional")
    U_inv = F.inverses[cone_index] if F.inverses else None
    if U_inv is None:
        raise NonUnimodularConeError(f"cone {cone} generators are not a Z-basis")
    return U_inv, F.pairings[cone_index]


def chart_for_cone(F: Fan, cone_index: int) -> ChartData:
    """Chart data for F.max_cones[cone_index]; the cone must be unimodular.
    V[k][l] = <w_k, u_{complement[l]}>, gathered from the cone's pairings."""
    U_inv, pairings = _cone_rows(F, cone_index)
    cone = F.max_cones[cone_index]
    complement = tuple(i for i in range(len(F.generators)) if i not in cone)
    V = tuple(tuple(row[j] for j in complement) for row in pairings)
    U = tuple(zip(*(F.generators[i] for i in cone)))
    return ChartData(F, cone, complement, U, U_inv, V)


@dataclass(frozen=True)
class ChartTable:
    """Every chart of a smooth fan: its generators G (d, n), and per
    maximal cone c its slots cone[c], its complement, U_c^-1 and
    T[c] = U_c^-1 G^T, the pairings of c's vertex.  G, the inverses and T
    are all int64 or all Python-int object arrays (see the module doc)."""

    generators: np.ndarray  # (d, n)
    cone: np.ndarray  # (k, n)
    complement: np.ndarray  # (k, d - n)
    inverses: np.ndarray  # (k, n, n)
    T: np.ndarray  # (k, n, d)


def chart_table(F: Fan) -> ChartTable:
    """Every chart of F, stacked from the cones' inverses and pairings with
    no product; refuses F, naming the first such cone, when a maximal cone
    is not unimodular."""
    inverses, pairings = zip(*(_cone_rows(F, ci) for ci in range(len(F.max_cones))))
    k, n, d = len(inverses), F.dim, len(F.generators)
    cone = np.array(F.max_cones, dtype=np.int64).reshape(k, n)
    off = np.ones((k, d), dtype=bool)
    off[np.arange(k)[:, None], cone] = False
    complement = np.nonzero(off)[1].reshape(k, d - n)
    flat = chain.from_iterable
    g = max(map(abs, flat(F.generators)))
    M = max(n * max(map(abs, flat(flat(inverses)))) * g, g, 1)
    dtype = np.int64 if d * M * M < INT64_BOUND else object
    # fromiter reads the entries in C, where np.array walks the nested tuples
    G, W, T = (
        np.fromiter(entries, dtype, math.prod(shape)).reshape(shape)
        for entries, shape in (
            (flat(F.generators), (d, n)),
            (flat(flat(inverses)), (k, n, n)),
            (flat(flat(pairings)), (k, n, d)),
        )
    )
    return ChartTable(G, cone, complement, W, T)


def transition_map(C1: ChartData, C2: ChartData) -> IntMatrix:
    """Exponent matrix U_2^-1 * U_1 of the chart change phi_2 after psi_1
    (the maps of C2 and C1), a monomial map; transitions compose by matrix
    product, so E_13 = E_23 * E_12 exactly.
    """
    if C1.fan.generators != C2.fan.generators:
        raise ValueError("charts belong to different fans")
    return tuple(tuple(dot(w, C1.fan.generators[j]) for j in C1.cone) for w in C2.U_inv)
