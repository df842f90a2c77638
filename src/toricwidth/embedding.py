"""Monomial bases of sections and the induced projective embedding.

Fixing a maximal cone sigma, an invariant section restricted to that chart is
a Laurent monomial x^{x_sigma} with x_sigma in Z^n_{>=0}; invariance pins the
complement exponents to x_j = <x_sigma + g_u, v_j> - g(u_j), which must also
be nonnegative.  Enumerating those (sections_by_conditions) must match the
lattice points of the polytope normalized at the corresponding vertex
(sections_by_polytope); the tests insist on it cone by cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .charts import ChartData, chart_for_cone
from .fan import Fan, SupportFunction, is_strictly_convex, polytope_from_support
from .lattice import IntVector, dot, solve_rational, transpose
from .polytope import (
    HalfspacePolytope,
    Vertex,
    bounding_box,
    lattice_points,
    normalize_at_vertex,
)


@dataclass(frozen=True)
class MonomialEmbedding:
    """A finite set of exponent vectors in Z^n_{>=0}, sorted lexicographically."""

    exponents: tuple[IntVector, ...]
    source: str = ""

    def __post_init__(self):
        exps = tuple(tuple(int(x) for x in e) for e in self.exponents)
        if not exps:
            raise ValueError("embedding needs at least one exponent")
        n = len(exps[0])
        if any(len(e) != n for e in exps):
            raise ValueError("exponents must share one dimension")
        if any(x < 0 for e in exps for x in e):
            raise ValueError("exponents must be nonnegative")
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponent")
        object.__setattr__(self, "exponents", tuple(sorted(exps)))

    @property
    def dim(self) -> int:
        return len(self.exponents[0])

    def axis_maxima(self) -> IntVector:
        return tuple(max(e[j] for e in self.exponents) for j in range(self.dim))


def twist_exponents(C: ChartData, g: SupportFunction) -> tuple[int, ...]:
    """Per complement generator j: c_j = g(u_j) - sum_k V[k][l] g(u_{j_k}).

    These are the exponents twisting a section when it is rewritten in the
    chart of sigma; integrality is automatic.
    """
    if len(g.values) != len(C.fan.generators):
        raise ValueError("support function does not match the fan")
    g_cone = [g.values[j] for j in C.cone]
    out = []
    for l, j in enumerate(C.complement):
        col = [C.V[k][l] for k in range(C.dim)]
        out.append(g.values[j] - dot(col, g_cone))
    return tuple(out)


def _vertex_of_cone(P: HalfspacePolytope, cone: Sequence[int]) -> Vertex:
    point = solve_rational([P.normals[i] for i in cone], [P.offsets[i] for i in cone])
    for v in P.vertices:
        if v.point == point:
            return v
    raise ValueError(f"cone {tuple(cone)} does not cut out a vertex of the polytope")


def _complement_exponents(C: ChartData, g: SupportFunction, x: IntVector) -> IntVector:
    """x_j = <x_sigma + g_u, v_j> - g(u_j) per complement generator j, in chart order."""
    shifted = [xi + g.values[i] for xi, i in zip(x, C.cone)]
    cols = transpose(C.V)  # row l is the column vector v_j for complement[l]
    return tuple(dot(shifted, cols[l]) - g.values[j] for l, j in enumerate(C.complement))


def sections_by_conditions(
    F: Fan, g: SupportFunction, cone_index: int
) -> MonomialEmbedding:
    """Invariant monomial sections in the chart of one maximal cone.

    Enumerates candidate chart exponents x_sigma over the bounding box of the
    normalized polytope and keeps those whose forced complement exponents are
    all nonnegative.  Requires a strictly convex g.
    """
    if not is_strictly_convex(F, g):
        raise ValueError("support function is not strictly convex")
    C = chart_for_cone(F, cone_index)
    cone = C.cone
    P = polytope_from_support(F, g)
    v = _vertex_of_cone(P, cone)
    _, Q = normalize_at_vertex(P, v)
    lo, hi = bounding_box(Q)
    ranges = [range(max(0, a), b + 1) for a, b in zip(lo, hi)]
    found = [
        x
        for x in product(*ranges)
        if all(xj >= 0 for xj in _complement_exponents(C, g, x))
    ]
    return MonomialEmbedding(tuple(found), source=f"cone {tuple(cone)}")


def sections_by_polytope(P: HalfspacePolytope, v: Vertex) -> MonomialEmbedding:
    """Lattice points of P normalized at the vertex v."""
    _, Q = normalize_at_vertex(P, v)
    pts = lattice_points(Q)
    return MonomialEmbedding(tuple(pts), source=f"vertex {tuple(v.point)}")


def full_section_exponents(
    F: Fan, g: SupportFunction, cone_index: int
) -> list[tuple[IntVector, IntVector]]:
    """Pairs (x_sigma, x_complement) for each section, complement in chart order."""
    C = chart_for_cone(F, cone_index)
    E = sections_by_conditions(F, g, cone_index)
    return [(x, _complement_exponents(C, g, x)) for x in E.exponents]


def kodaira_eval(E: MonomialEmbedding, xi: Sequence[complex]) -> tuple[complex, ...]:
    """Evaluate all monomials xi^J; 0^0 counts as 1.

    Raises when every component vanishes, which cannot happen while the zero
    exponent is present.
    """
    if len(xi) != E.dim:
        raise ValueError(f"need {E.dim} coordinates")
    vals = []
    for J in E.exponents:
        v = 1.0 + 0.0j
        for x, e in zip(xi, J):
            if e:
                v *= complex(x) ** e
        vals.append(v)
    if all(v == 0 for v in vals):
        raise ValueError("all monomials vanish at this point")
    return tuple(vals)
