"""Upper bounds for the Gromov width of a toric manifold, all as multiples of pi.

Three bounds are computed from a Delzant polytope:

  * cylinder_bound: 2 * min_j max_k (J_k)_j over the exponents J_k of the
    monomial embedding at a vertex.  The embedded manifold misses a divisor
    outside a cylinder of that capacity, so non-squeezing caps the width.
  * lu_lambda: 2 * max{-sum lambda_i a_i} over integer relations
    sum a_i u_i = 0 with a >= 0 and 1 <= sum a_i <= n + 1.
  * lu_gamma: 2 * min positive -sum lambda_i a_i over such relations, valid
    only when the class is monotone (Fano check below); reported with the
    search bound used, since the defining set is infinite.

Exact rational arithmetic throughout; pi is kept symbolic as a coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .embedding import MonomialEmbedding, sections_by_polytope
from .lattice import IntVector, RationalVector, dot, rref
from .polytope import (
    EmptyPolytopeError,
    HalfspacePolytope,
    NotDelzantError,
    Vertex,
    clear_denominators,
    is_delzant,
    lattice_points,
)

GAMMA_CAVEAT = (
    "gamma bound omitted: the class is not monotone, and the bound is only "
    "known to hold in the monotone case"
)


@dataclass(frozen=True)
class CylinderBound:
    coefficient_pi: int  # 2 * min_j max_k (J_k)_j
    radius_sq: int
    axis: int  # smallest j attaining the min
    axis_maxima: IntVector


def cylinder_bound(E: MonomialEmbedding) -> CylinderBound:
    maxima = E.axis_maxima()
    m = min(maxima)
    axis = maxima.index(m)
    return CylinderBound(2 * m, 2 * m, axis, maxima)


@dataclass(frozen=True)
class LambdaBound:
    coefficient_pi: Fraction
    witness: IntVector


@dataclass(frozen=True)
class GammaBound:
    coefficient_pi: Fraction
    witness: IntVector
    search_bound: int


def _relations(P: HalfspacePolytope, max_total: int):
    """Nonnegative integer a with sum a_i u_i = 0 and 1 <= sum a_i <= max_total."""
    d = P.num_facets
    n = P.dim
    for total in range(1, max_total + 1):
        for combo in combinations_with_replacement(range(d), total):
            a = [0] * d
            for i in combo:
                a[i] += 1
            if all(sum(a[i] * P.normals[i][c] for i in range(d)) == 0 for c in range(n)):
                yield tuple(a)


def lu_lambda(P: HalfspacePolytope) -> LambdaBound | None:
    """Largest -sum lambda_i a_i over relations with sum a_i <= n + 1.

    None means no relation exists in that range.  Ties between maximizing
    relations are broken by the lexicographically smallest coefficient vector.
    """
    best_value = None
    best_witnesses = []
    for a in _relations(P, P.dim + 1):
        value = -dot(P.offsets, a)
        if best_value is None or value > best_value:
            best_value = value
            best_witnesses = [a]
        elif value == best_value:
            best_witnesses.append(a)
    if best_value is None:
        return None
    return LambdaBound(2 * Fraction(best_value), min(best_witnesses))


@dataclass(frozen=True)
class FanoCertificate:
    """Data certifying <y, u_i> + r lambda_i = s_i with signs s, r > 0, and
    that the interior of {z : <z, u_i> >= s_i} contains exactly the origin."""

    r: Fraction
    m: RationalVector  # y / r
    signs: tuple[int, ...]


def _interior_lattice_points(Q: HalfspacePolytope) -> list[IntVector] | None:
    try:
        pts = lattice_points(Q)
    except EmptyPolytopeError:
        return []
    return [
        x
        for x in pts
        if all(dot(x, u) > l for u, l in zip(Q.normals, Q.offsets))
    ]


def fano_check(P: HalfspacePolytope) -> FanoCertificate | None:
    """Search sign patterns s in {-1,1}^d for an exact solution of
    <y, u_i> + r lambda_i = s_i with r > 0 whose polytope {<z,u_i> >= s_i}
    has the origin as its only interior lattice point."""
    d = P.num_facets
    n = P.dim
    for signs in product((-1, 1), repeat=d):
        rows = [tuple(P.normals[i]) + (P.offsets[i],) for i in range(d)]
        aug = [rows[i] + (Fraction(signs[i]),) for i in range(d)]
        R, pivots = rref(aug)
        if n + 1 in pivots:  # pivot in the rhs column: inconsistent
            continue
        if len(pivots) < n + 1:  # underdetermined; no unique (y, r)
            continue
        sol = [Fraction(0)] * (n + 1)
        for r_idx, p in enumerate(pivots):
            sol[p] = R[r_idx][n + 1]
        if any(dot(rows[i], sol) != signs[i] for i in range(d)):
            continue
        y, r = tuple(sol[:n]), sol[n]
        if r <= 0:
            continue
        Q = HalfspacePolytope(P.normals, tuple(Fraction(s) for s in signs))
        interior = _interior_lattice_points(Q)
        if interior == [(0,) * n]:
            m = tuple(c / r for c in y)
            return FanoCertificate(r, m, signs)
    return None


def verify_fano_certificate(P: HalfspacePolytope, cert: FanoCertificate) -> bool:
    """Recheck a certificate from scratch, exactly."""
    if cert.r <= 0:
        return False
    for u, l, s in zip(P.normals, P.offsets, cert.signs):
        if cert.r * (l + dot(cert.m, u)) != s:
            return False
        if s not in (-1, 1):
            return False
    Q = HalfspacePolytope(P.normals, tuple(Fraction(s) for s in cert.signs))
    return _interior_lattice_points(Q) == [(0,) * P.dim]


def lu_gamma(
    P: HalfspacePolytope,
    search_bound: int | None = None,
    fano: FanoCertificate | None = None,
) -> GammaBound | None:
    """Smallest positive -sum lambda_i a_i over relations with
    sum a_i <= search_bound (default 2(n+1)); requires a Fano certificate.

    Returns None when the class is not monotone or no positive relation
    exists within the bound.  The true infimum ranges over all relations, so
    the reported value is an upper bound for it attained within the search.
    """
    if fano is None:
        fano = fano_check(P)
    if fano is None:
        return None
    bound = search_bound if search_bound is not None else 2 * (P.dim + 1)
    best_value = None
    best_witnesses = []
    for a in _relations(P, bound):
        value = -dot(P.offsets, a)
        if value <= 0:
            continue
        if best_value is None or value < best_value:
            best_value = value
            best_witnesses = [a]
        elif value == best_value:
            best_witnesses.append(a)
    if best_value is None:
        return None
    return GammaBound(2 * Fraction(best_value), min(best_witnesses), bound)


@dataclass(frozen=True)
class WidthReport:
    vertex: Vertex
    denominator_scale: int
    cylinder_pi: Fraction
    radius_sq: Fraction
    axis: int
    axis_maxima: RationalVector
    lu_lambda_pi: Fraction | None
    lambda_witness: IntVector | None
    fano: FanoCertificate | None
    lu_gamma_pi: Fraction | None
    gamma_witness: IntVector | None
    gamma_search_bound: int | None
    gamma_note: str | None
    min_bound_pi: Fraction


def width_report(P: HalfspacePolytope, vertex_index: int = 0) -> WidthReport:
    """All bounds for one polytope; vertex_index picks the embedding vertex
    from the lexicographically sorted vertex list (0 = smallest).

    Rational offsets are handled by scaling with the lcm q of their
    denominators, computing on qP, and dividing the cylinder bound by q.
    """
    if not is_delzant(P):
        raise NotDelzantError("width bounds require a Delzant polytope")
    vertices = P.vertices
    if not 0 <= vertex_index < len(vertices):
        raise ValueError(f"vertex index out of range (have {len(vertices)} vertices)")
    v = vertices[vertex_index]
    q, Pq = clear_denominators(P)
    # dilation by q > 0 keeps the lexicographic order of the vertices
    E = sections_by_polytope(Pq, Pq.vertices[vertex_index])
    cyl = cylinder_bound(E)
    lam = lu_lambda(P)
    cert = fano_check(P)
    gamma = lu_gamma(P, fano=cert) if cert is not None else None
    gamma_note = None
    if cert is None:
        gamma_note = GAMMA_CAVEAT
    elif gamma is None:
        gamma_note = "gamma bound omitted: no positive relation within the search bound"
    candidates = [Fraction(cyl.coefficient_pi, q)]
    if lam is not None:
        candidates.append(lam.coefficient_pi)
    if gamma is not None:
        candidates.append(gamma.coefficient_pi)
    return WidthReport(
        vertex=v,
        denominator_scale=q,
        cylinder_pi=Fraction(cyl.coefficient_pi, q),
        radius_sq=Fraction(cyl.radius_sq, q),
        axis=cyl.axis,
        axis_maxima=tuple(Fraction(m, q) for m in cyl.axis_maxima),
        lu_lambda_pi=None if lam is None else lam.coefficient_pi,
        lambda_witness=None if lam is None else lam.witness,
        fano=cert,
        lu_gamma_pi=None if gamma is None else gamma.coefficient_pi,
        gamma_witness=None if gamma is None else gamma.witness,
        gamma_search_bound=None if gamma is None else gamma.search_bound,
        gamma_note=gamma_note,
        min_bound_pi=min(candidates),
    )
