"""Upper bounds for the Gromov width of a toric manifold, all as multiples of pi.

Three bounds are computed from a Delzant polytope:

  * cylinder_bound: 2 * min_j max_k (J_k)_j over the exponents J_k of the
    monomial embedding at a vertex.  The embedded manifold misses a divisor
    outside a cylinder of that capacity, so non-squeezing caps the width.
    max_k (J_k)_j is read off the vertices: it is the largest slack of the
    j-th facet through the chosen vertex.
  * lu_lambda: 2 * max{-sum lambda_i a_i} over integer relations
    sum a_i u_i = 0 with a >= 0 and 1 <= sum a_i <= n + 1.
  * lu_gamma: 2 * min positive -sum lambda_i a_i over all relations, valid
    only when the class is monotone, so it takes the Fano certificate;
    relations are searched up to sum a_i = 2(n + 1), and the bound is
    reported with that search bound, since the defining set is infinite.

Lambda and gamma each read their relations off a join of half-sum tables
that _relations grows inside the call and drops with it, with the integer
values q * -sum lambda_i a_i for (q, q * lambda) = P.integer_offsets.
width_report takes the vertex its caller chose and keeps the CylinderBound,
LambdaBound and GammaBound it builds, for the report.

The class is monotone iff r(lambda_i + <m, u_i>) = -1 has a solution with
r > 0 (Batyrev's reflexivity criterion: the translated and rescaled polytope
{<z, u_i> >= -1} has the origin as its only interior lattice point, which
holds for every bounded P, see verify_fano_certificate).  So the Fano check
is one exact solve, and its recheck lists no lattice points.

Exact arithmetic throughout; pi is kept symbolic as a coefficient.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .lattice import IntVector, RationalVector, _eliminate, dot
from .polytope import (
    HalfspacePolytope,
    UnboundedPolytopeError,
    Vertex,
    delzant_vertices,
    slack_maxima,
)

GAMMA_CAVEAT = (
    "gamma bound omitted: the class is not monotone, and the bound is only "
    "known to hold in the monotone case"
)


@dataclass(frozen=True)
class CylinderBound:
    coefficient_pi: Fraction  # 2 * min_j max_k (J_k)_j, the cylinder's radius^2
    axis: int  # smallest j attaining the min
    axis_maxima: RationalVector


def cylinder_bound(P: HalfspacePolytope, v: Vertex) -> CylinderBound:
    """Cylinder bound of the embedding at the Delzant vertex v of P.

    Normalizing at v makes coordinate j the slack <x, u> - lambda of the j-th
    facet through v, so its maximum over P is attained at a vertex.  For
    integral offsets the vertices are lattice points, so this is the maximum
    over the embedding exponents; rational offsets give that of qP over q.
    Each vertex keeps its slacks q (<x, u_i> - lambda_i) from the walk, so
    the maxima are slack_maxima(P, v), the top of the box the embedding at
    v walks, divided by q.
    """
    q = P.integer_offsets[0]
    maxima = tuple(Fraction(m, q) for m in slack_maxima(P, v))
    m = min(maxima)
    axis = maxima.index(m)
    return CylinderBound(2 * m, axis, maxima)


@dataclass(frozen=True)
class LambdaBound:
    coefficient_pi: Fraction
    witness: IntVector


@dataclass(frozen=True)
class GammaBound:
    coefficient_pi: Fraction
    witness: IntVector
    search_bound: int


def _half_sums(P: HalfspacePolytope):
    """The k-multisets of facet indices of P, as sorted index tuples, keyed
    by the sum of their normals, for k = 0, 1, 2, ...; each table is built
    from the one before when it is drawn."""
    table = {(0,) * P.dim: [()]}
    while True:
        yield table
        grown: dict = {}
        for s, multisets in table.items():
            for m in multisets:
                for j in range(m[-1] if m else 0, P.num_facets):
                    key = tuple(map(operator.add, s, P.normals[j]))
                    grown.setdefault(key, []).append(m + (j,))
        table = grown


def _relations(P: HalfspacePolytope, totals):
    """One list per total, in the increasing order of totals: the (a, q * -sum
    lambda_i a_i), for (q, q * lambda) = P.integer_offsets, over nonnegative
    integer a with sum a_i u_i = 0 and sum a_i = total.

    The sorted index tuple of an a of total t splits into its first t // 2
    and last t - t // 2 indices, L and R, whose normal sums cancel; so the
    pairs of _half_sums entries with opposite sums and L[-1] <= R[0] give
    each a once, in no set order.  Tables are drawn up to each total's half.
    """
    offsets = P.integer_offsets[1]
    sums, tables = _half_sums(P), []
    for total in totals:
        while len(tables) <= total - total // 2:
            tables.append(next(sums))
        right, found = tables[total - total // 2], []
        for s, lefts in tables[total // 2].items():
            rights = right.get(tuple(-c for c in s), ())
            for L in lefts:
                for R in rights:
                    if not L or L[-1] <= R[0]:
                        a = [0] * P.num_facets
                        for i in L + R:
                            a[i] += 1
                        found.append((tuple(a), -sum(offsets[i] for i in L + R)))
        yield found


def lu_lambda(P: HalfspacePolytope) -> LambdaBound | None:
    """Largest -sum lambda_i a_i over relations with sum a_i <= n + 1.

    None means no relation exists in that range.  Ties between maximizing
    relations are broken by the lexicographically smallest coefficient vector.
    """
    groups = _relations(P, range(1, P.dim + 2))
    best = min((r for found in groups for r in found), key=lambda r: (-r[1], r[0]), default=None)
    if best is None:
        return None
    return LambdaBound(Fraction(2 * best[1], P.integer_offsets[0]), best[0])


@dataclass(frozen=True)
class FanoCertificate:
    """Data certifying <y, u_i> + r lambda_i = s_i with r > 0, and that the
    interior of {z : <z, u_i> >= s_i} contains exactly the origin.

    fano_check only ever finds s = (-1, ..., -1); the signs are kept so that a
    certificate can be rechecked exactly as written.
    """

    r: Fraction
    m: RationalVector  # y / r
    signs: tuple[int, ...]


def fano_check(P: HalfspacePolytope) -> FanoCertificate | None:
    """Solve <y, u_i> + r lambda_i = -1 exactly for a unique (y, r) with r > 0;
    {<z, u_i> >= -1} then has the origin as its only interior lattice point
    (Batyrev's reflexivity criterion), as verify_fano_certificate rechecks.

    Signs s_i = +1 need not be tried: the origin would have to satisfy
    <0, u_i> > 1 to be interior.
    """
    n = P.dim
    q, offsets = P.integer_offsets
    # the integer rows (u_i, q lambda_i, -1) have the unknowns (y, r / q); a
    # unique solution pivots on every unknown and never on the rhs column,
    # and only the rhs column of the eliminated rows, over D, is read
    A = [[*u, l, -1] for u, l in zip(P.normals, offsets)]
    pivots, D = _eliminate(A, n + 2)
    r = Fraction(q * A[n][n + 1], D) if pivots == list(range(n + 1)) else 0
    if r <= 0:
        return None
    m = tuple(Fraction(A[k][n + 1], q * A[n][n + 1]) for k in range(n))  # y / r
    cert = FanoCertificate(r, m, (-1,) * P.num_facets)
    return cert if verify_fano_certificate(P, cert) else None


def verify_fano_certificate(P: HalfspacePolytope, cert: FanoCertificate) -> bool:
    """Recheck a certificate from scratch, exactly.

    The interior lattice points of Q = {z : <z, u_i> >= s_i} are found
    without listing them.  A sign s_i = +1 leaves the origin outside the
    interior, since <0, u_i> = 0 < 1, so every sign must be -1.  Then an
    integral z has <z, u_i> > -1 iff <z, u_i> >= 0, so they are the lattice
    points of the recession cone {<z, u_i> >= 0} of P, which is {0} iff P
    is bounded.  The certificate puts -m in the interior of P, so P is not
    empty, and P.vertices raises exactly when P is unbounded.
    """
    if cert.r <= 0 or len(cert.signs) != P.num_facets or len(cert.m) != P.dim:
        return False
    for u, l, s in zip(P.normals, P.offsets, cert.signs):
        if s != -1 or cert.r * (l + dot(cert.m, u)) != s:
            return False
    try:
        P.vertices
    except UnboundedPolytopeError:
        return False
    return True


def lu_gamma(P: HalfspacePolytope, fano: FanoCertificate) -> GammaBound | None:
    """Smallest positive -sum lambda_i a_i over all relations, for the
    monotone class that fano = fano_check(P) certifies.

    Under the certificate -sum lambda_i a_i = (sum a_i) / r for every
    relation, so the minimum sits at the smallest total that has a relation
    and every relation of that total attains it; the witness is the least
    of them.  Totals are searched up to 2(n + 1).  A returned value is
    exact, since no smaller total has a relation; only a None depends on
    the bound.
    """
    bound = 2 * (P.dim + 1)
    found = next(filter(None, _relations(P, range(1, bound + 1))), None)
    if found is None:
        return None
    witness = min(found)[0]
    return GammaBound(2 * sum(witness) / fano.r, witness, bound)


@dataclass(frozen=True)
class WidthReport:
    """The bounds of width_report.  lu_gamma is None when fano is, since the
    class is then not monotone, or when no relation is within the search
    bound; gamma_note says which."""

    cylinder: CylinderBound
    lu_lambda: LambdaBound | None
    fano: FanoCertificate | None
    lu_gamma: GammaBound | None

    @property
    def gamma_note(self) -> str | None:
        if self.fano is None:
            return GAMMA_CAVEAT
        if self.lu_gamma is None:
            return "gamma bound omitted: no positive relation within the search bound"
        return None

    @property
    def min_bound_pi(self) -> Fraction:
        bounds = (self.cylinder, self.lu_lambda, self.lu_gamma)
        return min(b.coefficient_pi for b in bounds if b is not None)


def width_report(P: HalfspacePolytope, v: Vertex) -> WidthReport:
    """All bounds for the Delzant polytope P (delzant_vertices refuses any
    other), the cylinder bound at its vertex v: that of the embedding of qP,
    for q = P.integer_offsets[0], divided by q."""
    delzant_vertices(P)
    cyl, lam, fano = cylinder_bound(P, v), lu_lambda(P), fano_check(P)
    gamma = None if fano is None else lu_gamma(P, fano)
    return WidthReport(cyl, lam, fano, gamma)
