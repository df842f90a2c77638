"""Random polygon generation and independent brute-force oracles for tests."""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

import numpy as np

from toricwidth.charts import (
    ChartData,
    ChartTable,
    NonUnimodularConeError,
    chart_for_cone,
    transition_map,
)
from toricwidth.embedding import MonomialEmbedding
from toricwidth.fan import Fan, is_strictly_convex
from toricwidth.fixtures import projective_space
from toricwidth.lattice import (
    IntMatrix,
    IntVector,
    RationalVector,
    _eliminate,
    dot,
    integer_kernel_basis,
    rref,
    solve_rational,
)
from toricwidth.numeric import (
    GRADIENT_STEP,
    axis_radius_bounds,
    evaluate,
    potential_partial,
    potential_value,
    psi_map,
    pullback_check,
    radial_quantities,
    suggested_path_exponents,
    sups_along_paths,
)
from toricwidth.polytope import (
    EmptyPolytopeError,
    HalfspacePolytope,
    UnboundedPolytopeError,
    Vertex,
    is_delzant,
    lattice_fibres,
    lattice_points,
    recession_direction,
)
from toricwidth.verify import GRADIENT_TOL, PATH_TOL, PULLBACK_TOL, CheckResult
from toricwidth.width import CylinderBound, FanoCertificate, verify_fano_certificate

# step of oracle_pullback_check's second differences of the potential
HESSIAN_STEP = 1e-4
# relative tolerance of oracle_chart_suite's float sweeps
CHART_TOL = 1e-9


def oracle_rref(M):
    """Reduced row echelon form by Gauss-Jordan elimination in Fraction
    arithmetic; returns (R, pivot columns)."""
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


def oracle_det(M) -> Fraction:
    """Determinant by Bareiss elimination on rows scaled to integers: each
    step updates only the trailing block below and right of the pivot."""
    n = len(M)
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


def _as_int(x) -> int:
    if type(x) is int:  # not bool, which takes the exact parse below
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"not an integer: {x}")
    return f.numerator


def int_vector(entries) -> IntVector:
    v = tuple(_as_int(x) for x in entries)
    if not v:
        raise ValueError("empty vector")
    return v


def rational_vector(entries) -> RationalVector:
    v = tuple(Fraction(x) for x in entries)
    if not v:
        raise ValueError("empty vector")
    return v


def oracle_is_smooth(F: Fan) -> bool:
    """Every maximal cone's generators form a Z-basis: n of them, with
    |oracle_det| = 1."""
    return all(
        len(c) == F.dim and abs(oracle_det([F.generators[i] for i in c])) == 1
        for c in F.max_cones
    )


def transpose(M: Sequence[Sequence]) -> tuple:
    return tuple(zip(*[tuple(row) for row in M]))


def mat_vec(M: Sequence[Sequence], x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in M)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> tuple:
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def fraction_free_solve(
    M: Sequence[Sequence[int]], B: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]] | None:
    """Integers (D, Y) with M Y = D B and D > 0; None when M is singular.

    M is an n x n integer matrix and B an integer matrix of n rows, given as
    rows.  [M | B] is eliminated with pivots in M's columns: the left block
    ends as the last pivot, +-det M, times the identity, so D = |det M| and
    Y = D M^-1 B.  On the library's elimination kernel, lattice._eliminate,
    which the vertex enumeration's start runs too.
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M) or len(B) != n:
        raise ValueError("need a square system with matching right-hand side")
    A = [[*row, *rhs] for row, rhs in zip(M, B)]
    pivots, D = _eliminate(A, n)
    if len(pivots) < n:
        return None
    Y = [row[n:] for row in A]
    if D < 0:
        return -D, [[-y for y in row] for row in Y]
    return D, Y


def inverse_unimodular(M: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of an integer matrix with det +-1: one elimination of [M | I]."""
    n = len(M)
    solved = fraction_free_solve(M, [[int(i == j) for j in range(n)] for i in range(n)])
    if solved is None or solved[0] != 1:
        raise ValueError(f"matrix is not unimodular (det = {oracle_det(M)})")
    return tuple(tuple(row) for row in solved[1])


def embedding_from_exponents(exponents) -> MonomialEmbedding:
    """The embedding of a set of exponent tuples given in any order: sorted,
    then grouped into the fibres of MonomialEmbedding.from_fibres, so the
    vectors over each prefix x_1..x_{n-1} must fill an interval of x_n."""
    exps = tuple(exponents)
    if len(set(exps)) != len(exps):
        raise ValueError("duplicate exponent")
    fibres: list[list] = []
    for e in sorted(exps):
        if fibres and fibres[-1][0] == e[:-1]:
            if fibres[-1][2] + 1 != e[-1]:
                raise ValueError("exponents must fill an interval of x_n over each prefix")
            fibres[-1][2] = e[-1]
        else:
            fibres.append([e[:-1], e[-1], e[-1]])
    return MonomialEmbedding.from_fibres(tuple(map(tuple, fibres)))


def unit_square() -> HalfspacePolytope:
    return HalfspacePolytope(
        normals=((1, 0), (0, 1), (-1, 0), (0, -1)), offsets=(0, 0, -1, -1)
    )


def hirzebruch(r: int = 2, a: int = 1, b: int = 1) -> HalfspacePolytope:
    """Four facets: x1 >= 0, x2 >= 0, -x1 + r x2 >= -a, -x2 >= -b."""
    return HalfspacePolytope(
        normals=((1, 0), (0, 1), (-1, r), (0, -1)), offsets=(0, 0, -a, -b)
    )


def polytope_data(P: HalfspacePolytope) -> dict:
    """The JSON input form of P, as the command line reads it."""
    return {
        "dim": P.dim,
        "normals": [list(u) for u in P.normals],
        "offsets": [str(l) for l in P.offsets],
    }


@dataclass(frozen=True)
class AffineLatticeMap:
    """x -> M x + t with M an integer matrix of determinant +-1."""

    matrix: IntMatrix
    translation: RationalVector

    def __post_init__(self):
        M = tuple(int_vector(row) for row in self.matrix)
        t = rational_vector(self.translation)
        if not M or any(len(row) != len(M) for row in M):
            raise ValueError("matrix must be square and nonempty")
        if abs(oracle_det(M)) != 1:
            raise ValueError("matrix must be unimodular")
        if len(t) != len(M):
            raise ValueError("translation length mismatch")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "translation", t)

    def apply(self, x: Sequence) -> RationalVector:
        return tuple(a + b for a, b in zip(mat_vec(self.matrix, x), self.translation))

    def inverse(self) -> "AffineLatticeMap":
        Minv = inverse_unimodular(self.matrix)
        return AffineLatticeMap(Minv, tuple(-a for a in mat_vec(Minv, self.translation)))


def apply_lattice_map(P: HalfspacePolytope, f: AffineLatticeMap) -> HalfspacePolytope:
    """Image polytope: normals become M^-T u, offsets pick up <t, u'>."""
    MinvT = transpose(inverse_unimodular(f.matrix))
    new_normals = []
    new_offsets = []
    for u, l in zip(P.normals, P.offsets):
        u2 = mat_vec(MinvT, u)
        new_normals.append(u2)
        new_offsets.append(l + dot(f.translation, u2))
    return HalfspacePolytope(tuple(new_normals), tuple(new_offsets))


def dilate(P: HalfspacePolytope, c) -> HalfspacePolytope:
    """cP for c > 0: the same normals, the offsets multiplied by c."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("dilation factor must be positive")
    return HalfspacePolytope(P.normals, tuple(c * l for l in P.offsets))


def vertex_map(P: HalfspacePolytope, v: Vertex) -> AffineLatticeMap:
    """x -> U_A x - lambda_A for the facets A tight at v, by an elimination of
    its own: AffineLatticeMap refuses U_A unless it is a Z-basis."""
    return AffineLatticeMap(
        tuple(P.normals[i] for i in v.active), tuple(-P.offsets[i] for i in v.active)
    )


def oracle_normalize_at_vertex(P: HalfspacePolytope, v: Vertex) -> HalfspacePolytope:
    """The oracle of normalize_at_vertex: the dilate qP, for q the lcm of the
    offsets' denominators, under vertex_map(qP, q v), with normals M^-T u
    from an inverse of its own.  vertex_map reads only v's tight facets,
    which q v has in qP too."""
    q = math.lcm(*(l.denominator for l in P.offsets))
    Pq = dilate(P, q)
    return apply_lattice_map(Pq, vertex_map(Pq, v))


def oracle_is_delzant(P: HalfspacePolytope) -> bool:
    """The oracle of is_delzant: every vertex has n tight facets, and their
    normals form a Z-basis, |oracle_det| = 1, at each vertex."""
    return all(
        len(v.active) == P.dim and abs(oracle_det([P.normals[i] for i in v.active])) == 1
        for v in P.vertices
    )


def oracle_refusal(P: HalfspacePolytope) -> str | None:
    """The oracle of the Delzant gate's message: it names the first vertex of
    P.vertices whose tight facets, found by dot products, are not n, or whose
    tight normals have |oracle_det| != 1; None when there is no such vertex."""
    for v in P.vertices:
        tight = [u for u, l in zip(P.normals, P.offsets) if dot(v.point, u) == l]
        point = "(" + ", ".join(map(str, v.point)) + ")"
        if len(tight) != P.dim:
            return f"vertex {point} lies on {len(tight)} facets"
        if abs(oracle_det(tight)) != 1:
            return f"normals at {point} do not form a Z-basis"
    return None


def random_unimodular_map(rng: random.Random, n: int = 2, shear: int = 2) -> AffineLatticeMap:
    """Product of 1 to 4 random integer shears with entries in [-shear, shear],
    plus a random integer translation."""
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def mul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        S = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        S[i][j] = rng.randint(-shear, shear)
        M = mul(M, S)
    t = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    return AffineLatticeMap(tuple(tuple(row) for row in M), t)


def random_delzant_polygon(rng: random.Random) -> HalfspacePolytope:
    """Rectangle with randomly chopped corners, then a random lattice map.

    Chopping a corner whose normals u, v form a Z-basis with the facet u + v
    one lattice step in keeps every new vertex Delzant; side lengths >= 3
    keep the cuts disjoint.
    """
    k = rng.randint(3, 6)
    l = rng.randint(3, 6)
    normals = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    offsets = [0, 0, -k, -l]
    corners = [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
    for u, v in corners:
        if rng.random() < 0.5:
            w = (u[0] + v[0], u[1] + v[1])
            lam = offsets[normals.index(u)] + offsets[normals.index(v)] + 1
            normals.append(w)
            offsets.append(lam)
    P = HalfspacePolytope(tuple(normals), tuple(Fraction(x) for x in offsets))
    return apply_lattice_map(P, random_unimodular_map(rng))


def edge_lengths(P: HalfspacePolytope, v: Vertex) -> list[int]:
    """Lattice lengths of the edges at a simple vertex v of an integral P:
    each neighbour shares all but one of v's tight facets."""
    return [
        math.gcd(*(int(a - b) for a, b in zip(v.point, w.point)))
        for w in P.vertices
        if len(set(v.active) & set(w.active)) == P.dim - 1
    ]


def blowup_polygon(rng: random.Random, facets: int) -> HalfspacePolytope:
    """Unit square cut at random vertices until it has `facets` facets.

    A vertex on facets u, v is cut by u + v one lattice step in when both of
    its edges have lattice length at least 2; when no vertex has room, every
    offset is doubled.  The same process makes the benchmark's blow-up
    polygons, whose cost grows with the facet count at small area.
    """
    P = unit_square()
    while P.num_facets < facets:
        roomy = [v for v in P.vertices if min(edge_lengths(P, v)) >= 2]
        if roomy:
            P = blow_up(P, rng.choice(roomy).active)
        else:
            P = dilate(P, 2)
    return P


def product_polytope(*factors) -> HalfspacePolytope:
    """Product polytope of halfspace polytopes, facets in factor order."""
    dims = [F.dim for F in factors]
    normals, offsets = [], []
    for k, F in enumerate(factors):
        before, after = sum(dims[:k]), sum(dims[k + 1:])
        normals += [(0,) * before + tuple(u) + (0,) * after for u in F.normals]
        offsets += F.offsets
    return HalfspacePolytope(tuple(normals), tuple(offsets))


def random_simple_non_delzant_polygon(rng: random.Random) -> HalfspacePolytope:
    """Rectangle with one corner cut by u + 2v: still simple, det 2 vertex."""
    k = rng.randint(3, 6)
    l = rng.randint(3, 6)
    normals = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 2))
    offsets = (0, 0, -k, -l, 1)
    P = HalfspacePolytope(normals, tuple(Fraction(x) for x in offsets))
    return apply_lattice_map(P, random_unimodular_map(rng))


def random_cut_cube(rng: random.Random, n: int) -> HalfspacePolytope:
    """A box [0, a_1] x ... x [0, a_n], a_k in 1..3, cut by up to three
    halfspaces whose boundaries pass through corners of the box, and in
    about a third of the draws with one facet dropped.  A cut through a
    corner that stays in P puts it on n + 1 facets, so most draws are not
    simple; some are empty and some unbounded."""
    a = [rng.randint(1, 3) for _ in range(n)]
    axes = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    normals = axes + [tuple(-x for x in u) for u in axes]
    offsets = [0] * n + [-x for x in a]
    for _ in range(rng.randint(1, 3)):
        u = tuple(rng.choice((-2, -1, -1, 0, 1, 1, 2)) for _ in range(n))
        if any(u) and math.gcd(*u) == 1 and u not in normals:
            normals.append(u)
            offsets.append(dot(u, [rng.choice((0, x)) for x in a]))
    if rng.random() < 1 / 3:
        k = rng.randrange(len(normals))
        del normals[k], offsets[k]
    return HalfspacePolytope(tuple(normals), tuple(Fraction(l) for l in offsets))


def pyramid(D: int) -> HalfspacePolytope:
    """pyrD: the pyramid over the base Q = blowup_polygon(Random(1), D), with
    its apex a = (c, 1) over the centre c of Q's bounding box.  Facet i of Q
    gives <u_i, x> + c_i z >= lambda_i with c_i = lambda_i - <u_i, c>,
    scaled to a primitive normal, and z >= 0 closes it; so pyrD has D + 1
    facets and D + 1 vertices, and its apex lies on D of them."""
    Q = blowup_polygon(random.Random(1), D)
    lo, hi = bounding_box(Q)
    c = [Fraction(a + b, 2) for a, b in zip(lo, hi)]
    normals, offsets = [], []
    for u, l in zip(Q.normals, Q.offsets):
        row = (*u, l - dot(u, c), l)
        m = math.lcm(*(Fraction(x).denominator for x in row))
        row = [int(x * m) for x in row]
        g = math.gcd(*row[:-1])
        normals.append(tuple(x // g for x in row[:-1]))
        offsets.append(Fraction(row[-1], g))
    return HalfspacePolytope(tuple(normals) + ((0, 0, 1),), tuple(offsets) + (Fraction(0),))


def oracle_feasible_bases(P: HalfspacePolytope) -> int:
    """The number of n-subsets of facets whose normals are independent and
    whose equalities meet in a point of P: every n-subset solved exactly."""
    count = 0
    for idx in combinations(range(P.num_facets), P.dim):
        x = solve_rational([P.normals[i] for i in idx], [P.offsets[i] for i in idx])
        count += x is not None and all(dot(x, u) >= l for u, l in zip(P.normals, P.offsets))
    return count


def oracle_lex_feasible_bases(P: HalfspacePolytope, fixed) -> int:
    """The number of n-subsets A of facets whose normals are independent and
    whose point stays in P when the offset of each facet i outside `fixed`
    is lowered by eps^(i+1), for every small eps > 0.

    Every n-subset is solved exactly, for its point x, and where x is in P
    for the columns w_k of U_A^-1 too.  The perturbed point is
    x - sum eps^(A_k+1) w_k over the A_k outside `fixed`, so each slack is
    a polynomial in eps, which must be 0 or have its lowest nonzero
    coefficient positive."""
    n, d = P.dim, P.num_facets
    count = 0
    for A in combinations(range(d), n):
        U = [P.normals[i] for i in A]
        x = solve_rational(U, [P.offsets[i] for i in A])
        if x is None or any(dot(x, u) < l for u, l in zip(P.normals, P.offsets)):
            continue
        W = [solve_rational(U, [int(l == k) for l in range(n)]) for k in range(n)]

        def lowest(i):  # the lowest nonzero coefficient of facet i's slack
            slack = [Fraction(0)] * (d + 1)
            slack[0] = dot(x, P.normals[i]) - P.offsets[i]
            for a, w in zip(A, W):
                if a not in fixed:
                    slack[a + 1] = -dot(w, P.normals[i])
            if i not in fixed:
                slack[i + 1] = Fraction(1)
            return next((c for c in slack if c), 0)

        count += all(lowest(i) >= 0 for i in range(d) if i not in A)
    return count


def oracle_vertices(P: HalfspacePolytope) -> list[Vertex]:
    """The subset solve: every n-subset of facet equalities solved in
    Fractions and the feasible solutions kept, then a kernel search for a
    recession direction to rule out unbounded input.  With no feasible subset
    and normals that span R^n, P is pointed, so empty, and no search runs;
    with normals that do not, oracle_meets_a_line tells empty from not."""
    n = P.dim
    found: dict[tuple, set[int]] = {}
    for idx in combinations(range(P.num_facets), n):
        M = [P.normals[i] for i in idx]
        b = [P.offsets[i] for i in idx]
        x = solve_rational(M, b)
        if x is None or any(dot(x, u) < l for u, l in zip(P.normals, P.offsets)):
            continue
        if x not in found:
            found[x] = {
                i
                for i in range(P.num_facets)
                if dot(x, P.normals[i]) == P.offsets[i]
            }
    if found or (integer_kernel_basis(P.normals) and oracle_meets_a_line(P)):
        r = recession_direction(P)
        if r is not None:
            raise UnboundedPolytopeError(f"recession direction {r}")
    if not found:
        raise EmptyPolytopeError("no feasible vertex")
    return [Vertex(pt, tuple(sorted(found[pt]))) for pt in sorted(found)]


def oracle_meets_a_line(P: HalfspacePolytope) -> bool:
    """P, whose normals span a subspace S of dimension r < n, is nonempty.

    P is invariant under the kernel S^perp of its normals, so it is nonempty
    iff some r independent facet equalities have a solution in P: a vertex
    of P's slice by S lies on r of them, and any solution differs from it by
    a vector of S^perp.  Each solution tried sets r coordinates on which the
    r normals are independent and the others to 0."""
    n = P.dim
    r = n - len(integer_kernel_basis(P.normals))
    for idx in combinations(range(P.num_facets), r):
        for cols in combinations(range(n), r):
            M = [[P.normals[i][c] for c in cols] for i in idx]
            y = solve_rational(M, [P.offsets[i] for i in idx])
            if y is None:
                continue
            x = [Fraction(0)] * n
            for c, v in zip(cols, y):
                x[c] = v
            if all(dot(x, u) >= l for u, l in zip(P.normals, P.offsets)):
                return True
    return False


def random_delzant_polytope(rng: random.Random, n: int) -> HalfspacePolytope:
    """A box or a dilated simplex in dimension n, with random vertices cut,
    then a random lattice map.

    blow_up by k keeps P Delzant when k is shorter than every edge at the
    vertex: the new vertices sit at k along those edges, and the vertex with
    the second least value of the cut's linear form is a neighbour.
    """
    if rng.random() < 0.5:
        P = product_polytope(*(projective_space(1, rng.randint(2, 4)) for _ in range(n)))
    else:
        P = projective_space(n, rng.randint(3, 5))
    for _ in range(rng.randint(1, 4)):
        roomy = [(v, min(edge_lengths(P, v))) for v in P.vertices]
        roomy = [(v, m) for v, m in roomy if m >= 2]
        if not roomy:
            break
        v, m = rng.choice(roomy)
        P = blow_up(P, v.active, rng.randint(1, m - 1))
    return apply_lattice_map(P, random_unimodular_map(rng, n))


def oracle_lattice_points(P: HalfspacePolytope) -> list[tuple[int, ...]]:
    """Brute force over a deliberately enlarged box, separate code path:
    <x, u_i> >= p_i / q_i is tested as <x, q_i u_i> >= p_i in integers."""
    from toricwidth.polytope import enumerate_vertices

    pts = [v.point for v in enumerate_vertices(P)]
    n = P.dim
    lo = [int(min(p[i] for p in pts)) - 2 for i in range(n)]
    hi = [int(max(p[i] for p in pts)) + 2 for i in range(n)]
    rows = [([lam.denominator * c for c in u], lam.numerator) for u, lam in zip(P.normals, P.offsets)]
    out = []
    for x in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if all(sum(map(operator.mul, x, qu)) >= p for qu, p in rows):
            out.append(x)
    return sorted(out)


def lattice_point_ladder() -> list[HalfspacePolytope]:
    """Delzant polytopes whose fibres end at exact rational points.

    Segments, P^3 and P^4 at several degrees, the cube, the cube with a
    corner cut and P^1 x P^2; their dilations by 5/2 and 1/3; unimodular
    images with negative coordinates; small polytopes with vertices but no
    lattice point; and two dilations moved past 2^63, beyond int64.
    """
    rng = random.Random(66)
    cube = product_polytope(*(projective_space(1, 2),) * 3)
    base = [
        projective_space(1, 1),
        projective_space(1, 4),
        HalfspacePolytope(((1,), (-1,)), (Fraction(-7, 3), Fraction(-11, 5))),
        *(projective_space(3, k) for k in (1, 2, 3, 5)),
        *(projective_space(4, k) for k in (1, 2, 3)),
        cube,
        blow_up(cube, cube.vertices[0].active),
        product_polytope(projective_space(1), projective_space(2)),
    ]
    # the 4-D dilations stop at P^4 itself, so the oracle's box stays small
    dilated = [
        dilate(P, c)
        for P in base
        if P.dim < 4 or P == projective_space(4)
        for c in (Fraction(5, 2), Fraction(1, 3))
    ]
    images = [
        apply_lattice_map(P, random_unimodular_map(rng, P.dim))
        for P in base + dilated
        if P.dim > 1
    ]

    def shifted(P, t):
        identity = tuple(tuple(int(i == j) for j in range(P.dim)) for i in range(P.dim))
        return apply_lattice_map(P, AffineLatticeMap(identity, tuple(t)))

    far = -(10**20) + Fraction(1, 3)
    latticeless = [
        HalfspacePolytope(((1,), (-1,)), (Fraction(1, 3), Fraction(-2, 3))),
        shifted(dilate(projective_space(2), Fraction(1, 3)), (Fraction(1, 2), Fraction(-5, 2))),
        shifted(dilate(cube, Fraction(1, 4)), (Fraction(1, 4),) * 3),
    ]
    return base + dilated + images + latticeless + [
        shifted(dilate(projective_space(2, 3), Fraction(5, 2)), (far, 10**19)),
        shifted(dilate(cube, Fraction(5, 2)), (far, 10**19, 10**19)),
    ]


# fixtures of the benchmark and the tests, n = 1 to 4, with rational vertices
EMBED_FIXTURES = (
    "example-3.7", "example-3.8:1", "example-3.8:3", "example-3.8:10",
    "cpn:1:5", "cpn:2:20", "cpn:3:10", "cpn:4:3",
)


def embedding_cases() -> list[tuple[str, HalfspacePolytope, tuple[int, ...]]]:
    """(label, P, vertex indices) for the sections tests: every fixture of
    EMBED_FIXTURES at vertices 0, 1, 2 and the last, the Delzant members of
    lattice_point_ladder() at vertex 0, and five 3-D and five 4-D
    random_delzant_polytope draws at the first and the last vertex."""
    from toricwidth.fixtures import resolve_fixture

    cases = []
    for name in EMBED_FIXTURES:
        P = resolve_fixture(name)
        last = len(P.vertices) - 1
        cases.append((name, P, tuple(sorted({min(k, last) for k in (0, 1, 2, last)}))))
    cases += [(f"ladder[{i}]", P, (0,))
              for i, P in enumerate(lattice_point_ladder()) if is_delzant(P)]
    for n in (3, 4):
        for seed in range(5):
            P = random_delzant_polytope(random.Random(seed), n)
            cases.append((f"draw[{n}, {seed}]", P, (0, len(P.vertices) - 1)))
    return cases


@functools.cache
def oracle_sections(P: HalfspacePolytope, k: int) -> tuple[tuple[int, ...], ...]:
    """The exponents embed --vertex k prints, by the box scan: the lattice
    points of qP normalized at its k-th vertex, q times P's k-th vertex.
    Cached, as the CLI and the numeric tests compare against the same cases."""
    return tuple(oracle_lattice_points(oracle_normalize_at_vertex(P, P.vertices[k])))


def oracle_relations(P: HalfspacePolytope, totals):
    """Nonnegative integer a with sum a_i u_i = 0 and sum a_i in totals, in order."""
    d = P.num_facets
    n = P.dim
    for total in totals:
        for combo in combinations_with_replacement(range(d), total):
            a = [0] * d
            for i in combo:
                a[i] += 1
            if all(sum(a[i] * P.normals[i][c] for i in range(d)) == 0 for c in range(n)):
                yield tuple(a)


def oracle_cylinder_bound(P: HalfspacePolytope, v: Vertex) -> CylinderBound:
    """The cylinder bound in Fraction arithmetic: the largest slack over P's
    vertices of each facet through v."""
    maxima = tuple(
        max(dot(w.point, P.normals[a]) for w in P.vertices) - P.offsets[a]
        for a in v.active
    )
    m = min(maxima)
    axis = maxima.index(m)
    return CylinderBound(2 * m, axis, maxima)


def oracle_lu_lambda(P: HalfspacePolytope):
    """Independent enumeration order: full product grid, filtered."""
    d = P.num_facets
    n = P.dim
    best = None
    witnesses = []
    for a in product(range(n + 2), repeat=d):
        s = sum(a)
        if not 1 <= s <= n + 1:
            continue
        if any(
            sum(a[i] * P.normals[i][c] for i in range(d)) != 0 for c in range(n)
        ):
            continue
        value = -sum(l * ai for l, ai in zip(P.offsets, a))
        if best is None or value > best:
            best, witnesses = value, [a]
        elif value == best:
            witnesses.append(a)
    if best is None:
        return None
    return 2 * Fraction(best), min(witnesses)


def oracle_fano_check(P: HalfspacePolytope):
    """Every sign pattern s in {-1,1}^d: an exact solution of
    <y, u_i> + r lambda_i = s_i with r > 0 whose polytope {<z,u_i> >= s_i}
    has the origin as its only interior lattice point."""
    d = P.num_facets
    n = P.dim
    for signs in product((-1, 1), repeat=d):
        rows = [tuple(P.normals[i]) + (P.offsets[i],) for i in range(d)]
        aug = [rows[i] + (Fraction(signs[i]),) for i in range(d)]
        R, pivots = oracle_rref(aug)
        if n + 1 in pivots or len(pivots) < n + 1:
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
        try:
            pts = lattice_points(Q)
        except EmptyPolytopeError:
            pts = []
        interior = [x for x in pts if all(dot(x, u) > s for u, s in zip(Q.normals, signs))]
        if interior == [(0,) * n]:
            return FanoCertificate(r, tuple(c / r for c in y), signs)
    return None


def rref_fano_check(P: HalfspacePolytope):
    """width.fano_check as it read (y, r) off the rational rref of
    [U | lambda | -1]."""
    n = P.dim
    aug = [tuple(u) + (l, Fraction(-1)) for u, l in zip(P.normals, P.offsets)]
    R, pivots = rref(aug)
    if pivots != tuple(range(n + 1)):
        return None
    y, r = tuple(R[k][n + 1] for k in range(n)), R[n][n + 1]
    if r <= 0:
        return None
    cert = FanoCertificate(r, tuple(c / r for c in y), (-1,) * P.num_facets)
    return cert if verify_fano_certificate(P, cert) else None


def polytope_from_support(F: Fan, g: IntVector) -> HalfspacePolytope:
    """The polytope {x : <x, u_i> >= g(u_i)} cut out by the fan's generators."""
    if len(g) != len(F.generators):
        raise ValueError("need one support value per generator")
    return HalfspacePolytope(F.generators, tuple(Fraction(v) for v in g))


def oracle_is_strictly_convex(F, g) -> bool:
    """g is strictly convex iff the polytope {<x, u_i> >= g(u_i)} has vertices
    whose tight facet sets are exactly the maximal cones of F."""
    try:
        vertices = polytope_from_support(F, g).vertices
    except EmptyPolytopeError:
        return False
    return sorted(v.active for v in vertices) == sorted(F.max_cones)


def twist_exponents(C: ChartData, g: IntVector) -> tuple[int, ...]:
    """Per complement generator j: c_j = g(u_j) - sum_k V[k][l] g(u_{j_k}).

    These are the exponents twisting a section when it is rewritten in the
    chart of sigma; integrality is automatic.
    """
    if len(g) != len(C.fan.generators):
        raise ValueError("support function does not match the fan")
    g_cone = [g[j] for j in C.cone]
    out = []
    for l, j in enumerate(C.complement):
        col = [row[l] for row in C.V]
        out.append(g[j] - dot(col, g_cone))
    return tuple(out)


def _vertex_of_cone(P: HalfspacePolytope, cone) -> Vertex:
    point = solve_rational([P.normals[i] for i in cone], [P.offsets[i] for i in cone])
    for v in P.vertices:
        if v.point == point:
            return v
    raise ValueError(f"cone {tuple(cone)} does not cut out a vertex of the polytope")


def _complement_exponents(C: ChartData, g: IntVector, x: IntVector) -> IntVector:
    """x_j = <x_sigma + g_u, v_j> - g(u_j) per complement generator j, in chart order."""
    shifted = [xi + g[i] for xi, i in zip(x, C.cone)]
    cols = transpose(C.V)  # row l is the column vector v_j for complement[l]
    return tuple(dot(shifted, cols[l]) - g[j] for l, j in enumerate(C.complement))


def sections_by_conditions(F: Fan, g: IntVector, cone_index: int) -> MonomialEmbedding:
    """Invariant monomial sections in the chart of one maximal cone: the
    oracle of sections_by_polytope, by the invariance conditions.

    A section restricted to the chart is x^{x_sigma} with x_sigma >= 0, and
    invariance pins the complement exponents to _complement_exponents, which
    must be nonnegative too.  Enumerates candidate chart exponents over the
    bounding box of the normalized polytope and keeps those.  Requires a
    strictly convex g.
    """
    if not is_strictly_convex(F, g):
        raise ValueError("support function is not strictly convex")
    C = chart_for_cone(F, cone_index)
    P = polytope_from_support(F, g)
    lo, hi = bounding_box(oracle_normalize_at_vertex(P, _vertex_of_cone(P, C.cone)))
    ranges = [range(max(0, a), b + 1) for a, b in zip(lo, hi)]
    found = [
        x
        for x in product(*ranges)
        if all(xj >= 0 for xj in _complement_exponents(C, g, x))
    ]
    return embedding_from_exponents(found)


def full_section_exponents(
    F: Fan, g: IntVector, cone_index: int
) -> list[tuple[IntVector, IntVector]]:
    """Pairs (x_sigma, x_complement) for each section, complement in chart order."""
    C = chart_for_cone(F, cone_index)
    E = sections_by_conditions(F, g, cone_index)
    return [(x, _complement_exponents(C, g, x)) for x in E.exponents]


def _cone_contains(gens, cone, w) -> bool:
    """w is a nonnegative combination of the cone's generators (full cones only)."""
    cols = [gens[i] for i in cone]
    if len(cols) != len(w):
        return False
    c = solve_rational(transpose(cols), w)
    return c is not None and all(x >= 0 for x in c)


def _parallel(u, v) -> bool:
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


def oracle_cones_meet_in_faces(F) -> bool:
    """Every two maximal cones of the 2-D fan F meet in {0} or in a ray that is
    a face of both: each cone is tested for the other's generators."""
    gens = F.generators
    for a, b in combinations(F.max_cones, 2):
        rays = [gens[i] for i in a if _cone_contains(gens, b, gens[i])]
        rays += [gens[i] for i in b if _cone_contains(gens, a, gens[i])]
        distinct = []
        for r in rays:
            if not any(_parallel(r, s) for s in distinct):
                distinct.append(r)
        if len(distinct) > 1:
            return False
        if distinct and not all(
            any(_parallel(distinct[0], gens[i]) for i in cone) for cone in (a, b)
        ):
            return False
    return True


def oracle_is_complete(F) -> bool:
    """The fan F, of dimension 1 or 2, covers R^n.

    In 1-D both signs occur among the used generators.  In 2-D the used rays,
    in angular order, turn by less than pi at each step and each consecutive
    pair spans a maximal cone, and there are no other maximal cones.
    """
    if F.dim == 1:
        return {F.generators[i][0] > 0 for c in F.max_cones for i in c} == {True, False}

    def half_plane(u) -> int:
        # 0 for angles in [0, pi), 1 for [pi, 2pi)
        x, y = u
        return 0 if y > 0 or (y == 0 and x > 0) else 1

    def angle_cmp(i, j):
        u, v = F.generators[i], F.generators[j]
        if half_plane(u) != half_plane(v):
            return half_plane(u) - half_plane(v)
        cross = u[0] * v[1] - u[1] * v[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    used = {i for c in F.max_cones for i in c}
    order = sorted(used, key=functools.cmp_to_key(angle_cmp))
    cones = set(F.max_cones)
    if len(order) < 3 or len(cones) != len(order):
        return False
    for i, j in zip(order, order[1:] + order[:1]):
        u, v = F.generators[i], F.generators[j]
        if u[0] * v[1] - u[1] * v[0] <= 0 or tuple(sorted((i, j))) not in cones:
            return False
    return True


def _nonnegative_vectors(d: int, max_total: int):
    """All a in Z_{>=0}^d with sum(a) <= max_total, by recursion on the first entry."""
    if d == 0:
        yield ()
        return
    for first in range(max_total + 1):
        for rest in _nonnegative_vectors(d - 1, max_total - first):
            yield (first,) + rest


def oracle_lu_gamma(P: HalfspacePolytope, search_bound: int):
    """Smallest positive -sum lambda_i a_i over every relation with
    sum a_i <= search_bound, as (2 * value, least witness attaining it); None
    when no positive relation is in range.  Meant for monotone classes."""
    d = P.num_facets
    best = None
    witnesses = []
    for a in _nonnegative_vectors(d, search_bound):
        if sum(a) == 0 or any(
            sum(a[i] * P.normals[i][c] for i in range(d)) != 0 for c in range(P.dim)
        ):
            continue
        value = -sum(l * ai for l, ai in zip(P.offsets, a))
        if value <= 0:
            continue
        if best is None or value < best:
            best, witnesses = value, [a]
        elif value == best:
            witnesses.append(a)
    if best is None:
        return None
    return 2 * Fraction(best), min(witnesses)


def blow_up(P: HalfspacePolytope, active: tuple[int, ...], k: int = 1) -> HalfspacePolytope:
    """Cut the vertex on the facets `active` by the facet sum(u_i) at offset
    sum(lambda_i) + k; Delzant again when k is shorter than the adjacent edges."""
    u = tuple(sum(P.normals[i][c] for i in active) for c in range(P.dim))
    lam = sum(P.offsets[i] for i in active) + k
    return HalfspacePolytope(P.normals + (u,), P.offsets + (lam,))


def fs_diastasis(u) -> float:
    """log(1 + sum |u_j|^2): the distance-like potential of the ambient
    metric between the origin chart point and u; always >= 0."""
    return math.log1p(sum(abs(complex(c)) ** 2 for c in u))


def _monomial(x, J) -> float:
    v = 1.0
    for xi, e in zip(x, J):
        if e:
            v *= xi**e
    return v


def oracle_potential_value(T, x) -> float:
    """2 log sum_k x^{J_k}, monomial by monomial in linear space."""
    return 2.0 * math.log(sum(_monomial(x, J) for J in T.embedding.exponents))


def oracle_potential_partial(T, x, j: int) -> float:
    """2 sum_k (J_k)_j x^{J_k - e_j} / sum_k x^{J_k}; the reduced exponents
    continue it to the coordinate hyperplanes."""
    num = 0.0
    den = 0.0
    for J in T.embedding.exponents:
        den += _monomial(x, J)
        if J[j]:
            reduced = list(J)
            reduced[j] -= 1
            num += J[j] * _monomial(x, reduced)
    return 2.0 * num / den


def oracle_complex_hessian(T, xi) -> np.ndarray:
    """d^2 Phi / d xi_a d conj(xi_b) for Phi = 2 log S(|xi|^2), from
    S = sum_k x^{J_k} and its first and second partials S_a, S_ab, summed
    monomial by monomial in linear space:
    2 (delta_ab S_a + conj(xi_a) xi_b S_ab) / S - 2 conj(xi_a) xi_b S_a S_b / S^2.
    Every term stays finite on the coordinate hyperplanes."""
    n = T.dim
    xi = [complex(c) for c in xi]
    x = [abs(c) ** 2 for c in xi]
    S = 0.0
    S1 = [0.0] * n
    S2 = [[0.0] * n for _ in range(n)]
    for J in T.embedding.exponents:
        S += _monomial(x, J)
        for a in range(n):
            if not J[a]:
                continue
            Ja = list(J)
            Ja[a] -= 1
            S1[a] += J[a] * _monomial(x, Ja)
            for b in range(n):
                if Ja[b]:
                    Jab = list(Ja)
                    Jab[b] -= 1
                    S2[a][b] += J[a] * Ja[b] * _monomial(x, Jab)
    H = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            c = xi[a].conjugate() * xi[b]
            H[a, b] = 2 * ((a == b) * S1[a] + c * S2[a][b]) / S - 2 * c * S1[a] * S1[b] / S**2
    return H


def oracle_psi_map(T, xi) -> tuple[complex, ...]:
    """sqrt(dPhi~/dx_k at |xi|^2) * xi_k, one partial at a time."""
    x = [abs(complex(c)) ** 2 for c in xi]
    return tuple(
        math.sqrt(oracle_potential_partial(T, x, k)) * complex(c) for k, c in enumerate(xi)
    )


def oracle_pullback_check(T, xi, value=oracle_potential_value, psi=oracle_psi_map) -> float:
    """The pullback deviation of numeric.pullback_check with both sides by
    central finite differences, one stencil point at a time: value(T, x)
    gives the potential and psi(T, xi) the map."""
    n = T.dim
    p0 = np.array([complex(c).real for c in xi] + [complex(c).imag for c in xi])

    def psi_real(p):
        out = psi(T, [complex(p[k], p[n + k]) for k in range(n)])
        return np.array([w.real for w in out] + [w.imag for w in out])

    def potential_real(p):
        return value(T, [p[k] ** 2 + p[n + k] ** 2 for k in range(n)])

    jac = np.zeros((2 * n, 2 * n))
    for b in range(2 * n):
        h = GRADIENT_STEP * max(1.0, abs(p0[b]))
        e = np.zeros(2 * n)
        e[b] = h
        jac[:, b] = (psi_real(p0 + e) - psi_real(p0 - e)) / (2 * h)
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    lhs = jac.T @ omega @ jac

    h = HESSIAN_STEP

    def second(a: int, b: int) -> float:
        ea = np.zeros(2 * n)
        eb = np.zeros(2 * n)
        ea[a] = h
        eb[b] = h
        return (
            potential_real(p0 + ea + eb)
            - potential_real(p0 + ea - eb)
            - potential_real(p0 - ea + eb)
            + potential_real(p0 - ea - eb)
        ) / (4 * h * h)

    H = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            H[k, l] = 0.25 * (
                second(k, l) + second(n + k, n + l) + 1j * (second(k, n + l) - second(n + k, l))
            )
    phases = [1.0 + 0.0j] * n + [1.0j] * n
    axes = list(range(n)) + list(range(n))
    rhs = np.zeros((2 * n, 2 * n))
    for a in range(2 * n):
        for b in range(2 * n):
            rhs[a, b] = -(H[axes[a], axes[b]] * phases[a] * np.conj(phases[b])).imag
    return float(np.max(np.abs(lhs - rhs)))


def _oracle_point(rng: random.Random, lo: float, hi: float) -> complex:
    r, angle = rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(angle), r * math.sin(angle))


def oracle_draws(n: int, seed: int, samples: int):
    """The points of verify.numeric_suite's gradient, pullback, radial and
    psi checks, drawn with random.Random in the suite's order: every
    gradient point, then every pullback point, and so on."""
    rng = random.Random(seed)
    xs = [[rng.uniform(0.1, 10.0) for _ in range(n)] for _ in range(samples)]
    pullback = [[_oracle_point(rng, 0.1, 0.9) for _ in range(n)] for _ in range(samples)]
    radial = [[rng.uniform(0.1, 3.0) ** 2 for _ in range(n)] for _ in range(10 * samples)]
    psi = [[_oracle_point(rng, 0.1, 3.0) for _ in range(n)] for _ in range(samples)]
    return xs, pullback, radial, psi


def suggested_path_exponent(T, j: int) -> int:
    """numeric.suggested_path_exponents on axis j alone."""
    return int(suggested_path_exponents(T)[j])


def sup_along_path(T, j: int, t_max: float) -> float:
    """Row j of numeric.sups_along_paths, alone: the path check of one axis,
    which the per-sample oracle runs axis by axis."""
    return float(sups_along_paths(T, [j], t_max)[0])


def oracle_numeric_suite(T, seed: int = 0, samples: int = 10) -> list[CheckResult]:
    """verify.numeric_suite one sample at a time: the points of
    oracle_draws, each check's rows evaluated one by one through the scalar
    functions (potential_value, potential_partial, pullback_check on one
    row, radial_quantities on one row, psi_map)."""
    n = T.dim
    bounds = axis_radius_bounds(T)
    xs, pullback, radial, psi = oracle_draws(n, seed, samples)
    results = []

    worst = 0.0
    for x in xs:
        for j in range(n):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = list(x), list(x)
            xp[j] += h
            xm[j] -= h
            fd = (potential_value(T, xp) - potential_value(T, xm)) / (2 * h)
            exact = potential_partial(T, x, j)
            worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    results.append(CheckResult("gradient_finite_difference", worst < GRADIENT_TOL, worst, GRADIENT_TOL))
    worst = max((pullback_check(T, xi) for xi in pullback), default=0.0)
    results.append(CheckResult("symplectic_pullback", worst < PULLBACK_TOL, worst, PULLBACK_TOL))
    # the largest signed gap, 0.0 with no samples
    gaps = [float(g) for x in radial for g in radial_quantities(evaluate(T, [x]))[0] - bounds]
    worst = max(gaps, default=0.0)
    results.append(CheckResult("radial_bound", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for j in range(n):
        got = sup_along_path(T, j, 1e6)
        worst = max(worst, abs(got - float(bounds[j])))
    results.append(CheckResult("radial_sup_along_path", worst < PATH_TOL, worst, PATH_TOL))
    ok = not any(abs(w) > b + 1e-9 for xi in psi for w, b in zip(psi_map(T, xi), bounds))
    results.append(CheckResult("psi_within_cylinder", ok, None, None))
    return results


def oracle_chart_for_cone(F: Fan, cone_index: int) -> ChartData:
    """The oracle of chart_for_cone: the cone's own elimination, not the
    inverse the fan took from the edge walk; it needs no walk, so it takes
    a fan built by hand too."""
    cone = F.max_cones[cone_index]
    n = F.dim
    if len(cone) != n:
        raise NonUnimodularConeError(f"cone {cone} is not full-dimensional")
    U = transpose([F.generators[i] for i in cone])
    complement = tuple(i for i in range(len(F.generators)) if i not in cone)
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    # one elimination of [U | I | W], which tests |det U| = 1 and gives U^-1 [I | W]
    solved = fraction_free_solve(
        U, transpose(identity + [F.generators[i] for i in complement])
    )
    if solved is None or solved[0] != 1:
        raise NonUnimodularConeError(f"cone {cone} generators are not a Z-basis")
    U_inv = tuple(tuple(row[:n]) for row in solved[1])
    V = tuple(tuple(row[n:]) for row in solved[1])
    return ChartData(F, cone, complement, U, U_inv, V)


def exponent_rows(C: ChartData) -> tuple[tuple[int, ...], ...]:
    """Full n x d exponent matrix of a chart: row k gives phi_sigma
    component k.

    Equals U^-1 times the matrix of all generators as columns, which is how
    one sees that each row pairs to zero with every relation among the
    generators (so the monomials are well defined on orbits).
    """
    return mat_mul(C.U_inv, transpose(C.fan.generators))


def transition_exponents(charts: Sequence[ChartData]) -> np.ndarray:
    """E[a, b] = U_b^-1 U_a, the exponents of transition_map(charts[a],
    charts[b]), for all k^2 pairs from one stacked product of object arrays:
    Python ints, exact at any size.  The oracle of the gathers E[a, b] =
    T[b] on a's cone of charts.ChartTable."""
    U = np.array([C.U for C in charts], dtype=object)
    U_inv = np.array([C.U_inv for C in charts], dtype=object)
    return U_inv[None] @ U[:, None]


def charts_of_table(F: Fan, T) -> list[ChartData]:
    """The charts whose V are the complement columns of the (possibly
    altered) exact table T, with F's cones and inverses."""
    charts = []
    for ci, cone in enumerate(F.max_cones):
        complement = tuple(j for j in range(len(F.generators)) if j not in cone)
        V = tuple(tuple(int(T[ci][i][j]) for j in complement) for i in range(len(cone)))
        U = transpose([F.generators[i] for i in cone])
        charts.append(ChartData(F, cone, complement, U, F.inverses[ci], V))
    return charts


def altered_table(table: ChartTable, changes) -> ChartTable:
    """table with T[c][i][j] raised by delta for each (c, i, j, delta); its
    T turns to Python ints when an entry leaves int64."""
    T = table.T.copy()
    for c, i, j, delta in changes:
        if T.dtype != object and abs(int(T[c, i, j]) + delta) >= 2**63:
            T = T.astype(object)
        T[c, i, j] += delta
    return ChartTable(table.generators, table.cone, table.complement, table.inverses, T)


def oracle_exponents_kill_relations(F: Fan, charts=None) -> bool:
    """Every exponent row of every chart (by default the charts of F) pairs
    to zero with every vector of the relation basis among the generators,
    one dot product at a time.  Row k is read off the chart's V, as the
    chart map uses it: 1 at cone slot k, V[k] on the complement."""
    if charts is None:
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
    relations = integer_kernel_basis(transpose(F.generators))
    for C in charts:
        for k in range(len(C.cone)):
            row = [0] * len(F.generators)
            row[C.cone[k]] = 1
            for l, j in enumerate(C.complement):
                row[j] = C.V[k][l]
            if any(dot(row, w) != 0 for w in relations):
                return False
    return True


def _oracle_phi(C: ChartData, z) -> list[complex]:
    """The chart map one component and one complement power at a time."""
    out = []
    for k in range(len(C.cone)):
        val = complex(z[C.cone[k]])
        for l, j in enumerate(C.complement):
            if C.V[k][l]:
                val *= complex(z[j]) ** C.V[k][l]
        out.append(val)
    return out


def _oracle_psi(C: ChartData, xi) -> list[complex]:
    z = [1.0 + 0.0j] * len(C.fan.generators)
    for k, j in enumerate(C.cone):
        z[j] = complex(xi[k])
    return z


def _oracle_kernel_param(C: ChartData, ac) -> list[complex]:
    alpha = [1.0 + 0.0j] * len(C.fan.generators)
    for l, j in enumerate(C.complement):
        alpha[j] = complex(ac[l])
    for k, j in enumerate(C.cone):
        val = 1.0 + 0.0j
        for l in range(len(C.complement)):
            if C.V[k][l]:
                val *= complex(ac[l]) ** (-C.V[k][l])
        alpha[j] = val
    return alpha


def _oracle_monomials(E, xi) -> list[complex]:
    out = []
    for row in E:
        val = 1.0 + 0.0j
        for m, e in enumerate(row):
            if e:
                val *= complex(xi[m]) ** e
        out.append(val)
    return out


def _oracle_coord(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi))


def _oracle_rel_dev(a, b) -> float:
    return max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(a, b))


def _oracle_transitions(charts, table=None) -> dict:
    """The exponents of every chart change (a, b): transition_map's, or T[b]'s
    columns on a's cone of a given ChartTable."""
    k, n = len(charts), len(charts[0].cone)
    return {
        (a, b): transition_map(charts[a], charts[b])
        if table is None
        else tuple(tuple(int(table.T[b][i][j]) for j in charts[a].cone) for i in range(n))
        for a in range(k)
        for b in range(k)
    }


def _or_inf(deviation) -> float:
    """deviation(), or inf where a power overflows, underflows to a zero
    base or gives nan: a float sweep shows nothing there."""
    try:
        value = deviation()
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return math.inf if math.isnan(value) else value


def oracle_exact_checks(F: Fan, table=None) -> tuple[bool, bool]:
    """The relation and cocycle checks of verify.exact_checks by dot loops
    and on every triple of charts: the relation oracle, and
    E[b, c] E[a, b] = E[a, c] for all a, b, c, checked for all (b, c) by
    one batched product per chart a, in int64 when n max|E|^2 < 2^63 and
    in Python ints otherwise.  The charts and chart changes are as in
    oracle_chart_suite."""
    if table is None:
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
    else:
        charts = charts_of_table(F, table.T)
    E, k = _oracle_transitions(charts, table), len(charts)
    E = np.array([[E[a, b] for b in range(k)] for a in range(k)], dtype=object)
    if F.dim * max(abs(e) for e in E.flat) ** 2 < 2**63:
        E = E.astype(np.int64)
    # E[b, c] E[a, b] for all (b, c) against E[a, c]
    cocycle = all(np.array_equal(E @ E[a][:, None], np.broadcast_to(E[a], E.shape)) for a in range(k))
    return oracle_exponents_kill_relations(F, charts=charts), cocycle


def oracle_chart_suite(F: Fan, seed: int = 0, samples: int = 10, table=None):
    """The chart checks of verify.chart_suite as float sweeps over random
    torus points, one chart, pair and sample at a time in pure Python, with
    the cocycle identity checked on every triple of charts: each sweep tests
    the identity of monomial maps that the exact check decides.
    The charts are chart_for_cone's and the chart changes transition_map's;
    given a (possibly altered) ChartTable, each chart's V is its T's
    complement columns instead, and the exact checks take the chart change
    from a to b as T[b]'s columns on a's cone."""
    rng = random.Random(seed)
    d = len(F.generators)
    n = F.dim
    results = []
    if table is None:
        charts = [chart_for_cone(F, ci) for ci in range(len(F.max_cones))]
    else:
        charts = charts_of_table(F, table.T)

    worst = 0.0
    for C in charts:
        for _ in range(samples):
            xi = [_oracle_coord(rng, 0.5, 2.0) for _ in range(n)]
            chart = lambda: _oracle_phi(C, _oracle_psi(C, xi))
            worst = max(worst, _or_inf(lambda: _oracle_rel_dev(chart(), xi)))
    results.append(CheckResult("phi_after_psi_identity", worst < CHART_TOL, worst, CHART_TOL))

    generator_rows = list(zip(*F.generators))
    worst = 0.0
    for C in charts:
        if not C.complement:
            continue
        for _ in range(samples):
            ac = [_oracle_coord(rng, 0.5, 2.0) for _ in C.complement]
            image = lambda: _oracle_monomials(generator_rows, _oracle_kernel_param(C, ac))
            worst = max(worst, _or_inf(lambda: max(abs(w - 1.0) for w in image())))
    results.append(CheckResult("kernel_param_in_kernel", worst < CHART_TOL, worst, CHART_TOL))

    worst = 0.0
    for C in charts:
        if not C.complement:
            continue
        for _ in range(samples):
            z = [_oracle_coord(rng, 0.5, 2.0) for _ in range(d)]
            ac = [_oracle_coord(rng, 0.5, 2.0) for _ in C.complement]
            moved = lambda: _oracle_phi(C, [a * w for a, w in zip(_oracle_kernel_param(C, ac), z)])
            worst = max(worst, _or_inf(lambda: _oracle_rel_dev(moved(), _oracle_phi(C, z))))
    results.append(CheckResult("kernel_invariance", worst < CHART_TOL, worst, CHART_TOL))

    relations, cocycle = oracle_exact_checks(F, table)
    results.append(CheckResult("exponents_kill_relations", relations, None, None))

    # the monomial side's exponents are transition_map's, U_b^-1 U_a, while
    # the chart side reads each V off the (possibly altered) table
    k = len(charts)
    E = _oracle_transitions(charts)
    worst = 0.0
    for a in range(k):
        for b in range(k):
            for _ in range(samples):
                xi = [_oracle_coord(rng, 0.5, 2.0) for _ in range(n)]
                direct = lambda: _oracle_phi(charts[b], _oracle_psi(charts[a], xi))
                monomial = lambda: _oracle_monomials(E[a, b], xi)
                worst = max(worst, _or_inf(lambda: _oracle_rel_dev(monomial(), direct())))
    results.append(CheckResult("transition_matches_charts", worst < CHART_TOL, worst, CHART_TOL))
    results.append(CheckResult("transition_cocycle_exact", cocycle, None, None))
    return results


def failed_checks(results) -> set[str]:
    """The names of the checks that failed."""
    return {r.name for r in results if not r.passed}


def relation_and_cocycle(results) -> tuple[bool, bool]:
    """The pass flags of exponents_kill_relations and transition_cocycle_exact,
    the two checks that oracle_exact_checks decides."""
    passed = {r.name: r.passed for r in results}
    return passed["exponents_kill_relations"], passed["transition_cocycle_exact"]


def assert_same_flags(got, want):
    """Same check names in the same order, and the same pass flags wherever
    want's deviation is finite: a float sweep that overflowed shows
    nothing."""
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(got, want):
        if w.deviation is None or math.isfinite(w.deviation):
            assert g.passed == w.passed, (g, w)


def oracle_polygon_area(P: HalfspacePolytope) -> Fraction:
    """The shoelace formula over the vertices of the subset scan, put in
    boundary order: each next vertex shares a facet with the last one."""
    vertices = oracle_vertices(P)
    ring = [vertices[0]]
    while len(ring) < len(vertices):
        last = set(ring[-1].active)
        ring.append(next(w for w in vertices if w not in ring and last & set(w.active)))
    pts = [v.point for v in ring]
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))) / 2


def bounding_box(P: HalfspacePolytope) -> tuple[IntVector, IntVector]:
    """Componentwise integer bounds covering the polytope: (lo, hi)."""
    pts = [v.point for v in P.vertices]
    lo = tuple(math.ceil(min(p[i] for p in pts)) for i in range(P.dim))
    hi = tuple(math.floor(max(p[i] for p in pts)) for i in range(P.dim))
    return lo, hi


def polytope_fibres(P: HalfspacePolytope) -> list[tuple[IntVector, int, int]]:
    """The integer points of P as lattice_fibres gives them, walked in P's
    bounding box with facet i scaled to <x, q_i u_i> >= p_i for
    lambda_i = p_i / q_i.  On normalize_at_vertex(P, v) it is the oracle of
    sections_by_polytope(P, v), whose box comes from the slacks instead."""
    columns = list(zip(*([l.denominator * c for c in u] for u, l in zip(P.normals, P.offsets))))
    return lattice_fibres(columns, [l.numerator for l in P.offsets], *bounding_box(P))


def fibre_count(P: HalfspacePolytope) -> int:
    """The number of integer points of P, as the sum of its fibre lengths."""
    return sum(b - a + 1 for _, a, b in polytope_fibres(P))


def oracle_ehrhart_volume(P: HalfspacePolytope) -> Fraction:
    """The leading coefficient of the Ehrhart polynomial k -> #(kP ∩ Z^n) of
    a lattice polytope: its n-th finite difference at k = 1 .. n+1, over n!,
    from the fibre counts of kP."""
    n = P.dim
    counts = [fibre_count(dilate(P, k)) for k in range(1, n + 2)]
    difference = sum((-1) ** (n - j) * math.comb(n, j) * counts[j] for j in range(n + 1))
    return Fraction(difference, math.factorial(n))
