"""Convex polytopes in halfspace form {x : <x, u_i> >= lambda_i}, exactly.

Normals are primitive integer vectors, offsets are rationals.  Vertex
enumeration, Delzant verification, lattice points and vertex normalization
all run in exact arithmetic; nothing here touches floats.  The denominator
scale q of the offsets and the integers q * lambda_i are one cached
property per polytope, integer_offsets, which the vertex walk, the width
bounds and the normalization at a vertex read.  That normalization is the
chart of qP at q v, in integers, so no dilated copy qP is built.  Vertices
come from integer pivots on a dictionary of D U_A^-1 and the facet
slacks, as in lrs: the dual simplex method pivots from the first n
independent normals to a feasible basis, or to a row that proves P empty,
and a walk over the feasible bases reaches each by one pivot of its
parent's dictionary, so the start's one elimination is the only one.  On a
simple polytope the bases are the vertices and the pivots its edges; where
a ratio test ties, the walk takes every tied facet, so it also lists the
vertices of a polytope that is not simple.  Each vertex on exactly n
facets keeps its edge directions, and an unbounded edge is reported as the
recession direction.  The walk is the one place a vertex is found
unimodular: the Delzant test reads D = |det U_A| off each vertex on n
facets, and the normalization at a vertex, the normal fan and its charts
read U_A^-1 off it, with no elimination of their own.  The lattice-point
count and the volume of a Delzant polytope are vertex sums over those edge
directions (Brion's and Lawrence's formulas), so their cost follows the
vertices, not the volume.  The lattice points themselves come fibre by
fibre, x_n's interval above each prefix x_1..x_{n-1}, from a walk over the
coordinates that drops a partial prefix once a facet is out of reach of
the rest of the box.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .lattice import (
    IntVector,
    RationalVector,
    _eliminate,
    dot,
    int_vector,
    integer_kernel_basis,
    is_primitive,
    rational_vector,
)


class UnboundedPolytopeError(ValueError):
    pass


class EmptyPolytopeError(ValueError):
    pass


class NotDelzantError(ValueError):
    pass


@dataclass(frozen=True)
class HalfspacePolytope:
    """Intersection of halfspaces <x, u_i> >= lambda_i with primitive integer u_i."""

    normals: tuple[IntVector, ...]
    offsets: RationalVector

    def __post_init__(self):
        normals = tuple(int_vector(u) for u in self.normals)
        offsets = rational_vector(self.offsets)
        if len(normals) != len(offsets):
            raise ValueError("need one offset per normal")
        n = len(normals[0])
        if any(len(u) != n for u in normals):
            raise ValueError("normals must share one ambient dimension")
        for u in normals:
            if not is_primitive(u):
                raise ValueError(f"normal {u} is not primitive")
        if len(set(zip(normals, offsets))) != len(normals):
            raise ValueError("duplicate facet inequality")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    @property
    def num_facets(self) -> int:
        return len(self.normals)

    @functools.cached_property
    def integer_offsets(self) -> tuple[int, IntVector]:
        """(q, q * offsets) for the smallest q >= 1 that makes the offsets
        integers, computed at most once per polytope object."""
        q = math.lcm(*(l.denominator for l in self.offsets))
        return q, tuple(l.numerator * (q // l.denominator) for l in self.offsets)

    @functools.cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """enumerate_vertices(self), computed at most once per polytope object.

        normalize_at_vertex hands its image the mapped list, so the chart is
        not enumerated again; P's vertices and qP's are in the same
        lexicographic order, so P's index k names qP's k-th vertex.
        """
        return tuple(enumerate_vertices(self))

    def normal_sums(self, k: int) -> dict[IntVector, list[tuple[int, ...]]]:
        """The k-multisets of facet indices, as sorted index tuples, keyed by
        the sum of their normals.  Each table is built at most once per
        polytope object, from the one of size k - 1."""
        tables = self._normal_sum_tables
        while len(tables) <= k:
            table: dict = {}
            for s, multisets in tables[-1].items():
                for m in multisets:
                    for j in range(m[-1] if m else 0, self.num_facets):
                        key = tuple(map(operator.add, s, self.normals[j]))
                        table.setdefault(key, []).append(m + (j,))
            tables.append(table)
        return tables[k]

    @functools.cached_property
    def _normal_sum_tables(self) -> list[dict]:
        return [{(0,) * self.dim: [()]}]


@dataclass(frozen=True)
class Vertex:
    """A vertex point together with the indices of all facets tight there.

    A vertex on exactly n facets also keeps the edge directions the walk
    gives it: edges[k] is column k of D U_A^-1, with U_A the normals of the
    facets `active` as rows and D = |det U_A|, so it leaves facet active[k]
    and stays on the others.  <edges[0], u_{A_0}> = D, so D = 1, a Z-basis
    of tight normals, is read off them: is_delzant, vertex_sums,
    normalize_at_vertex and fan.normal_fan do so.  They are None on a
    vertex on more than n facets, and not compared.
    """

    point: RationalVector
    active: tuple[int, ...]
    edges: tuple[IntVector, ...] | None = field(default=None, compare=False, repr=False)


def format_point(x: Sequence) -> str:
    """A point for messages, as (0, 1/2) rather than the reprs of its Fractions."""
    return "(" + ", ".join(str(c) for c in x) + ")"


def recession_direction(P: HalfspacePolytope) -> IntVector | None:
    """A nonzero integer direction r with <r, u_i> >= 0 for all i, if one exists.

    The recession cone is {0} iff the normals positively span R^n.  A nonzero
    recession cone either contains a line (normals do not span R^n) or has an
    extreme ray cut out by n-1 linearly independent normals, so the search
    makes one elimination per (n-1)-subset.  No command calls it: the edge
    walk reports an unbounded edge instead.  The benchmark's tracer binds it
    by name, and the tests' oracle_vertices calls it.
    """
    n = P.dim
    kernel = integer_kernel_basis(P.normals)  # empty iff the normals span R^n
    if kernel:
        return kernel[0]
    if n == 1:
        candidates = [(1,), (-1,)]
    else:
        candidates = []
        for idx in combinations(range(P.num_facets), n - 1):
            kernel = integer_kernel_basis([P.normals[i] for i in idx])
            if len(kernel) == 1:  # the n - 1 normals are independent
                candidates.extend(kernel)
    for r in candidates:
        for s in (r, tuple(-x for x in r)):
            if all(dot(s, u) >= 0 for u in P.normals):
                return s
    return None


class _Dictionary(NamedTuple):
    """A basis of n facets with its point and edges, for the pivots of the
    start and of the walk (Avis and Fukuda, A pivoting algorithm for convex
    hulls and vertex enumeration, 1992; Avis, lrs, 2000).

    basis holds the facet indices A in increasing order and D = |det U_A|,
    for U_A their normals as rows.  Each of the n + 1 columns is a vector
    of R^n in integers over D, followed by its pairing with every facet:
    - X is D q x, for x the point where the facets of A meet, followed by
      the slacks S_i = <u_i, X> - D b_i;
    - E[k] is e_k, column k of D U_A^-1, followed by R_ik = <u_i, e_k>.
    e_k leaves facet A_k and stays on the others: R_{A_l}k = D [l = k].
    """

    basis: tuple[int, ...]
    D: int
    X: tuple[int, ...]
    E: list[tuple[int, ...]]


def _dictionary(U: Sequence[IntVector], b: Sequence[int]) -> _Dictionary | None:
    """The dictionary of the first n facets whose normals are independent,
    from one elimination of [U^T | I]; None when the normals do not span R^n.

    The elimination takes its pivots among the normals, as columns, in
    index order, and ends with D times the identity on the pivot columns.
    So its row operations are D U_A^-T: the rows of the right block are the
    edges e_k, and column i of the left block holds R_ik = <u_i, e_k>.
    """
    n, d = len(U[0]), len(U)
    A = [[*col, *(int(i == k) for i in range(n))] for k, col in enumerate(zip(*U))]
    basis, D = _eliminate(A, d)
    if len(basis) < n:
        return None
    s = 1 if D > 0 else -1
    E = [tuple(s * x for x in (*row[d:], *row[:d])) for row in A]
    # X = sum_k b_{A_k} e_k, and S_i = sum_k b_{A_k} R_ik - D b_i
    X = tuple(
        sum(b[i] * e[m] for i, e in zip(basis, E)) - (s * D * b[m - n] if m >= n else 0)
        for m in range(n + d)
    )
    return _Dictionary(tuple(basis), s * D, X, E)


def _pivot(dic: _Dictionary, i: int, j: int) -> _Dictionary:
    """The dictionary with facet i in place of A_j: one integer pivot on
    r = R_ij, exact in every division.

    D' = |r|, and every other column c, X included, becomes
    (|r| c - sgn(r) c_i e_j) / D, where c_i is its pairing with facet i;
    the new column of facet i is sgn(r) e_j.  A column with c_i = 0 is kept
    as it is when |r| = D, as at every step between two unimodular bases.
    The columns are then put in the order of the sorted basis.
    """
    basis, D, X, E = dic
    n = len(basis)
    ej = E[j]
    r = ej[n + i]
    a, s = (r, 1) if r > 0 else (-r, -1)

    def update(c):
        t = s * c[n + i]
        if not t:
            return c if a == D else tuple([a * x // D for x in c])
        return tuple([(a * x - t * y) // D for x, y in zip(c, ej)])

    new = basis[:j] + (i,) + basis[j + 1 :]
    order = sorted(range(n), key=new.__getitem__)
    E = [update(c) if k != j else ej if s > 0 else tuple(-y for y in ej) for k, c in enumerate(E)]
    return _Dictionary(tuple(new[k] for k in order), a, update(X), [E[k] for k in order])


def _dual_simplex(dic: _Dictionary) -> _Dictionary | None:
    """A feasible basis of {x : <u_i, x> >= b_i}, by the dual simplex method
    from the dictionary dic; None when the set is empty.

    c = sum of the normals of dic's basis pairs to D with each of its edges,
    so that basis is dual feasible for min <c, x>, and each pivot keeps
    every <c, e_k> >= 0.  Bland's rule makes the pivots terminate (Bland
    1977): the leaving row is the least facet index i with S_i < 0, and the
    entering column the one of least ratio <c, e_k> / R_ik over R_ik > 0,
    ties going to the least facet index.  A row with S_i < 0 and no
    R_ik > 0 is a Farkas certificate: u_i is a nonpositive combination of
    the basis normals, so <u_i, x> < b_i wherever they hold.
    """
    first = dic.basis
    n = len(first)
    while True:
        i = next((i for i, s in enumerate(dic.X[n:]) if s < 0), None)
        if i is None:
            return dic
        best = None
        for k, e in enumerate(dic.E):
            r = e[n + i]
            if r > 0:
                cost = sum(e[n + l] for l in first)  # <c, e_k>
                if best is None or cost * r_best < c_best * r:
                    best, c_best, r_best = k, cost, r
        if best is None:
            return None
        dic = _pivot(dic, i, best)


def _edge_walk(P: HalfspacePolytope, start: _Dictionary) -> list[Vertex]:
    """Every vertex, by a depth-first search over the feasible bases from
    the dictionary `start`.

    At a basis A, the edge e_j leaves A_j and stays on the others.  Along
    x + t e_j the slack S_i of facet i changes by t R_ij, so the next basis
    takes in an i with R_ij < 0 and the least ratio S_i / -R_ij, compared
    by integer cross-multiplication: the dictionary holds both, so no dot
    product is taken.  When several facets reach the least ratio, each
    gives a basis, and a ratio of 0 (a facet already tight) gives another
    basis at the same point; the feasible bases are connected by these
    pivots, so the search reaches them all.  No i with R_ij < 0 means an
    unbounded edge: then <e_j, u_i> >= 0 for every i, so e_j over the gcd
    of its entries is raised as the recession direction.  Each unseen
    basis's dictionary is one pivot of its parent's, so no elimination is
    made.  The bases are grouped by their points, sorted on the integers
    X L / D, with L the lcm of the D's, which order them as the points do.
    A point on exactly n facets has one basis, whose edges it keeps; a
    point on more is a vertex with its tight facets and no edges.  On a
    simple polytope every basis is a vertex, so k vertices take k - 1
    pivots.
    """
    n = P.dim
    q = P.integer_offsets[0]
    seen = {start.basis}
    stack = [start]
    walked = []
    while stack:
        dic = stack.pop()
        walked.append(dic)
        basis, _, X, E = dic
        S = X[n:]
        for j, e in enumerate(E):
            R = e[n:]
            best, tie = None, False
            for i, r in enumerate(R):
                if r >= 0:
                    continue
                # c > 0 iff S[i] / -r < s_best / -r_best
                c = 1 if best is None else S[i] * r_best - s_best * r
                if c > 0:
                    best, s_best, r_best, tie = i, S[i], r, False
                elif c == 0:
                    tie = True
            if best is None:
                g = math.gcd(*e[:n])
                raise UnboundedPolytopeError(f"recession direction {tuple(x // g for x in e[:n])}")
            entering = (best,)
            if tie:  # every facet of the least ratio
                entering = [i for i, r in enumerate(R) if r < 0 and S[i] * r_best == s_best * r]
            rest = basis[:j] + basis[j + 1 :]
            for i in entering:
                nxt = tuple(sorted(rest + (i,)))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(_pivot(dic, i, j))
    L = math.lcm(*(dic.D for dic in walked))
    points = {}
    for dic in walked:
        points.setdefault(tuple(x * (L // dic.D) for x in dic.X[:n]), dic)
    vertices = []
    for _, (basis, D, X, E) in sorted(points.items()):
        x, S = X[:n], X[n:]
        point = tuple(map(Fraction, x)) if D * q == 1 else tuple(Fraction(c, D * q) for c in x)
        if S.count(0) == n:
            vertices.append(Vertex(point, basis, tuple(e[:n] for e in E)))
        else:
            vertices.append(Vertex(point, tuple(i for i, s in enumerate(S) if s == 0)))
    return vertices


def enumerate_vertices(P: HalfspacePolytope) -> list[Vertex]:
    """All vertices, deduplicated, sorted lexicographically by point.

    One elimination of the normals as columns picks the first n independent
    ones and gives their dictionary.  From it the dual simplex method
    reaches a feasible basis, or a Farkas row that proves P empty.  An edge
    walk from that basis lists every vertex by pivots and raises on the
    first unbounded edge it meets; a walk that meets none proves P bounded.
    When the normals do not span R^n, P is its slice by K^perp plus the
    kernel K of the normals: the slice, with the rows +-k (offset 0) for k
    in K, is pointed and goes through the same start, and P is empty when
    that start finds it empty; when it does not, the first kernel vector is
    raised as the recession direction.  Raises for unbounded or empty input.
    """
    U = P.normals
    b = P.integer_offsets[1]
    first = _dictionary(U, b)
    if first is None:
        kernel = integer_kernel_basis(U)
        rows = tuple(s for k in kernel for s in (k, tuple(-x for x in k)))
        if _dual_simplex(_dictionary(U + rows, b + (0,) * len(rows))) is None:
            raise EmptyPolytopeError("no feasible vertex")
        # P is nonempty and contains the line of kernel[0]
        raise UnboundedPolytopeError(f"recession direction {kernel[0]}")
    start = _dual_simplex(first)
    if start is None:
        raise EmptyPolytopeError("no feasible vertex")
    return _edge_walk(P, start)


def _unimodular(P: HalfspacePolytope, v: Vertex) -> bool:
    """v lies on exactly n facets whose normals form a Z-basis:
    D = <w_0, u_{A_0}> = 1, read off its first edge direction."""
    if v.edges is None:
        return False
    return sum(map(operator.mul, v.edges[0], P.normals[v.active[0]])) == 1


def is_delzant(P: HalfspacePolytope) -> bool:
    """Every vertex has exactly n tight facets whose normals form a Z-basis.

    Read off the walk, with no elimination of its own: each vertex on
    exactly n facets carries D in its edges, and a vertex on more carries
    none, so it fails.
    """
    return all(_unimodular(P, v) for v in P.vertices)


def bounding_box(P: HalfspacePolytope) -> tuple[IntVector, IntVector]:
    """Componentwise integer bounds covering the polytope: (lo, hi)."""
    pts = [v.point for v in P.vertices]
    lo = tuple(math.ceil(min(p[i] for p in pts)) for i in range(P.dim))
    hi = tuple(math.floor(max(p[i] for p in pts)) for i in range(P.dim))
    return lo, hi


def lattice_fibres(P: HalfspacePolytope) -> list[tuple[IntVector, int, int]]:
    """The integer points of P as fibres (prefix, a, b), in lexicographic order:
    [a, b] is the integer interval of x_n above each integer prefix
    x_1..x_{n-1} with a point of P above it.

    Facet i reads <x, w_i> >= p_i, with w_i = q_i u_i for lambda_i = p_i / q_i.
    A depth-first walk sets x_1, x_2, ... in increasing order and carries the
    residuals r_i = p_i - sum_{k <= j} w_ik x_k, one multiply-subtract per
    facet a step.  x_j runs over the interval, by integer ceiling and floor
    divisions, where no r_i exceeds reach[j][i], the largest sum_{k > j}
    w_ik x_k on the bounding box; no other prefix has a point above it.  At
    x_n the reach is 0 and the interval is the fibre.  So the cost is the
    prefixes visited times the facets, not the box; on a simplex at a vertex
    every visited prefix has a point above it.  Exact in Python integers.

    The commands call it only on an image from normalize_at_vertex, which
    lies in the nonnegative orthant with a vertex at 0.  On a polytope long
    and thin across x_1..x_{n-1} the relaxation by the box is loose: the
    (1, 2^e) parallelogram as given, with normals (1, 2^e), (0, 1) and their
    negatives, has 4 points, but its cost follows the 2^e prefixes of its
    box; normalized at a vertex it is the unit square.
    """
    lo, hi = bounding_box(P)
    n = P.dim
    cols = list(zip(*([l.denominator * c for c in u] for u, l in zip(P.normals, P.offsets))))
    reach = [(0,) * P.num_facets]
    for j in range(n - 1, 0, -1):
        reach.insert(0, tuple(t + max(c * lo[j], c * hi[j]) for t, c in zip(reach[0], cols[j])))
    fibres = []

    def walk(j, prefix, r):
        a, b = lo[j], hi[j]
        for ri, c, t in zip(r, cols[j], reach[j]):  # c x_j >= r_i - t
            if c > 0:
                a = max(a, -((t - ri) // c))
            elif c < 0:
                b = min(b, (ri - t) // c)
        if a > b:
            return
        if j < n - 2:
            for x in range(a, b + 1):
                walk(j + 1, (*prefix, x), [ri - c * x for ri, c in zip(r, cols[j])])
        elif j == n - 1:  # n = 1
            fibres.append((prefix, a, b))
        else:  # the fibres: c x_n >= r_i - d x_{n-1}
            low = [(ri, d, c) for ri, d, c in zip(r, cols[j], cols[-1]) if c > 0]
            up = [(ri, d, c) for ri, d, c in zip(r, cols[j], cols[-1]) if c < 0]
            for x in range(a, b + 1):
                s, e = lo[-1], hi[-1]
                for ri, d, c in low:
                    v = (d * x - ri) // c
                    if -v > s:
                        s = -v
                for ri, d, c in up:
                    v = (ri - d * x) // c
                    if v < e:
                        e = v
                if s <= e:
                    fibres.append(((*prefix, x), s, e))

    walk(0, (), [l.numerator for l in P.offsets])
    return fibres


def lattice_points(P: HalfspacePolytope) -> list[IntVector]:
    """All integer points of P, sorted lexicographically: the lattice_fibres
    expanded in order, so no point of the bounding box is tested alone.
    No command calls it; the benchmark's tracer binds it by name."""
    lo, hi = bounding_box(P)
    # one shared int per value of x_n, as in the tuples product() made for the
    # box scan; a fresh int per point costs 28 bytes more (11 MiB at N = 486,016)
    xs = tuple(range(lo[-1], hi[-1] + 1))
    return [
        (*prefix, x)
        for prefix, a, b in lattice_fibres(P)
        for x in xs[a - lo[-1] : b - lo[-1] + 1]
    ]


@functools.cache
def _todd_terms(n: int) -> tuple[int, tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]:
    """[t^n] e^{beta t} prod_k Td(a_k t), with Td(x) = x / (e^x - 1), as an
    integer polynomial over one denominator L.

    log Td(x) = -x/2 - sum_{m >= 1} B_2m x^2m / (2m (2m)!), with B_j the
    Bernoulli numbers, so the product is exp(g(t)) with g_1 = G / 2 for
    G = 2 beta - p_1, and g_m = -B_m p_m / (m m!) for even m, where
    p_m = sum_k a_k^m.  [t^n] exp(g) is the sum, over the partitions of n
    into ones and even parts (k_m parts of size m), of prod_m g_m^k_m / k_m!.
    Returns L and, per partition, (L times its coefficient, k_1, the pairs
    (m, k_m) with k_m > 0), so a vertex costs one term per partition.
    """
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(math.comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))

    def partitions(rest, m):
        if m < 2:
            yield rest, ()
            return
        for k in range(rest // m + 1):
            for ones, evens in partitions(rest - k * m, m - 2):
                yield ones, ((m, k), *evens) if k else evens

    terms = []
    for ones, evens in partitions(n, n - n % 2):
        c = Fraction(1, 2**ones * math.factorial(ones))
        for m, k in evens:
            c *= (-B[m] / (m * math.factorial(m))) ** k / math.factorial(k)
        terms.append((c, ones, evens))
    L = math.lcm(*(c.denominator for c, _, _ in terms))
    return L, tuple((c.numerator * (L // c.denominator), ones, evens) for c, ones, evens in terms)


def vertex_sums(P: HalfspacePolytope) -> tuple[int, Fraction]:
    """The number of integer points and the volume of a Delzant polytope,
    both as sums over its vertices, so their cost follows the vertices,
    not the volume.

    At a vertex on the facets A the walk gives the edge directions w_k, the
    columns of U_A^-1.  Put c = (1, K, ..., K^(n-1)) with K = 1 + the
    largest |entry| of any w_k; then a_k = <w_k, c> is nonzero, since the
    last nonzero entry of w_k, times its power of K, outweighs the rest
    (checked exactly all the same).
    - The count, by Brion's formula (Brion 1988; Barvinok, Integer Points
      in Polyhedra, 2008): U_A is unimodular, so the integer points of the
      tangent cone are p_v + N w_1 + ... + N w_n with apex
      p_v = U_A^-1 ceil(lambda_A), and at x = t c
          sum_{m in P} e^{t <m, c>} = sum_v e^{t beta_v} / prod_k (1 - e^{t a_k})
      with beta_v = <p_v, c> = sum_k ceil(lambda_{A_k}) a_k.  As
      1 / (1 - e^{a t}) = -Td(a t) / (a t), the count, the t^0 coefficient,
      is sum_v (-1)^n [t^n] e^{beta_v t} prod_k Td(a_k t) / prod_k a_k,
      with [t^n] from _todd_terms.  The total must be an integer.
    - The volume, by Lawrence's formula (Lawrence, Polytope volume
      computation, 1991): sum_v <v, c>^n / (n! prod_k (-a_k)), where
      <v, c> = sum_k lambda_{A_k} a_k, as v = U_A^-1 lambda_A.
    Python integers throughout, and no vertex is inverted again.  Raises
    NotDelzantError unless every vertex lies on n facets with D = 1.
    """
    n = P.dim
    q, b = P.integer_offsets
    vertices = P.vertices
    for v in vertices:
        if not _unimodular(P, v):
            raise NotDelzantError(f"the tangent cone at {format_point(v.point)} is not unimodular")
    K = 1 + max(abs(x) for v in vertices for w in v.edges for x in w)
    c = [K**i for i in range(n)]
    L, terms = _todd_terms(n)
    even = range(2, n + 1, 2)
    # both sums over the one denominator den = prod_v prod_k a_k; the common
    # sign (-1)^n is applied at the end
    count, vol, den = 0, 0, 1
    for v in vertices:
        a = [sum(map(operator.mul, w, c)) for w in v.edges]
        if 0 in a:
            raise ArithmeticError(f"an edge at {format_point(v.point)} is orthogonal to {c}")
        beta = sum(-(-b[i] // q) * ak for i, ak in zip(v.active, a))
        G = 2 * beta - sum(a)
        p = {m: sum(ak**m for ak in a) for m in even}
        S = 0
        for coefficient, ones, evens in terms:
            for m, k in evens:
                coefficient *= p[m] ** k
            S += coefficient * G**ones
        height = sum(b[i] * ak for i, ak in zip(v.active, a))  # q <v, c>
        d = math.prod(a)
        count, vol, den = count * d + S * den, vol * d + height**n * den, den * d
    sign = (-1) ** n
    points, r = divmod(sign * count, den * L)
    if r:
        raise ArithmeticError("the vertex sum of the lattice-point count is not an integer")
    return points, Fraction(sign * vol, den * math.factorial(n) * q**n)


def normalize_at_vertex(P: HalfspacePolytope, v: Vertex) -> HalfspacePolytope:
    """The chart of the class [P] at the Delzant vertex v: qP moved by
    y -> U_A y - q lambda_A, for q = P.integer_offsets[0] and U_A the normals
    of the facets A tight at v as rows.  q v goes to the origin and facet A_k
    to <y, e_k> >= 0, so the image sits in the nonnegative orthant, and its
    offsets q lambda_i - <u_i, q v> are integers.  For q = 1 it is P moved
    by x -> U_A x - lambda_A.

    Read off the walk at v, with no elimination: the edge directions w_k are
    the columns of U_A^-1, so the image normals U_A^-T u_i are
    (<w_k, u_i>)_k.  The image gets P's vertices: a vertex x maps to
    <u_{A_k}, q x> - q lambda_{A_k}, in integers over one denominator,
    kept as ints when that is 1, with the same tight facets, and its edges,
    if it has them, are mapped by U_A.  No dilated copy of P is built.
    """
    if len(v.active) != P.dim:
        raise NotDelzantError(f"vertex {format_point(v.point)} lies on {len(v.active)} facets")
    if not _unimodular(P, v):
        raise NotDelzantError(f"normals at {format_point(v.point)} do not form a Z-basis")
    q, b = P.integer_offsets
    A = [P.normals[i] for i in v.active]
    qv = [c.numerator * (q // c.denominator) for c in v.point]  # integral, as D = 1
    normals = tuple(tuple(sum(map(operator.mul, w, u)) for w in v.edges) for u in P.normals)
    offsets = tuple(bi - sum(map(operator.mul, u, qv)) for u, bi in zip(P.normals, b))
    Q = HalfspacePolytope(normals, offsets)

    def image(x: Vertex) -> Vertex:
        # m x is integral and q divides m, so the slacks of qP at q x are s / r
        m = math.lcm(q, *(c.denominator for c in x.point))
        r = m // q
        mx = [c.numerator * (m // c.denominator) for c in x.point]
        s = [sum(map(operator.mul, u, mx)) - b[i] * r for u, i in zip(A, v.active)]
        point = tuple(s) if r == 1 else tuple(Fraction(t, r) for t in s)
        if x.edges is None:  # on more than n facets
            return Vertex(point, x.active)
        edges = tuple(tuple(sum(map(operator.mul, u, w)) for u in A) for w in x.edges)
        return Vertex(point, x.active, edges)

    vars(Q)["vertices"] = tuple(sorted(map(image, P.vertices), key=lambda x: x.point))
    return Q


def _exact_int(x) -> int:
    """int(x), refusing what int() would truncate (1.5, true, 2.7): the value
    must equal its exact parse Fraction(str(x)), as offsets are parsed.
    Infinity, which int() refuses with an OverflowError, is a ValueError too.
    An int is returned as it is; a bool is not an int here and is refused."""
    if type(x) is int:
        return x
    try:
        n = int(x)
    except OverflowError as e:
        raise ValueError(f"{x} is not an integer") from e
    if Fraction(str(x)) != n:
        raise ValueError(f"{x} is not an integer")
    return n


def from_dict(data: dict) -> HalfspacePolytope:
    try:
        dim = _exact_int(data["dim"])
        normals = tuple(tuple(_exact_int(x) for x in u) for u in data["normals"])
        offsets = tuple(Fraction(str(l)) for l in data["offsets"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError(f"malformed polytope data: {e}") from e
    P = HalfspacePolytope(normals, offsets)
    if P.dim != dim:
        raise ValueError(f"dim field {dim} does not match normals of length {P.dim}")
    return P
