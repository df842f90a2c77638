"""Convex polytopes in halfspace form {x : <x, u_i> >= lambda_i}, exactly.

Normals are primitive integer vectors, offsets are rationals.  Vertex
enumeration, Delzant verification, lattice points and vertex normalization
all run in exact arithmetic; nothing here touches floats.  The denominator
scale q of the offsets and the integers q * lambda_i are one cached
property per polytope, integer_offsets, which the vertex walk and the width
bounds read.  Vertices come from integer pivots on a dictionary of
D U_A^-1 and the facet slacks, as in lrs: the dual simplex method pivots
from the first n independent normals to a feasible basis, or to a row that
proves P empty, and a walk over the lexicographically feasible bases
reaches each by one pivot of its parent's dictionary, so the start's one
elimination is the only one.  The walk perturbs the offsets of the facets
outside its start basis, b_i -> b_i - eps^(i+1), and compares perturbed
slacks only where two ratios tie; the perturbed polytope is simple, so one
facet enters per edge.  On a simple polytope the bases are the vertices and
the pivots its edges, k - 1 for k vertices; a vertex on m > n facets takes
the bases of a triangulation of its vertex figure (m - 2 for n = 3), not
its up to C(m, n) feasible bases, so the cost of a polytope that is not
simple follows its vertices too.  An unbounded edge is reported as the
recession direction.  Each vertex keeps its slacks on every facet, and a
vertex on exactly n facets also its edge directions and their pairings
with every normal, so the walk is the one place a vertex's linear data is
computed: the Delzant test, the one gate of every
command (delzant_vertices), reads D = |det U_A| off the pairings; the
chart of qP at q v, whose normals are v's pairings, whose offsets are
minus v's slacks and whose box is [0, slack_maxima(P, v)], is read off
them with no dilated copy qP and no second polytope; and the width's
axis maxima, the normal fan and its charts read them too, with no
elimination or product of normals of their own.  The
lattice-point count and the volume of a Delzant polytope are vertex sums
over the edge directions (Brion's and Lawrence's formulas), so their cost
follows the vertices, not the volume.  The lattice points themselves come
fibre by fibre, x_n's interval above each prefix x_1..x_{n-1}, from one
walker over integer facet data and an integer box (lattice_fibres) that
drops a partial prefix once a facet is out of reach of the rest of the
box: the embedding walks the chart at a vertex in the box of its slack
maxima, and lattice_points walks P in the integer hull of its vertices.
"""

from __future__ import annotations

import bisect
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
    integer_kernel_basis,
    is_primitive,
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
        # a tuple of int tuples and a tuple of Fractions are kept as given;
        # anything else is converted, and refused unless it is exact
        normals, offsets = self.normals, self.offsets
        if (
            type(normals) is not tuple
            or not all(type(u) is tuple and u for u in normals)
            or {type(x) for u in normals for x in u} != {int}
        ):
            converted = []
            for u in normals:
                v = []
                for x in u:
                    if type(x) is not int:  # not bool, which takes the exact parse
                        f = Fraction(x)
                        if f.denominator != 1:
                            raise ValueError(f"not an integer: {x}")
                        x = f.numerator
                    v.append(x)
                if not v:
                    raise ValueError("empty vector")
                converted.append(tuple(v))
            normals = tuple(converted)
        if type(offsets) is not tuple or {type(l) for l in offsets} - {Fraction}:
            offsets = tuple(map(Fraction, offsets))
        if not offsets:
            raise ValueError("empty vector")
        if len(normals) != len(offsets):
            raise ValueError("need one offset per normal")
        n = len(normals[0])
        if any(len(u) != n for u in normals):
            raise ValueError("normals must share one ambient dimension")
        for u in normals:
            if not is_primitive(u):
                raise ValueError(f"normal {u} is not primitive")
        pairs = zip(normals, (l.numerator for l in offsets), (l.denominator for l in offsets))
        if len(set(pairs)) != len(normals):
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


@dataclass(frozen=True)
class Vertex:
    """A vertex point with the indices of all facets tight there, and the
    walk's dictionary there, so that no consumer multiplies normals with it.

    slacks[i] = q (<u_i, x> - lambda_i), for q = P.integer_offsets[0], is
    S_i / D, ints when D = 1.  On exactly n facets a vertex also keeps
    edges[k], column k of D U_A^-1 for U_A the normals of the facets
    `active` as rows and D = |det U_A|, which leaves facet active[k] and
    stays on the others, and pairings[k][i] = <u_i, edges[k]> = R_ik; on
    more, both are None.  D = pairings[0][active[0]], so a Z-basis of tight
    normals, D = 1, is read off them (_refusal).  None of the three is
    compared.
    """

    point: RationalVector
    active: tuple[int, ...]
    edges: tuple[IntVector, ...] | None = field(default=None, compare=False, repr=False)
    slacks: tuple[int | Fraction, ...] | None = field(default=None, compare=False, repr=False)
    pairings: tuple[IntVector, ...] | None = field(default=None, compare=False, repr=False)


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

    The walk perturbs the offsets of the facets outside its start basis A0,
    b_i -> b_i - eps^(i+1) (Charnes 1952; lrs perturbs relative to its
    start in the same way).  The point moves by -sum eps^(A_k+1) e_k / D
    over the A_k outside A0, so D times the perturbed slack of facet i is
    the vector with S_i at position 0, -R_ik at position A_k + 1 for those
    A_k, and D at position i + 1 when i is outside A0, in powers of eps:
    all of it is in the columns.  A0 is feasible for the perturbed offsets,
    as every facet tight at its point gains D eps^(i+1).
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
    the new column of facet i is sgn(r) e_j, and goes to i's slot in the
    sorted basis.  A column with c_i = 0 is kept as it is when |r| = D, as
    at every step between two unimodular bases.
    """
    basis, D, X, E = dic
    n = len(basis)
    ej = E[j]
    r = ej[n + i]
    a, s = (r, 1) if r > 0 else (-r, -1)
    cols = [X, *E[:j], *E[j + 1 :]]
    for k, c in enumerate(cols):
        t = s * c[n + i]
        if t:
            cols[k] = tuple([(a * x - t * y) // D for x, y in zip(c, ej)])
        elif a != D:
            cols[k] = tuple([a * x // D for x in c])
    rest = basis[:j] + basis[j + 1 :]
    p = bisect.bisect(rest, i)
    cols.insert(p + 1, ej if s > 0 else tuple([-y for y in ej]))
    return _Dictionary((*rest[:p], i, *rest[p:]), a, cols[0], cols[1:])


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
    """Every vertex, by a depth-first search over the lexicographically
    feasible bases from the dictionary `start`.

    At a basis A, the edge e_j leaves A_j and stays on the others.  Along
    x + t e_j the slack S_i of facet i changes by t R_ij, so the next basis
    takes in the i with R_ij < 0 and the least ratio S_i / -R_ij, compared
    by integer cross-multiplication: the dictionary holds both, so no dot
    product is taken.  Only when two ratios tie are the perturbed slacks
    (see _Dictionary) over -R_ij compared, entry by entry over the
    positions A_k + 1 of the A_k outside the start basis, up to the first
    position of the two facets' own, which holds D for one and 0 for the
    other.  Perturbed slacks of two facets are never proportional, so
    exactly one facet enters.  These are the pivots of the perturbed
    polytope P_eps, which is simple: each basis is one of its vertices and
    each pivot one of its edges, so the edge back to the parent, the column
    of the facet that entered, is not ratio-tested.  The graph of P_eps is connected and
    each vertex of P is the limit of one of its vertices, so the search
    lists every vertex of P; at a vertex on m facets it takes the bases of
    a triangulation of the vertex figure (m - 2 for n = 3), not every
    feasible basis.  No i with R_ij < 0 means an unbounded edge: then
    <e_j, u_i> >= 0 for every i, so e_j over the gcd of its entries is
    raised as the recession direction.  Each unseen basis's dictionary is
    one pivot of its parent's, so no elimination is made.

    Each basis's point goes into its vertex when the basis is popped, so
    no dictionary outlives the step that expands it.  Every point keeps its
    slacks S / D.  A point on exactly n facets has one basis, whose edges
    and pairings R it keeps; a point on more is a vertex with its tight
    facets and neither, taken from the first of its bases popped.  The
    vertices are sorted on the integers X L / D, with L the lcm of the D's,
    which order them as the points do.  On a simple polytope every basis
    is a vertex, so k vertices take k - 1 pivots.
    """
    n, d = P.dim, P.num_facets
    q = P.integer_offsets[0]
    fixed = set(start.basis)  # the facets whose offsets are not perturbed
    seen = {start.basis}
    stack = [(start, None)]  # a dictionary, and the column back to its parent
    found = []  # (X[:n], D, vertex) per point
    degenerate = set()  # the tight facets of each point on more than n
    while stack:
        dic, back = stack.pop()
        basis, D, X, E = dic
        S = X[n:]
        active = basis if S.count(0) == n else tuple(i for i, s in enumerate(S) if s == 0)
        if active is basis or active not in degenerate:
            x = X[:n]
            point = tuple(map(Fraction, x)) if D * q == 1 else tuple(Fraction(c, D * q) for c in x)
            slacks = S if D == 1 else tuple(Fraction(s, D) for s in S)
            if active is basis:
                edges, pairings = tuple(e[:n] for e in E), tuple(e[n:] for e in E)
                found.append((x, D, Vertex(point, basis, edges, slacks, pairings)))
            else:
                degenerate.add(active)
                found.append((x, D, Vertex(point, active, slacks=slacks)))
        for j, e in enumerate(E):
            if j == back:
                continue
            R = e[n:]
            best = None
            for i, r in enumerate(R):
                if r >= 0:
                    continue
                # c > 0 iff S[i] / -r < s_best / -r_best
                c = 1 if best is None else S[i] * r_best - s_best * r
                if c == 0:  # a tie: compare the perturbed slacks over -r
                    # up to the first own position, where one of the two has D
                    own = best if best not in fixed else i if i not in fixed else d
                    c = 1 if own == best else -1
                    for a, f in zip(basis, E):
                        if a > own:
                            break
                        if a not in fixed:
                            # > 0 iff R_ia / r < R_best,a / r_best
                            t = f[n + best] * r - f[n + i] * r_best
                            if t:
                                c = t
                                break
                if c > 0:
                    best, s_best, r_best = i, S[i], r
            if best is None:
                g = math.gcd(*e[:n])
                raise UnboundedPolytopeError(f"recession direction {tuple(x // g for x in e[:n])}")
            rest = basis[:j] + basis[j + 1 :]
            p = bisect.bisect(rest, best)
            nxt = (*rest[:p], best, *rest[p:])
            if nxt not in seen:
                seen.add(nxt)
                stack.append((_pivot(dic, best, j), p))
    L = math.lcm(*(D for _, D, _ in found))
    found.sort(key=lambda f: f[0] if f[1] == L else tuple(x * (L // f[1]) for x in f[0]))
    return [v for _, _, v in found]


def enumerate_vertices(P: HalfspacePolytope) -> list[Vertex]:
    """All vertices, deduplicated, sorted lexicographically by point.

    One elimination of the normals as columns picks the first n independent
    ones and gives their dictionary.  From it the dual simplex method
    reaches a feasible basis, or a Farkas row that proves P empty; the walk
    perturbs the offsets of the other facets only, so that basis is
    lexicographically feasible as it is.  An edge walk from it lists every
    vertex by pivots, one per basis of the perturbed polytope, and raises
    on the first unbounded edge it meets; a walk that meets none proves P
    bounded.  On a simple polytope that is one elimination and k - 1
    pivots for k vertices; a vertex on m > n facets adds the bases of a
    triangulation of its vertex figure, not the up to C(m, n) feasible
    bases there.
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


def _refusal(v: Vertex, n: int) -> str | None:
    """Why v is not a Delzant vertex, or None when it lies on exactly n facets
    whose normals form a Z-basis: D = <u_{A_0}, w_0> = 1, off its pairings."""
    if len(v.active) != n:
        return f"vertex {format_point(v.point)} lies on {len(v.active)} facets"
    if v.pairings[0][v.active[0]] != 1:
        return f"normals at {format_point(v.point)} do not form a Z-basis"
    return None


def is_delzant(P: HalfspacePolytope) -> bool:
    """Every vertex lies on exactly n facets whose normals form a Z-basis:
    delzant_vertices's test as a flag, read off the walk with no elimination."""
    return not any(_refusal(v, P.dim) for v in P.vertices)


def delzant_vertices(P: HalfspacePolytope) -> tuple[Vertex, ...]:
    """P.vertices, unless one fails the Delzant test: then NotDelzantError
    gives the refusal of the first that fails, in lexicographic order."""
    for v in P.vertices:
        if why := _refusal(v, P.dim):
            raise NotDelzantError(why)
    return P.vertices


def slack_maxima(P: HalfspacePolytope, v: Vertex) -> tuple[int | Fraction, ...]:
    """For each facet a through v, the largest slack w.slacks[a] over the
    vertices w of P: q times P's extent along the chart's axis a at v, for
    q = P.integer_offsets[0].  The cylinder bound divides them by q, and the
    chart at v (vertex_chart) is walked in the box they bound."""
    return tuple(max(w.slacks[a] for w in P.vertices) for a in v.active)


def vertex_chart(P: HalfspacePolytope, v: Vertex) -> tuple:
    """The chart of qP at q v, as lattice_fibres takes it: the columns
    v.pairings, the offsets minus v's slacks, and the box
    [0, floor(slack_maxima(P, v))], which holds the chart's vertices, the
    slacks of P's vertices on v's facets.  Refuses v unless it is Delzant."""
    if why := _refusal(v, P.dim):
        raise NotDelzantError(why)
    hi = tuple(map(math.floor, slack_maxima(P, v)))
    return v.pairings, tuple(-s for s in v.slacks), (0,) * P.dim, hi


def lattice_fibres(
    columns: Sequence[IntVector], offsets: IntVector, lo: IntVector, hi: IntVector
) -> list[tuple[IntVector, int, int]]:
    """The integer points x of the box lo <= x <= hi with <x, w_i> >= p_i for
    every facet i, as fibres (prefix, a, b), in lexicographic order: [a, b]
    is the integer interval of x_n above each integer prefix x_1..x_{n-1}
    with a point above it.  columns[j][i] = w_ij and offsets[i] = p_i are
    integers, and the box must cover every point.

    A depth-first walk sets x_1, x_2, ... in increasing order and carries the
    residuals r_i = p_i - sum_{k <= j} w_ik x_k, one multiply-subtract per
    facet a step.  x_j runs over the interval, by integer ceiling and floor
    divisions, where no r_i exceeds reach[j][i], the largest sum_{k > j}
    w_ik x_k on the box; no other prefix has a point above it.  At x_n the
    reach is 0 and the interval is the fibre.  So the cost is the prefixes
    visited times the facets, not the box; on a simplex at a vertex every
    visited prefix has a point above it.  Exact in Python integers.

    The commands walk only the chart of qP at a vertex (sections_by_polytope),
    which lies in the nonnegative orthant with a vertex at 0.  On a polytope
    long and thin across x_1..x_{n-1} the relaxation by the box is loose: the
    (1, 2^e) parallelogram as given, with normals (1, 2^e), (0, 1) and their
    negatives, has 4 points, but its cost follows the 2^e prefixes of its
    box; at a vertex it is the unit square.
    """
    n = len(lo)
    reach = [(0,) * len(offsets)]
    for j in range(n - 1, 0, -1):
        reach.insert(0, tuple(t + max(c * lo[j], c * hi[j]) for t, c in zip(reach[0], columns[j])))
    fibres = []

    def walk(j, prefix, r):
        a, b = lo[j], hi[j]
        for ri, c, t in zip(r, columns[j], reach[j]):  # c x_j >= r_i - t
            if c > 0:
                a = max(a, -((t - ri) // c))
            elif c < 0:
                b = min(b, (ri - t) // c)
        if a > b:
            return
        if j < n - 2:
            for x in range(a, b + 1):
                walk(j + 1, (*prefix, x), [ri - c * x for ri, c in zip(r, columns[j])])
        elif j == n - 1:  # n = 1
            fibres.append((prefix, a, b))
        else:  # the fibres: c x_n >= r_i - d x_{n-1}
            low = [(ri, d, c) for ri, d, c in zip(r, columns[j], columns[-1]) if c > 0]
            up = [(ri, d, c) for ri, d, c in zip(r, columns[j], columns[-1]) if c < 0]
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

    walk(0, (), offsets)
    return fibres


def lattice_points(P: HalfspacePolytope) -> list[IntVector]:
    """All integer points of P, sorted lexicographically: the lattice_fibres
    of P's own box, the integer hull of its vertices, with facet i scaled to
    <x, q_i u_i> >= p_i for lambda_i = p_i / q_i, expanded in order, so no
    point of the box is tested alone.  No command calls it; the benchmark's
    tracer binds it by name."""
    coords = list(zip(*(v.point for v in P.vertices)))
    lo = tuple(math.ceil(min(c)) for c in coords)
    hi = tuple(math.floor(max(c)) for c in coords)
    columns = list(zip(*([l.denominator * c for c in u] for u, l in zip(P.normals, P.offsets))))
    fibres = lattice_fibres(columns, [l.numerator for l in P.offsets], lo, hi)
    # one shared int per value of x_n, as in the tuples product() made for the
    # box scan; a fresh int per point costs 28 bytes more (11 MiB at N = 486,016)
    xs = tuple(range(lo[-1], hi[-1] + 1))
    return [(*prefix, x) for prefix, a, b in fibres for x in xs[a - lo[-1] : b - lo[-1] + 1]]


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
    NotDelzantError, through delzant_vertices, unless P is Delzant.
    """
    n = P.dim
    q, b = P.integer_offsets
    vertices = delzant_vertices(P)
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

    Read off the walk's dictionary, with no elimination and no product:
    the image normal U_A^-T u_i is (<u_i, w_k>)_k for the columns w_k of
    U_A^-1, column i of v's pairings, and the image offset is minus v's
    slack on facet i.  A vertex x of P maps to its slacks on A, and its
    edges, if it has them, to its pairings on A; it keeps its tight facets,
    slacks and pairings, which the map leaves as they are.  No dilated copy
    of P is built.

    The normals and offsets are vertex_chart's, which no command turns into
    a polytope: sections_by_polytope walks vertex_chart itself.  The tests
    compare the two, and the benchmark's tracer binds this by name.
    """
    columns, offsets, _, _ = vertex_chart(P, v)
    Q = HalfspacePolytope(tuple(zip(*columns)), offsets)

    def image(x: Vertex) -> Vertex:
        point = tuple(x.slacks[a] for a in v.active)
        if x.pairings is None:  # on more than n facets
            return Vertex(point, x.active, slacks=x.slacks)
        edges = tuple(tuple(r[a] for a in v.active) for r in x.pairings)
        return Vertex(point, x.active, edges, x.slacks, x.pairings)

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
