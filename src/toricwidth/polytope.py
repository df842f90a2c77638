"""Convex polytopes in halfspace form {x : <x, u_i> >= lambda_i}, exactly.

Normals are primitive integer vectors, offsets are rationals.  Vertex
enumeration, Delzant verification, lattice points and vertex normalization
all run in exact arithmetic; nothing here touches floats.  Vertices come
from a walk along the edges of a simple polytope, one integer elimination
per vertex, started at the first feasible n-subset of facets; a polytope
that is not simple, or an input that is empty or unbounded, is handed to
the scan of every n-subset instead.  Lattice points
come fibre by fibre: for each integer prefix x_1..x_{n-1} of the bounding
box, the integer interval of x_n, with ends from integer ceiling and floor
divisions, one facet at a time.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .lattice import (
    IntMatrix,
    IntVector,
    RationalVector,
    dot,
    fraction_free_solve,
    int_vector,
    integer_kernel_basis,
    inverse_unimodular,
    is_primitive,
    is_z_basis,
    mat_vec,
    matrix_rank,
    rational_vector,
    transpose,
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

    def contains(self, x: Sequence) -> bool:
        return all(dot(x, u) >= l for u, l in zip(self.normals, self.offsets))

    @functools.cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """enumerate_vertices(self), computed at most once per polytope object.

        scale and apply_lattice_map hand their image the mapped list once
        this one is known, so derived polytopes do not enumerate again.
        """
        return tuple(enumerate_vertices(self))


@dataclass(frozen=True)
class Vertex:
    """A vertex point together with the indices of all facets tight there."""

    point: RationalVector
    active: tuple[int, ...]


def format_point(x: Sequence) -> str:
    """A point for messages, as (0, 1/2) rather than the reprs of its Fractions."""
    return "(" + ", ".join(str(c) for c in x) + ")"


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
        if not is_z_basis(M):
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


def recession_direction(P: HalfspacePolytope) -> IntVector | None:
    """A nonzero integer direction r with <r, u_i> >= 0 for all i, if one exists.

    The recession cone is {0} iff the normals positively span R^n.  A nonzero
    recession cone either contains a line (normals do not span R^n) or has an
    extreme ray cut out by n-1 linearly independent normals.
    """
    n = P.dim
    if matrix_rank(P.normals) < n:
        rows = []
        for u in P.normals:
            if matrix_rank(rows + [u]) > len(rows):
                rows.append(u)
        return integer_kernel_basis(rows)[0]
    if n == 1:
        candidates = [(1,), (-1,)]
    else:
        candidates = []
        for idx in combinations(range(P.num_facets), n - 1):
            rows = [P.normals[i] for i in idx]
            if matrix_rank(rows) != n - 1:
                continue
            candidates.extend(integer_kernel_basis(rows))
    for r in candidates:
        for s in (r, tuple(-x for x in r)):
            if all(dot(s, u) >= 0 for u in P.normals):
                return s
    return None


def _feasible_bases(P: HalfspacePolytope, q: int, b: Sequence[int]):
    """(basis, point, tight facets) for every n-subset of facets, in
    combinations order, whose equalities meet in one point of P.

    b holds the offsets times q = offset_denominator_scale(P), so each subset
    is one integer elimination and feasibility is an integer sign test.
    """
    for basis in combinations(range(P.num_facets), P.dim):
        solved = fraction_free_solve([P.normals[i] for i in basis], [(b[i],) for i in basis])
        if solved is None:
            continue
        D, Y = solved
        X = [y for y, in Y]
        slack = [sum(map(operator.mul, u, X)) - D * bi for u, bi in zip(P.normals, b)]
        if min(slack) >= 0:
            point = tuple(Fraction(x, D * q) for x in X)
            yield basis, point, tuple(i for i, s in enumerate(slack) if s == 0)


def _edge_walk(
    P: HalfspacePolytope, q: int, b: Sequence[int], start: tuple[int, ...]
) -> list[Vertex] | None:
    """Every vertex, by a depth-first search of the edge graph from the
    simple vertex on the facets `start`; None when an edge is unbounded or a
    ratio test ties.

    At a vertex x on the n facets A, with U_A their normals as rows, one
    elimination of [U_A | b_A | I] gives D q x and D U_A^-1.  Column j of the
    latter is an edge direction e_j that leaves the j-th facet of A and stays
    on the others.  Along x + t e_j the scaled slack D (q <x, u_i> - b_i) of
    facet i changes by t D q <e_j, u_i>, so the neighbour's new facet is the
    i with <e_j, u_i> < 0 and the least ratio slack_i / -<e_j, u_i>,
    compared by integer cross-multiplication.  No such i means an unbounded
    edge.  A unique least ratio keeps the neighbour simple, so every visited
    vertex is simple and its tight facets are its basis.
    """
    n, d = P.dim, P.num_facets
    U = P.normals
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = {start}
    stack = [start]
    vertices = []
    while stack:
        basis = stack.pop()
        D, Y = fraction_free_solve(
            [U[i] for i in basis], [(b[i], *identity[k]) for k, i in enumerate(basis)]
        )
        X, *edges = zip(*Y)
        vertices.append(Vertex(tuple(Fraction(x, D * q) for x in X), basis))
        others = [i for i in range(d) if i not in basis]
        slack = {i: sum(map(operator.mul, U[i], X)) - D * b[i] for i in others}
        for j, e in enumerate(edges):
            best, tie = None, False
            for i in others:
                r = sum(map(operator.mul, U[i], e))
                if r >= 0:
                    continue
                # c > 0 iff slack[i] / -r < s_best / -r_best
                c = 1 if best is None else slack[i] * r_best - s_best * r
                if c > 0:
                    best, s_best, r_best, tie = i, slack[i], r, False
                elif c == 0:
                    tie = True
            if best is None or tie:
                return None
            nxt = tuple(sorted(basis[:j] + basis[j + 1 :] + (best,)))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return sorted(vertices, key=lambda v: v.point)


def enumerate_vertices(P: HalfspacePolytope) -> list[Vertex]:
    """All vertices, deduplicated, sorted lexicographically by point.

    The start is the first n-subset of facets, in combinations order, whose
    equalities meet in a point of P.  If that vertex is simple, an edge walk
    from it lists every vertex with one integer elimination each; a walk that
    meets no unbounded edge also proves P bounded.  When there is no start
    (P is empty or contains a line), an edge is unbounded, or P is not simple,
    the subset scan runs to its end instead: after recession_direction rules
    out an unbounded P, it keeps the feasible solutions of every n-subset.
    Raises for unbounded or empty input.
    """
    q = offset_denominator_scale(P)
    b = [l.numerator * (q // l.denominator) for l in P.offsets]
    scan = _feasible_bases(P, q, b)
    found: dict[RationalVector, tuple[int, ...]] = {}
    start = next(scan, None)
    if start is not None:
        basis, point, tight = start
        if len(tight) == P.dim:
            walked = _edge_walk(P, q, b, basis)
            if walked is not None:
                return walked
        found[point] = tight
    r = recession_direction(P)
    if r is not None:
        raise UnboundedPolytopeError(f"recession direction {r}")
    for _, point, tight in scan:
        found.setdefault(point, tight)
    if not found:
        raise EmptyPolytopeError("no feasible vertex")
    return [Vertex(pt, found[pt]) for pt in sorted(found)]


def is_delzant(P: HalfspacePolytope) -> bool:
    """Every vertex has exactly n tight facets whose normals form a Z-basis."""
    return all(
        len(v.active) == P.dim and is_z_basis([P.normals[i] for i in v.active])
        for v in P.vertices
    )


def bounding_box(P: HalfspacePolytope) -> tuple[IntVector, IntVector]:
    """Componentwise integer bounds covering the polytope: (lo, hi)."""
    pts = [v.point for v in P.vertices]
    lo = tuple(math.ceil(min(p[i] for p in pts)) for i in range(P.dim))
    hi = tuple(math.floor(max(p[i] for p in pts)) for i in range(P.dim))
    return lo, hi


def lattice_fibres(P: HalfspacePolytope) -> list[tuple[IntVector, int, int]]:
    """The integer points of P as fibres (prefix, a, b), in lexicographic order.

    For each integer prefix x_1..x_{n-1} in the bounding box of the first
    n - 1 coordinates with a point of P above it, [a, b] is the integer
    interval of x_n.  A facet <x, u> >= p/q reads q c x_n >= p - q s with
    c = u_n and s = <prefix, u'>: c > 0 raises a by a ceiling division,
    c < 0 lowers b by a floor division, c = 0 keeps or drops the prefix.
    Python integers only, so the ends are exact at any offset size.
    """
    lo, hi = bounding_box(P)
    facets = [(u[:-1], u[-1], l.numerator, l.denominator) for u, l in zip(P.normals, P.offsets)]
    fibres = []
    for prefix in product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        a, b = lo[-1], hi[-1]
        for head, c, p, q in facets:
            r = p - q * dot(prefix, head)
            if c > 0:
                a = max(a, -(-r // (q * c)))
            elif c < 0:
                b = min(b, r // (q * c))
            elif r > 0:
                break
            if a > b:
                break
        else:
            fibres.append((prefix, a, b))
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


def _with_mapped_vertices(Q: HalfspacePolytope, P: HalfspacePolytope, f) -> HalfspacePolytope:
    """Give Q = f(P) the images of P's vertices, if P already knows them.

    f must be an affine bijection that keeps the facet order, so each image
    vertex has the same tight facets; only the lexicographic order can change.
    """
    if "vertices" in vars(P):
        images = (Vertex(f(v.point), v.active) for v in P.vertices)
        vars(Q)["vertices"] = tuple(sorted(images, key=lambda v: v.point))
    return Q


def apply_lattice_map(P: HalfspacePolytope, f: AffineLatticeMap) -> HalfspacePolytope:
    """Image polytope: normals become M^-T u, offsets pick up <t, u'>."""
    Minv = inverse_unimodular(f.matrix)
    new_normals = []
    new_offsets = []
    for u, l in zip(P.normals, P.offsets):
        u2 = mat_vec(transpose(Minv), u)
        new_normals.append(u2)
        new_offsets.append(l + dot(f.translation, u2))
    return _with_mapped_vertices(
        HalfspacePolytope(tuple(new_normals), tuple(new_offsets)), P, f.apply
    )


def normalize_at_vertex(
    P: HalfspacePolytope, v: Vertex
) -> tuple[AffineLatticeMap, HalfspacePolytope]:
    """Move a Delzant vertex to the origin with its facets on the axes.

    With U the matrix whose columns are the active normals (ascending facet
    index), the map is x -> U^T x - g where g_k is the offset of the k-th
    active facet.  Afterwards facet k reads <x, e_k> >= 0, so the polytope
    sits in the nonnegative orthant with v at the origin.
    """
    n = P.dim
    if len(v.active) != n:
        raise NotDelzantError(f"vertex {format_point(v.point)} lies on {len(v.active)} facets")
    cols = [P.normals[i] for i in v.active]
    if not is_z_basis(cols):
        raise NotDelzantError(f"normals at {format_point(v.point)} do not form a Z-basis")
    Ut = tuple(cols)  # rows of U^T are the active normals
    g = tuple(-P.offsets[i] for i in v.active)
    f = AffineLatticeMap(Ut, g)
    return f, apply_lattice_map(P, f)


def scale(P: HalfspacePolytope, c) -> HalfspacePolytope:
    """Dilate by c > 0: same normals, offsets multiplied by c."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return _with_mapped_vertices(
        HalfspacePolytope(P.normals, tuple(c * l for l in P.offsets)),
        P,
        lambda x: tuple(c * a for a in x),
    )


def offset_denominator_scale(P: HalfspacePolytope) -> int:
    """Smallest q >= 1 such that q * offsets are integers."""
    return math.lcm(*(l.denominator for l in P.offsets))


def clear_denominators(P: HalfspacePolytope) -> tuple[int, HalfspacePolytope]:
    """(q, qP) with q = offset_denominator_scale(P); qP is P itself when q = 1."""
    q = offset_denominator_scale(P)
    return q, scale(P, q) if q != 1 else P


def to_dict(P: HalfspacePolytope) -> dict:
    return {
        "dim": P.dim,
        "normals": [list(u) for u in P.normals],
        "offsets": [str(l) for l in P.offsets],
    }


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
