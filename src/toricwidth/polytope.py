"""Convex polytopes in halfspace form {x : <x, u_i> >= lambda_i}, exactly.

Normals are primitive integer vectors, offsets are rationals.  Vertex
enumeration, Delzant verification, lattice points and vertex normalization
all run in exact arithmetic; nothing here touches floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .lattice import (
    IntMatrix,
    IntVector,
    RationalVector,
    det,
    dot,
    int_vector,
    integer_kernel_basis,
    inverse_unimodular,
    is_primitive,
    is_z_basis,
    mat_vec,
    matrix_rank,
    rational_vector,
    solve_rational,
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
        if abs(det(M)) != 1:
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


def enumerate_vertices(P: HalfspacePolytope) -> list[Vertex]:
    """All vertices, deduplicated, sorted lexicographically by point.

    Solves every n-subset of facet equalities exactly and keeps the feasible
    solutions.  Raises for unbounded or empty input.
    """
    n = P.dim
    r = recession_direction(P)
    if r is not None:
        raise UnboundedPolytopeError(f"recession direction {r}")
    found: dict[RationalVector, set[int]] = {}
    for idx in combinations(range(P.num_facets), n):
        M = [P.normals[i] for i in idx]
        b = [P.offsets[i] for i in idx]
        x = solve_rational(M, b)
        if x is None or not P.contains(x):
            continue
        if x not in found:
            found[x] = {
                i
                for i in range(P.num_facets)
                if dot(x, P.normals[i]) == P.offsets[i]
            }
    if not found:
        raise EmptyPolytopeError("no feasible vertex")
    return [Vertex(pt, tuple(sorted(found[pt]))) for pt in sorted(found)]


@dataclass(frozen=True)
class DelzantCheck:
    vertex: Vertex
    simple: bool
    unimodular: bool

    @property
    def ok(self) -> bool:
        return self.simple and self.unimodular


def delzant_certificate(P: HalfspacePolytope) -> list[DelzantCheck]:
    """Per-vertex record: exactly n tight facets whose normals form a Z-basis."""
    n = P.dim
    checks = []
    for v in P.vertices:
        simple = len(v.active) == n
        unimodular = simple and is_z_basis([P.normals[i] for i in v.active])
        checks.append(DelzantCheck(v, simple, unimodular))
    return checks


def is_delzant(P: HalfspacePolytope) -> bool:
    return all(c.ok for c in delzant_certificate(P))


def bounding_box(P: HalfspacePolytope) -> tuple[IntVector, IntVector]:
    """Componentwise integer bounds covering the polytope: (lo, hi)."""
    pts = [v.point for v in P.vertices]
    lo = tuple(math.ceil(min(p[i] for p in pts)) for i in range(P.dim))
    hi = tuple(math.floor(max(p[i] for p in pts)) for i in range(P.dim))
    return lo, hi


def lattice_points(P: HalfspacePolytope) -> list[IntVector]:
    """All integer points of P, sorted lexicographically."""
    lo, hi = bounding_box(P)
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [x for x in product(*ranges) if P.contains(x)]


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


def from_dict(data: dict) -> HalfspacePolytope:
    try:
        dim = int(data["dim"])
        normals = tuple(tuple(int(x) for x in u) for u in data["normals"])
        offsets = tuple(Fraction(str(l)) for l in data["offsets"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ValueError(f"malformed polytope data: {e}") from e
    P = HalfspacePolytope(normals, offsets)
    if P.dim != dim:
        raise ValueError(f"dim field {dim} does not match normals of length {P.dim}")
    return P
