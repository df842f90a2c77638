"""Rational fans given by primitive generators and maximal cone index sets.

Smoothness and (for surfaces) completeness are decided exactly.  Piecewise
linear support functions live here too, together with the strict convexity
test used to certify very ample classes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import (
    IntVector,
    dot,
    int_vector,
    is_primitive,
    is_z_basis,
    matrix_from_columns,
    matrix_rank,
    solve_rational,
)
from .polytope import HalfspacePolytope, NotDelzantError, format_point

COMPLETE = "complete"
INCOMPLETE = "incomplete"
UNVERIFIED = "unverified"


@dataclass(frozen=True)
class Fan:
    """Generators plus maximal cones; cones are sorted index tuples.

    from_polytope marks normal fans, which are complete by construction.
    """

    generators: tuple[IntVector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    from_polytope: bool = False

    def __post_init__(self):
        gens = tuple(int_vector(u) for u in self.generators)
        n = len(gens[0])
        if any(len(u) != n for u in gens):
            raise ValueError("generators must share one ambient dimension")
        for u in gens:
            if not is_primitive(u):
                raise ValueError(f"generator {u} is not primitive")
        cones = tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        if not cones:
            raise ValueError("need at least one maximal cone")
        if len(set(cones)) != len(cones):
            raise ValueError("duplicate maximal cone")
        for c in cones:
            if len(set(c)) != len(c):
                raise ValueError(f"repeated generator index in cone {c}")
            if not all(0 <= i < len(gens) for i in c):
                raise ValueError(f"generator index out of range in cone {c}")
            rows = [gens[i] for i in c]
            if matrix_rank(rows) != len(c):
                raise ValueError(f"cone {c} has dependent generators")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "max_cones", cones)
        if n == 2:
            _check_pairwise_faces(gens, cones)

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def _cone_coords(gens: Sequence[IntVector], cone: Sequence[int], w: Sequence):
    """Coordinates of w in the cone's generator basis, or None if not full."""
    cols = [gens[i] for i in cone]
    if len(cols) != len(w):
        return None
    return solve_rational(matrix_from_columns(cols), w)


def cone_contains(gens: Sequence[IntVector], cone: Sequence[int], w: Sequence) -> bool:
    c = _cone_coords(gens, cone, w)
    return c is not None and all(x >= 0 for x in c)


def _parallel(u: Sequence, v: Sequence) -> bool:
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


def _check_pairwise_faces(gens, cones):
    """Two-dimensional cones must meet in {0} or in a shared boundary ray."""
    for a, b in itertools.combinations(cones, 2):
        rays = []
        for i in a:
            if cone_contains(gens, b, gens[i]):
                rays.append(gens[i])
        for i in b:
            if cone_contains(gens, a, gens[i]):
                rays.append(gens[i])
        distinct = []
        for r in rays:
            if not any(_parallel(r, s) for s in distinct):
                distinct.append(r)
        if len(distinct) > 1:
            raise ValueError(f"cones {a} and {b} overlap in dimension 2")
        if len(distinct) == 1:
            r = distinct[0]
            face_of_a = any(_parallel(r, gens[i]) for i in a)
            face_of_b = any(_parallel(r, gens[i]) for i in b)
            if not (face_of_a and face_of_b):
                raise ValueError(f"cones {a} and {b} do not meet in a common face")


def is_smooth(F: Fan) -> bool:
    """Every maximal cone's generators form a Z-basis."""
    n = F.dim
    for c in F.max_cones:
        if len(c) != n:
            raise ValueError(f"maximal cone {c} does not have {n} generators")
        if not is_z_basis([F.generators[i] for i in c]):
            return False
    return True


def completeness(F: Fan) -> str:
    """COMPLETE / INCOMPLETE exactly for n <= 2; UNVERIFIED otherwise.

    Normal fans of bounded polytopes are complete by construction, so the
    from_polytope flag settles the n >= 3 case.
    """
    n = F.dim
    if n == 1:
        signs = set()
        for c in F.max_cones:
            for i in c:
                signs.add(1 if F.generators[i][0] > 0 else -1)
        return COMPLETE if signs == {1, -1} else INCOMPLETE
    if n == 2:
        return _completeness_2d(F)
    return COMPLETE if F.from_polytope else UNVERIFIED


def _half_plane(u) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2pi)
    x, y = u
    return 0 if y > 0 or (y == 0 and x > 0) else 1


def _completeness_2d(F: Fan) -> str:
    # Complete iff the rays, in angular order, bound consecutive max cones
    # with positive turning at each step.
    used = sorted({i for c in F.max_cones for i in c})

    def angle_cmp(i, j):
        u, v = F.generators[i], F.generators[j]
        hu, hv = _half_plane(u), _half_plane(v)
        if hu != hv:
            return hu - hv
        cross = u[0] * v[1] - u[1] * v[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    order = sorted(used, key=functools.cmp_to_key(angle_cmp))
    m = len(order)
    if m < 3:
        return INCOMPLETE
    cone_set = {c for c in F.max_cones}
    for k in range(m):
        i, j = order[k], order[(k + 1) % m]
        u, v = F.generators[i], F.generators[j]
        cross = u[0] * v[1] - u[1] * v[0]
        if cross <= 0:
            return INCOMPLETE
        if tuple(sorted((i, j))) not in cone_set:
            return INCOMPLETE
    if len(cone_set) != m:
        return INCOMPLETE
    return COMPLETE


def is_complete(F: Fan) -> bool:
    status = completeness(F)
    if status == UNVERIFIED:
        raise ValueError("completeness cannot be decided for this fan")
    return status == COMPLETE


def normal_fan(P: HalfspacePolytope) -> Fan:
    """Fan on the facet normals whose maximal cones are the vertex normal cones.

    Requires every vertex to be simple (exactly n tight facets); smoothness is
    not required, so is_smooth(normal_fan(P)) reports exactly is_delzant(P).
    """
    n = P.dim
    cones = []
    for v in P.vertices:
        if len(v.active) != n:
            raise NotDelzantError(
                f"vertex {format_point(v.point)} lies on {len(v.active)} facets; fan undefined"
            )
        cones.append(v.active)
    return Fan(P.normals, tuple(cones), from_polytope=True)


@dataclass(frozen=True)
class SupportFunction:
    """Integer values g(u_i) on the generators, linear on each maximal cone."""

    values: tuple[int, ...]


def support_function(P: HalfspacePolytope) -> SupportFunction:
    """g(u_i) = lambda_i; defined for integral offsets only."""
    if any(l.denominator != 1 for l in P.offsets):
        raise ValueError("offsets must be integral; clear denominators first")
    return SupportFunction(tuple(int(l) for l in P.offsets))


def polytope_from_support(F: Fan, g: SupportFunction) -> HalfspacePolytope:
    """The polytope {x : <x, u_i> >= g(u_i)} cut out by the fan's generators."""
    if len(g.values) != len(F.generators):
        raise ValueError("need one support value per generator")
    return HalfspacePolytope(F.generators, tuple(Fraction(v) for v in g.values))


def cone_linear_parts(F: Fan, g: SupportFunction) -> dict[tuple[int, ...], tuple]:
    """Per maximal cone sigma, the vector h with <h, u_i> = g(u_i) on sigma."""
    if len(g.values) != len(F.generators):
        raise ValueError("need one support value per generator")
    out = {}
    for c in F.max_cones:
        rows = [F.generators[i] for i in c]
        h = solve_rational(rows, [g.values[i] for i in c])
        out[c] = h
    return out


def evaluate_support(F: Fan, g: SupportFunction, w: Sequence) -> Fraction:
    """Value of the piecewise linear extension of g at w."""
    return _evaluate(F, cone_linear_parts(F, g), w)


def _evaluate(F: Fan, parts: dict[tuple[int, ...], tuple], w: Sequence) -> Fraction:
    for c in F.max_cones:
        if cone_contains(F.generators, c, w):
            return Fraction(dot(parts[c], w))
    raise ValueError(f"{w} lies in no maximal cone; fan not complete?")


def is_strictly_convex(F: Fan, g: SupportFunction) -> bool:
    """Strict convexity of g on a smooth complete fan.

    Checks (a) g(v1 + v2) >= g(v1) + g(v2) for generators of adjacent maximal
    cones, strictly when v1, v2 span a wall crossing, and (b) the per-cone
    linear parts are pairwise distinct.
    """
    if not is_smooth(F):
        raise ValueError("fan must be smooth")
    if completeness(F) != COMPLETE:
        raise ValueError("fan must be complete")
    parts = cone_linear_parts(F, g)
    hs = list(parts.values())
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            if hs[i] == hs[j]:
                return False
    n = F.dim
    for a, b in itertools.combinations(F.max_cones, 2):
        if len(set(a) & set(b)) != n - 1:
            continue
        for i in a:
            for j in b:
                if i == j:
                    continue
                w = tuple(x + y for x, y in zip(F.generators[i], F.generators[j]))
                lhs = _evaluate(F, parts, w)
                rhs = g.values[i] + g.values[j]
                if lhs < rhs:
                    return False
                # equality is allowed only when some cone contains both rays
                share = any(i in c and j in c for c in F.max_cones)
                if lhs == rhs and not share:
                    return False
    return True
