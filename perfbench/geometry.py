"""Exact plane-polygon arithmetic for the benchmark's generator and oracles.

Deliberately independent of toricwidth: the output checks compare the
program against this code, so it shares no function with it.  A polygon is
given by primitive integer normals u_i and integer offsets l_i and means
{x : <x, u_i> >= l_i}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def _dot(u, x):
    return u[0] * x[0] + u[1] * x[1]


def _contains(normals, offsets, x) -> bool:
    return all(_dot(u, x) >= l for u, l in zip(normals, offsets))


def polygon_vertices(normals, offsets) -> list[tuple[tuple, tuple[int, ...]]]:
    """(point, tight facet indices) for every vertex, sorted by point.

    Intersects every pair of facet lines by Cramer's rule and keeps the
    feasible intersections.
    """
    found: dict[tuple, set[int]] = {}
    for i, j in combinations(range(len(normals)), 2):
        (a, b), (c, d) = normals[i], normals[j]
        det = a * d - b * c
        if det == 0:
            continue
        li, lj = offsets[i], offsets[j]
        x = (Fraction(li * d - b * lj, det), Fraction(a * lj - c * li, det))
        if _contains(normals, offsets, x):
            found.setdefault(x, set()).update((i, j))
    return [(x, tuple(sorted(found[x]))) for x in sorted(found)]


def edge_length(vertices, v, facet: int) -> int:
    """Lattice length of the edge on `facet` that starts at vertex v."""
    point = v[0]
    other = next(w[0] for w in vertices if w[0] != point and facet in w[1])
    return math.gcd(*(int(p - q) for p, q in zip(point, other)))


def lattice_points(normals, offsets) -> list[tuple[int, int]]:
    """Integer points of the polygon by a scan of its bounding box."""
    pts = [v[0] for v in polygon_vertices(normals, offsets)]
    box = [
        range(math.ceil(min(p[k] for p in pts)), math.floor(max(p[k] for p in pts)) + 1)
        for k in range(2)
    ]
    return [(x, y) for x in box[0] for y in box[1] if _contains(normals, offsets, (x, y))]


def normalized_coordinates(normals, offsets, active):
    """The map x -> (<x, u_a> - l_a, <x, u_b> - l_b) for the facets a < b
    tight at a vertex; it sends that vertex to the origin."""
    a, b = active

    def f(x):
        return (_dot(normals[a], x) - offsets[a], _dot(normals[b], x) - offsets[b])

    return f


def sections_by_box_scan(normals, offsets, active) -> list[tuple[int, int]]:
    """Lattice points of the polygon normalised at the vertex with the given
    tight facets: scan the box [0, max] in normalised coordinates and pull
    each point back through the inverse of the (unimodular) map."""
    f = normalized_coordinates(normals, offsets, active)
    image = [f(v[0]) for v in polygon_vertices(normals, offsets)]
    (a, b), (c, d) = normals[active[0]], normals[active[1]]
    det = a * d - b * c
    la, lb = offsets[active[0]], offsets[active[1]]
    found = []
    for y0 in range(0, int(max(p[0] for p in image)) + 1):
        for y1 in range(0, int(max(p[1] for p in image)) + 1):
            r0, r1 = y0 + la, y1 + lb
            x = (Fraction(r0 * d - b * r1, det), Fraction(a * r1 - c * r0, det))
            if _contains(normals, offsets, x):
                found.append((y0, y1))
    return found


def monotone(normals, offsets) -> bool:
    """Whether <m, u_i> - c = -l_i has a solution (m, c) for every i.

    A Delzant polygon all of whose facets sit at one distance from a point m
    is a dilate of a reflexive polygon, the monotone case.
    """
    rows = [(u[0], u[1], -1, -l) for u, l in zip(normals, offsets)]
    for r1, r2, r3 in combinations(rows, 3):
        M = [r[:3] for r in (r1, r2, r3)]
        det = _det3(M)
        if det == 0:
            continue
        rhs = [r[3] for r in (r1, r2, r3)]
        sol = []
        for k in range(3):
            Mk = [list(row) for row in M]
            for i in range(3):
                Mk[i][k] = rhs[i]
            sol.append(Fraction(_det3(Mk), det))
        return all(r[0] * sol[0] + r[1] * sol[1] + r[2] * sol[2] == r[3] for r in rows)
    return False


def _det3(M) -> int:
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )
