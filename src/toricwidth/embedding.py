"""The monomial basis of sections and the induced projective embedding.

Fixing a vertex v of a Delzant polytope P, the invariant sections restricted
to the dense chart of v are the monomials xi^J for J a lattice point of qP
normalized at q v, with q the lcm of the offsets' denominators (q = 1 for
an integral P): moved to the origin with its facets on the coordinate
hyperplanes, so every J lies in Z^n_{>=0}.

vertex_chart reads that chart off the vertex walk, with no polytope built
for it: facet i's coefficients are column i of v.pairings, its offset is
-v.slacks[i], and the box is [0, h], h_k the largest slack of the k-th
facet through v over P's vertices, which the cylinder bound divides by q.

An embedding holds these exponents as the fibres (prefix, a, b) that
lattice_fibres walks in that box: the exponents (*prefix, x) for
a <= x <= b, in strictly increasing prefix order.  So they are distinct
and sorted lexicographically without being listed, and the checks run once
per fibre, not once per point.  lattice_fibres walks the coordinates with
one residual per facet and drops a partial prefix once a residual is out of
reach of the rest of the box, so it costs the prefixes visited times the
facets; on the chart of a simplex every prefix it visits has a point above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .lattice import IntVector
from .polytope import HalfspacePolytope, Vertex, lattice_fibres, vertex_chart

Fibre = tuple[IntVector, int, int]


@dataclass(frozen=True)
class MonomialEmbedding:
    """A finite set of exponent vectors in Z^n_{>=0}, held as fibres; built
    by from_fibres, which checks them."""

    fibres: tuple[Fibre, ...]

    @classmethod
    def from_fibres(cls, fibres: Iterable[Fibre]) -> MonomialEmbedding:
        """The exponents (*prefix, x), a <= x <= b, of the fibres (prefix, a, b).

        Needs at least one fibre, each with a >= 0, every prefix entry >= 0
        and a <= b, and strictly increasing prefixes of one length: then the
        exponents are nonempty, nonnegative, distinct and sorted.
        """
        fibres = tuple(fibres)
        if not fibres:
            raise ValueError("embedding needs at least one exponent")
        previous = None
        for prefix, a, b in fibres:
            if a < 0 or min(prefix, default=0) < 0:
                raise ValueError("exponents must be nonnegative")
            if a > b:
                raise ValueError(f"empty fibre [{a}, {b}]")
            if previous is not None and len(prefix) != len(previous):
                raise ValueError("exponents must share one dimension")
            if previous is not None and prefix <= previous:
                raise ValueError("fibre prefixes must increase strictly")
            previous = prefix
        return cls(fibres)

    @property
    def dim(self) -> int:
        return len(self.fibres[0][0]) + 1

    @cached_property
    def exponents(self) -> tuple[IntVector, ...]:
        """Every exponent as a tuple, sorted lexicographically; built on first
        use, as nothing on the command line's paths reads it."""
        return tuple((*prefix, x) for prefix, a, b in self.fibres for x in range(a, b + 1))


def sections_by_polytope(P: HalfspacePolytope, v: Vertex) -> MonomialEmbedding:
    """Lattice points of qP normalized at q v, as their fibres, with q the
    lcm of the offsets' denominators: the walk of vertex_chart(P, v), the
    chart of normalize_at_vertex read off the vertex walk."""
    return MonomialEmbedding.from_fibres(lattice_fibres(*vertex_chart(P, v)))
