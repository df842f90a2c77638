"""The monomial basis of sections and the induced projective embedding.

Fixing a vertex v of a Delzant polytope P, the invariant sections restricted
to the dense chart of v are the monomials xi^J for J a lattice point of P
normalized at v: moved to the origin with its facets on the coordinate
hyperplanes, so every J lies in Z^n_{>=0}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import IntVector
from .polytope import HalfspacePolytope, Vertex, lattice_points, normalize_at_vertex


@dataclass(frozen=True)
class MonomialEmbedding:
    """A finite set of exponent vectors in Z^n_{>=0}, sorted lexicographically.

    The vectors must be tuples of ints; they are checked but not converted.
    """

    exponents: tuple[IntVector, ...]

    def __post_init__(self):
        exps = self.exponents
        if not exps:
            raise ValueError("embedding needs at least one exponent")
        n = len(exps[0])
        if any(len(e) != n for e in exps):
            raise ValueError("exponents must share one dimension")
        if any(x < 0 for e in exps for x in e):
            raise ValueError("exponents must be nonnegative")
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponent")
        object.__setattr__(self, "exponents", tuple(sorted(exps)))

    @property
    def dim(self) -> int:
        return len(self.exponents[0])


def sections_by_polytope(P: HalfspacePolytope, v: Vertex) -> MonomialEmbedding:
    """Lattice points of P normalized at the vertex v."""
    _, Q = normalize_at_vertex(P, v)
    return MonomialEmbedding(tuple(lattice_points(Q)))
