"""The monomial basis of sections and the induced projective embedding.

Fixing a vertex v of a Delzant polytope P, the invariant sections restricted
to the dense chart of v are the monomials xi^J for J a lattice point of P
normalized at v: moved to the origin with its facets on the coordinate
hyperplanes, so every J lies in Z^n_{>=0}.

An embedding holds these exponents as the fibres (prefix, a, b) of the
normalized polytope that lattice_fibres gives: the exponents (*prefix, x)
for a <= x <= b, in strictly increasing prefix order.  So they are distinct
and sorted lexicographically without being listed, and the checks run once
per fibre, not once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .lattice import IntVector
from .polytope import HalfspacePolytope, Vertex, lattice_fibres, normalize_at_vertex

Fibre = tuple[IntVector, int, int]


@dataclass(frozen=True, init=False)
class MonomialEmbedding:
    """A finite set of exponent vectors in Z^n_{>=0}, held as fibres.

    MonomialEmbedding(exponents) takes tuples of ints in any order; they are
    checked but not converted, then grouped into fibres, so the vectors over
    each prefix x_1..x_{n-1} must fill an interval of x_n.
    """

    fibres: tuple[Fibre, ...]

    def __init__(self, exponents: Iterable[IntVector]):
        exps = tuple(exponents)
        if not exps:
            raise ValueError("embedding needs at least one exponent")
        n = len(exps[0])
        if any(len(e) != n for e in exps):
            raise ValueError("exponents must share one dimension")
        if any(x < 0 for e in exps for x in e):
            raise ValueError("exponents must be nonnegative")
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
        object.__setattr__(self, "fibres", tuple(map(tuple, fibres)))

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
        E = cls.__new__(cls)
        object.__setattr__(E, "fibres", fibres)
        return E

    @property
    def dim(self) -> int:
        return len(self.fibres[0][0]) + 1

    @cached_property
    def exponents(self) -> tuple[IntVector, ...]:
        """Every exponent as a tuple, sorted lexicographically; built on first
        use, as nothing on the command line's paths reads it."""
        return tuple((*prefix, x) for prefix, a, b in self.fibres for x in range(a, b + 1))


def sections_by_polytope(P: HalfspacePolytope, v: Vertex) -> MonomialEmbedding:
    """Lattice points of P normalized at the vertex v, as its fibres."""
    _, Q = normalize_at_vertex(P, v)
    return MonomialEmbedding.from_fibres(lattice_fibres(Q))
