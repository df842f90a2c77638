"""Built-in polytopes addressable from the command line.

Fixture names:
    example-3.7        a 6-facet Kaehler class on a twice blown up
                       Hirzebruch surface
    example-3.8:<m>    a 7-facet family on an iterated blow up of the
                       projective plane, one rational offset parametrized
                       by a positive integer m
    cpn:<n>:<degree>   projective n-space with the degree-d class
"""

from __future__ import annotations

from fractions import Fraction

from .polytope import HalfspacePolytope


def blown_up_hirzebruch() -> HalfspacePolytope:
    return HalfspacePolytope(
        normals=((1, 0), (0, 1), (1, -1), (-1, 1), (1, -2), (0, -1)),
        offsets=(0, 0, -1, -1, -3, -3),
    )


def iterated_plane_blowup(m: int) -> HalfspacePolytope:
    if m < 1:
        raise ValueError("m must be a positive integer")
    return HalfspacePolytope(
        normals=((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (2, -1)),
        offsets=(0, 0, -2, -4, -4, -2, Fraction(-2 * m, m + 1)),
    )


def projective_space(n: int, degree: int = 1) -> HalfspacePolytope:
    if n < 1 or degree < 1:
        raise ValueError("need n >= 1 and degree >= 1")
    normals = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    ) + ((-1,) * n,)
    offsets = (0,) * n + (-degree,)
    return HalfspacePolytope(normals, offsets)


class UnknownFixtureError(ValueError):
    pass


def _parameter(p: str) -> int:
    try:
        return int(p)
    except ValueError:
        raise ValueError(f"parameter {p!r} is not an integer") from None


def resolve_fixture(name: str) -> HalfspacePolytope:
    """Parse a fixture name.  Raises UnknownFixtureError for a name that is
    no fixture, and ValueError for a fixture's bad parameter."""
    parts = name.split(":")
    if parts[0] == "example-3.7" and len(parts) == 1:
        return blown_up_hirzebruch()
    if parts[0] == "example-3.8" and len(parts) == 2:
        return iterated_plane_blowup(_parameter(parts[1]))
    if parts[0] == "cpn" and len(parts) == 3:
        return projective_space(_parameter(parts[1]), _parameter(parts[2]))
    raise UnknownFixtureError(f"unknown fixture {name!r}")
