"""Normal fans of simple polytopes and strict convexity of support functions.

The fan of a polytope {x : <x, u_i> >= lambda_i} has the facet normals as
generators and, as maximal cones, the tight facet sets of the vertices.  It
is complete because the polytope is bounded, and smooth exactly when the
polytope is Delzant: normal_fan keeps each cone's inverse and pairings
off the vertex walk, so nothing here eliminates.  No command builds a Fan
(charts.chart_table reads the walked vertices themselves): only the tests
and the benchmark's tracer reach this module.  Strict convexity of a
support function, the test used to certify very ample classes, is one
inequality per maximal cone and generator outside it:
<h_sigma, u_j> > g(u_j).  For g = lambda on a Delzant polytope that is a
theorem (h_sigma is the simple vertex on the facets sigma), so `analyze`
does not run is_strictly_convex; the tests keep it as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lattice import IntMatrix, IntVector, dot
from .polytope import HalfspacePolytope, NotDelzantError, _refusal


@dataclass(frozen=True)
class Fan:
    """The normal fan of a simple polytope: its primitive facet normals, and
    per vertex the sorted indices of the n facets tight there.

    inverses[k] is U^-1 of max_cones[k], U its generators as columns: the
    edge directions of the walked vertex on those facets, as rows, and
    pairings[k] its pairings U^-1 G^T with the generators G.  Both are None
    for a cone that is not unimodular; a fan built by hand has neither.
    Built by normal_fan, so it needs no checks of its own: the polytope has
    already checked the normals, and the n tight normals of a simple vertex
    are independent.
    """

    generators: tuple[IntVector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    inverses: tuple[IntMatrix | None, ...] = field(default=(), compare=False, repr=False)
    pairings: tuple[IntMatrix | None, ...] = field(default=(), compare=False, repr=False)


def normal_fan(P: HalfspacePolytope) -> Fan:
    """Fan on the facet normals whose maximal cones are the vertex normal cones.

    Refuses the first vertex that is not simple as the Delzant test does; a
    vertex that passes the test gives U^-1 and the pairings, another None.
    """
    n = P.dim
    cones, inverses, pairings = [], [], []
    for v in P.vertices:
        why = _refusal(v, n)
        if len(v.active) != n:
            raise NotDelzantError(why)
        cones.append(v.active)
        inverses.append(None if why else v.edges)
        pairings.append(None if why else v.pairings)
    return Fan(P.normals, tuple(cones), tuple(inverses), tuple(pairings))


def cone_linear_parts(F: Fan, g: IntVector) -> dict[tuple[int, ...], tuple]:
    """Per maximal cone sigma, the vector h with <h, u_i> = g[i] on sigma:
    h = U^-T g_sigma = sum_k g[sigma_k] w_k over the rows w_k of the cone's
    inverse, in integers for integer g.  Refuses a fan that is not smooth."""
    if not F.inverses or None in F.inverses:
        raise ValueError("fan must be smooth")
    if len(g) != len(F.generators):
        raise ValueError("need one support value per generator")
    return {
        c: tuple(dot([g[i] for i in c], column) for column in zip(*W))
        for c, W in zip(F.max_cones, F.inverses)
    }


def is_strictly_convex(F: Fan, g: IntVector) -> bool:
    """Strict convexity of g on a smooth normal fan.

    g is strictly convex iff <h_sigma, u_j> > g(u_j) for every maximal cone
    sigma, with linear part h_sigma, and every generator u_j that lies in
    some maximal cone but not in sigma (Cox-Little-Schenck, Toric Varieties,
    section 6.1): each h_sigma is then a vertex of {x : <x, u_i> >= g(u_i)}
    whose tight facets are exactly those of sigma.  The criterion needs a
    complete fan, which a normal fan is because its polytope is bounded, so
    only smoothness is checked, by cone_linear_parts.
    """
    used = {i for c in F.max_cones for i in c}
    return all(
        dot(h, F.generators[j]) > g[j]
        for c, h in cone_linear_parts(F, g).items()
        for j in used.difference(c)
    )
