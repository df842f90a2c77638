"""Exact toolkit for Delzant polytopes: charts, monomial embeddings, and
Gromov-width upper bounds."""

from .charts import ChartData, chart_for_cone, transition_map
from .embedding import MonomialEmbedding, sections_by_polytope
from .fan import Fan, is_strictly_convex, normal_fan
from .lattice import solve_rational
from .numeric import (
    ToricPotential,
    potential_partial,
    psi_map,
    pullback_check,
    sup_along_path,
)
from .polytope import (
    EmptyPolytopeError,
    HalfspacePolytope,
    NotDelzantError,
    UnboundedPolytopeError,
    Vertex,
    enumerate_vertices,
    is_delzant,
    lattice_fibres,
    lattice_points,
    normalize_at_vertex,
    scale,
    vertex_sums,
)
from .width import (
    FanoCertificate,
    WidthReport,
    cylinder_bound,
    fano_check,
    lu_gamma,
    lu_lambda,
    verify_fano_certificate,
    width_report,
)

__version__ = "0.1.0"
