"""Exact toolkit for Delzant polytopes: charts, monomial embeddings, and
Gromov-width upper bounds.

The exact core imports only the standard library.  charts and numeric need
numpy, so their names below are resolved on first access (PEP 562), and a
process that runs only analyze, width or embed never loads numpy."""

import importlib

from .embedding import MonomialEmbedding, sections_by_polytope
from .fan import Fan, is_strictly_convex, normal_fan
from .lattice import solve_rational
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

_NUMPY_NAMES = {
    "ChartData": "charts",
    "chart_for_cone": "charts",
    "transition_map": "charts",
    "ToricPotential": "numeric",
    "potential_partial": "numeric",
    "psi_map": "numeric",
    "pullback_check": "numeric",
    "sup_along_path": "numeric",
}


def __getattr__(name):
    module = _NUMPY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
