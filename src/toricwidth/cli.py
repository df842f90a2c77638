"""Command line interface.

    toricwidth analyze <input> [--format json|text]
    toricwidth width   <input> [--vertex K] [--format json|text]
    toricwidth embed   <input> [--vertex K]
    toricwidth verify  <input> [--seed S] [--samples N] [--format json|text]

<input> is either a fixture name (see fixtures module) or a path to a JSON
file {"dim": n, "normals": [[...], ...], "offsets": ["p/q", ...]}.

Exit codes: 0 success, 2 parse error, 3 infeasible or unbounded (or otherwise
unusable) polytope, 4 property suite failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import fixtures
from .embedding import sections_by_polytope
from .fan import completeness, is_smooth, is_strictly_convex, normal_fan, support_function
from .polytope import (
    EmptyPolytopeError,
    HalfspacePolytope,
    NotDelzantError,
    UnboundedPolytopeError,
    clear_denominators,
    from_dict,
    is_delzant,
    lattice_points,
)
from .verify import polytope_suites
from .width import width_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_PROPERTY = 4


class ParseFailure(Exception):
    pass


def load_polytope(spec: str) -> HalfspacePolytope:
    try:
        return fixtures.resolve_fixture(spec)
    except ValueError:
        pass
    if not os.path.exists(spec):
        raise ParseFailure(f"not a fixture name and not a file: {spec!r}")
    try:
        with open(spec) as f:
            data = json.load(f)
        return from_dict(data)
    except (json.JSONDecodeError, ValueError) as e:
        raise ParseFailure(f"cannot parse {spec!r}: {e}") from e


def _frac(x: Fraction | None) -> str | None:
    return None if x is None else str(x)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def cmd_analyze(args) -> int:
    P = load_polytope(args.input)
    vertices = P.vertices  # before clearing denominators, so qP inherits them
    q, Pq = clear_denominators(P)
    F = normal_fan(Pq)
    g = support_function(Pq)
    out = {
        "dim": P.dim,
        "facets": P.num_facets,
        "delzant": is_delzant(P),
        "smooth": is_smooth(F),
        "complete": completeness(F),
        "strictly_convex": is_strictly_convex(F, g),
        "vertices": [[str(c) for c in v.point] for v in vertices],
        "lattice_point_count": len(lattice_points(P)),
        "offset_scale_cleared": q,
    }
    _emit(out, args.format)
    return EXIT_OK


def cmd_width(args) -> int:
    P = load_polytope(args.input)
    count = len(P.vertices)
    if not 0 <= args.vertex < count:
        raise ParseFailure(f"vertex index out of range (have {count})")
    rep = width_report(P, vertex_index=args.vertex)
    cert = None
    if rep.fano is not None:
        cert = {
            "r": str(rep.fano.r),
            "m": [str(c) for c in rep.fano.m],
            "signs": list(rep.fano.signs),
        }
    out = {
        "paper_bound_pi": _frac(rep.cylinder_pi),
        "radius_sq": _frac(rep.radius_sq),
        "lu_lambda_pi": _frac(rep.lu_lambda_pi),
        "fano": {"is_fano": rep.fano is not None, "certificate": cert},
        "lu_gamma_pi": _frac(rep.lu_gamma_pi),
        "min_bound_pi": _frac(rep.min_bound_pi),
        "witnesses": {
            "lambda": None if rep.lambda_witness is None else list(rep.lambda_witness),
            "gamma": None if rep.gamma_witness is None else list(rep.gamma_witness),
            "axis_maxima": [str(m) for m in rep.axis_maxima],
            "min_axis": rep.axis,
        },
        "gamma_search_bound": rep.gamma_search_bound,
        "gamma_note": rep.gamma_note,
        "vertex": [str(c) for c in rep.vertex.point],
        "denominator_scale": rep.denominator_scale,
    }
    _emit(out, args.format)
    return EXIT_OK


def cmd_embed(args) -> int:
    P = load_polytope(args.input)
    if not is_delzant(P):
        raise NotDelzantError("the embedding requires a Delzant polytope")
    _, Pq = clear_denominators(P)
    vertices = Pq.vertices
    if not 0 <= args.vertex < len(vertices):
        raise ParseFailure(f"vertex index out of range (have {len(vertices)})")
    E = sections_by_polytope(Pq, vertices[args.vertex])
    print(json.dumps([list(e) for e in E.exponents]))
    return EXIT_OK


def cmd_verify(args) -> int:
    P = load_polytope(args.input)
    _, Pq = clear_denominators(P)
    results = polytope_suites(Pq, seed=args.seed, samples=args.samples)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "deviation": r.deviation,
                        "tolerance": r.tolerance,
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            dev = "" if r.deviation is None else f"  max dev {r.deviation:.3e}"
            tol = "" if r.tolerance is None else f" (tol {r.tolerance:.0e})"
            print(f"{r.name:<{width}}  {status}{dev}{tol}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toricwidth", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Delzant, smoothness, completeness, convexity")
    p.add_argument("input")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("width", help="all width bounds as multiples of pi")
    p.add_argument("input")
    p.add_argument("--vertex", type=int, default=0, help="index into the sorted vertex list")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("embed", help="exponents of the monomial embedding")
    p.add_argument("input")
    p.add_argument("--vertex", type=int, default=0)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="randomized chart and numeric property suites")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (UnboundedPolytopeError, EmptyPolytopeError, NotDelzantError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
