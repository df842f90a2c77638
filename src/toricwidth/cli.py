"""Command line interface.

    toricwidth analyze <input> [--format json|text]
    toricwidth width   <input> [--vertex K] [--format json|text]
    toricwidth embed   <input> [--vertex K]
    toricwidth verify  <input> [--seed S] [--samples N] [--format json|text]

<input> is either a fixture name (see fixtures module) or a path to a JSON
file {"dim": n, "normals": [[...], ...], "offsets": ["p/q", ...]}.

Exit codes: 0 success, 2 parse error, 3 infeasible or unbounded (or otherwise
unusable) polytope, a floating point failure such as an overflow, or running out
of memory, 4 property suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import fixtures
from .embedding import MonomialEmbedding, sections_by_polytope
from .fan import is_smooth, normal_fan
from .polytope import (
    EmptyPolytopeError,
    HalfspacePolytope,
    NotDelzantError,
    UnboundedPolytopeError,
    clear_denominators,
    from_dict,
    is_delzant,
    lattice_fibres,
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
    except (OSError, ValueError) as e:
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
    F = normal_fan(Pq)  # exits on a non-simple vertex
    if not is_smooth(F):
        raise ValueError("fan must be smooth")
    # Past both exits P is Delzant, its fan smooth and complete (P is bounded).
    # g = lambda on qP is then strictly convex (Cox-Little-Schenck 6.1): h_sigma
    # is the vertex of qP on the facets sigma, which is simple, so
    # <h_sigma, u_j> > lambda_j for j outside sigma.  The tests keep
    # fan.is_strictly_convex as the oracle.
    out = {
        "dim": P.dim,
        "facets": P.num_facets,
        "delzant": True,
        "smooth": True,
        "complete": "complete",
        "strictly_convex": True,
        "vertices": [[str(c) for c in v.point] for v in vertices],
        "lattice_point_count": sum(b - a + 1 for _, a, b in lattice_fibres(P)),
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


def _exponents_json(E: MonomialEmbedding) -> str:
    """json.dumps([list(J) for J in E.exponents]), written from the fibres:
    one head "[p_1, ..., p_{n-1}, " per prefix and one "x]" per value of x_n,
    so no exponent is listed."""
    top = max(b for _, _, b in E.fibres)
    tails = [f"{x}]" for x in range(top + 1)]
    parts = []
    for prefix, a, b in E.fibres:
        head = "[" + "".join(f"{p}, " for p in prefix)
        parts.append(head + (", " + head).join(tails[a:b + 1]))
    return "[" + ", ".join(parts) + "]"


def cmd_embed(args) -> int:
    P = load_polytope(args.input)
    if not is_delzant(P):
        raise NotDelzantError("the embedding requires a Delzant polytope")
    _, Pq = clear_denominators(P)
    vertices = Pq.vertices
    if not 0 <= args.vertex < len(vertices):
        raise ParseFailure(f"vertex index out of range (have {len(vertices)})")
    E = sections_by_polytope(Pq, vertices[args.vertex])
    print(_exponents_json(E))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ParseFailure(f"--samples must be at least 1 (got {args.samples})")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later main
    call in the process; parse_args keeps no state between calls."""
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
    except ArithmeticError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_GEOMETRY
    except MemoryError as e:
        print(f"error: MemoryError: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
