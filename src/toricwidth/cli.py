"""Command line interface.

    toricwidth analyze <input> [--format json|text]
    toricwidth width   <input> [--vertex K] [--format json|text]
    toricwidth embed   <input> [--vertex K]
    toricwidth verify  <input> [--seed S] [--samples N] [--format json|text]

<input> is either a fixture name (see fixtures module) or a path to a JSON
file {"dim": n, "normals": [[...], ...], "offsets": ["p/q", ...]}.

Exit codes: 0 success, 2 parse error, 3 infeasible or unbounded (or otherwise
unusable) polytope, a floating point failure such as an overflow, or running out
of memory, 4 property suite failure.  Exit 3 on a polytope that is not Delzant
names its first failing vertex, in one line for every command.  A reader that
closes stdout early (embed ... | head) gets exit 0 and no message.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import namedtuple
from json.encoder import encode_basestring_ascii

from . import fixtures
from .polytope import HalfspacePolytope, Vertex, delzant_vertices, from_dict, vertex_sums

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_PROPERTY = 4


class ParseFailure(Exception):
    pass


def load_polytope(spec: str) -> HalfspacePolytope:
    try:
        return fixtures.resolve_fixture(spec)
    except fixtures.UnknownFixtureError:
        bad_parameter = None
    except ValueError as e:
        bad_parameter = e
    try:
        f = open(spec)
    except (OSError, ValueError) as e:
        # only a failed open asks whether the path exists, to pick the message
        if os.path.exists(spec):
            raise ParseFailure(f"cannot parse {spec!r}: {e}") from e
        if bad_parameter is not None:
            raise ParseFailure(f"fixture {spec!r}: {bad_parameter}") from None
        raise ParseFailure(f"not a fixture name and not a file: {spec!r}") from None
    try:
        with f:
            data = json.load(f)
        return from_dict(data)
    except (OSError, ValueError, RecursionError) as e:
        raise ParseFailure(f"cannot parse {spec!r}: {e}") from e


def _pi(bound) -> str | None:
    """A bound's coefficient of pi as a string, None for a missing bound."""
    return None if bound is None else str(bound.coefficient_pi)


# the JSON text of a scalar of exactly these types, by C-level calls
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
}
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for dict keys that are str, by json's own
    escapes and reprs and its isinstance order, in one recursive pass that
    writes a container's str, int, bool and None items in place: json's
    indented encoder runs a generator per container and a check chain per
    value in pure Python."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _SCALAR_TEXT[type(obj)](obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_NAMES.get(text, text)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items = [text(v) if (text := _SCALAR_TEXT.get(type(v))) else _json(v, inner) for v in obj]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(obj, dict):
        items = [
            f"{encode_basestring_ascii(k)}: "
            f"{text(v) if (text := _SCALAR_TEXT.get(type(v))) else _json(v, inner)}"
            for k, v in obj.items()
        ]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(obj))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def cmd_analyze(args) -> int:
    P = load_polytope(args.input)
    # vertex_sums refuses P unless it is Delzant; then its fan is smooth and
    # complete, and g = q lambda, the offsets of qP, strictly convex (Cox-Little-
    # Schenck 6.1): h_sigma, the vertex of qP on the facets sigma, is simple, so
    # <h_sigma, u_j> > q lambda_j off sigma; fan.is_strictly_convex is the oracle.
    count, volume = vertex_sums(P)
    out = {
        "dim": P.dim,
        "facets": P.num_facets,
        "delzant": True,
        "smooth": True,
        "complete": "complete",
        "strictly_convex": True,
        "vertices": [[str(c) for c in v.point] for v in P.vertices],
        "lattice_point_count": count,
        "volume": str(volume),
        "offset_scale_cleared": P.integer_offsets[0],
    }
    _emit(out, args.format)
    return EXIT_OK


def _vertex(P: HalfspacePolytope, index: int) -> Vertex:
    """delzant_vertices(P)[index]: the Delzant gate, then the range check."""
    vertices = delzant_vertices(P)
    if not 0 <= index < len(vertices):
        raise ParseFailure(f"vertex index out of range (have {len(vertices)})")
    return vertices[index]


def cmd_width(args) -> int:
    from toricwidth.width import width_report

    P = load_polytope(args.input)
    rep = width_report(P, v := _vertex(P, args.vertex))
    cyl, lam, fano, gamma = rep.cylinder, rep.lu_lambda, rep.fano, rep.lu_gamma
    cert = None
    if fano is not None:
        cert = {"r": str(fano.r), "m": [str(c) for c in fano.m], "signs": list(fano.signs)}
    out = {
        "paper_bound_pi": _pi(cyl),
        "radius_sq": _pi(cyl),
        "lu_lambda_pi": _pi(lam),
        "fano": {"is_fano": fano is not None, "certificate": cert},
        "lu_gamma_pi": _pi(gamma),
        "min_bound_pi": str(rep.min_bound_pi),
        "witnesses": {
            "lambda": None if lam is None else list(lam.witness),
            "gamma": None if gamma is None else list(gamma.witness),
            "axis_maxima": [str(m) for m in cyl.axis_maxima],
            "min_axis": cyl.axis,
        },
        "gamma_search_bound": None if gamma is None else gamma.search_bound,
        "gamma_note": rep.gamma_note,
        "vertex": [str(c) for c in v.point],
        "denominator_scale": P.integer_offsets[0],
    }
    _emit(out, args.format)
    return EXIT_OK


def _write_exponents(E) -> None:
    """Write json.dumps([list(J) for J in E.exponents]) and a newline to
    stdout, for the MonomialEmbedding E, one fibre at a time: one head
    "[p_1, ..., p_{n-1}, " per prefix and one "x]" per value of x_n, so no
    exponent is listed and the whole text is never held at once."""
    top = max(b for _, _, b in E.fibres)
    tails = [f"{x}]" for x in range(top + 1)]
    write = sys.stdout.write
    sep = "["
    for prefix, a, b in E.fibres:
        head = "[" + "".join(f"{p}, " for p in prefix)
        write(sep + head + (", " + head).join(tails[a:b + 1]))
        sep = ", "
    write("]\n")


def cmd_embed(args) -> int:
    from toricwidth.embedding import sections_by_polytope

    P = load_polytope(args.input)
    _write_exponents(sections_by_polytope(P, _vertex(P, args.vertex)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ParseFailure(f"--samples must be at least 1 (got {args.samples})")
    P = load_polytope(args.input)
    try:
        import numpy  # noqa: F401  # no other command needs numpy
    except ImportError as e:
        # numpy missing, or its libraries unmappable under a memory cap: name
        # the innermost cause in one line, not numpy's page of advice, and
        # leave through main's exit-3 arm for ValueError
        while e.__cause__ is not None:
            e = e.__cause__
        cause = (str(e).strip() or type(e).__name__).splitlines()[0]
        raise ValueError(f"cannot import numpy: {cause}") from None
    from toricwidth.verify import polytope_suites

    results = polytope_suites(P, seed=args.seed, samples=args.samples)
    if args.format == "json":
        keys = ("name", "passed", "deviation", "tolerance")
        print(_json([{k: getattr(r, k) for k in keys} for r in results]))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            dev = "" if r.deviation is None else f"  max dev {r.deviation:.3e}"
            tol = "" if r.tolerance is None else f" (tol {r.tolerance:.0e})"
            print(f"{r.name:<{width}}  {status}{dev}{tol}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY


# a one-value option of a subcommand, given after its input
Option = namedtuple("Option", "flag dest type choices default help")
FORMAT = ("json", "text")

# name: (handler, help, options), the one source of the argparse parser and
# of the argv that main reads without it
COMMANDS = {
    "analyze": (cmd_analyze, "Delzant, smoothness, completeness, convexity",
                (Option("--format", "format", None, FORMAT, "json", None),)),
    "width": (cmd_width, "all width bounds as multiples of pi",
              (Option("--vertex", "vertex", int, None, 0, "index into the sorted vertex list"),
               Option("--format", "format", None, FORMAT, "json", None))),
    "embed": (cmd_embed, "exponents of the monomial embedding",
              (Option("--vertex", "vertex", int, None, 0, None),)),
    "verify": (cmd_verify, "exact chart checks and randomized numeric property suites",
               (Option("--seed", "seed", int, None, 0, None),
                Option("--samples", "samples", int, None, 10, None),
                Option("--format", "format", None, FORMAT, "text", None))),
}


@functools.cache
def build_parser():
    """The argparse parser of COMMANDS, built on the first call and shared
    by every later main call in the process; parse_args keeps no state
    between calls.  argparse is imported here, so that a process whose argv
    _namespace reads never loads it."""
    import argparse

    parser = argparse.ArgumentParser(prog="toricwidth", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("input")
        for o in options:
            p.add_argument(o.flag, dest=o.dest, type=o.type, choices=o.choices,
                           default=o.default, help=o.help)
        p.set_defaults(func=func)
    return parser


def _namespace(argv) -> types.SimpleNamespace | None:
    """What parse_args gives for argv when it is a subcommand's name, an
    input and pairs "--option value" of that subcommand's own options, each
    spelled in full, with a value that does not start with "-" and passes
    the option's type and choices; None for any other argv.  argparse reads
    such an argv the same way: an argument that does not start with "-" is
    a value, the option's type converts it and its choices are checked
    after."""
    if not argv or len(argv) % 2 or argv[0] not in COMMANDS or argv[1][:1] == "-":
        return None
    func, _, options = COMMANDS[argv[0]]
    values = {"command": argv[0], "input": argv[1], **{o.dest: o.default for o in options}}
    for flag, text in zip(argv[2::2], argv[3::2]):
        o = next((o for o in options if o.flag == flag), None)
        if o is None or text[:1] == "-":
            return None
        try:
            value = o.type(text) if o.type else text
        except (TypeError, ValueError):
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    return types.SimpleNamespace(**values, func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a usage error, or any argv the shortcut does not read, goes to argparse
    args = _namespace(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: stdout goes to /dev/null, so the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParseFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
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
