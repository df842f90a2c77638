"""Output checks, run outside the timed region.

Fixture inputs are compared with outputs recorded in expected.json (only
the keys recorded there, so the program may add keys).  Generated polygons
are checked against the independent oracles of geometry.py.  `verify` must
exit 0 with every check passed; its float deviations are not pinned.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import geometry

DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def record(sub: str, value):
    """What expected.json keeps of one fixture call's parsed output."""
    if sub == "embed":
        return {"count": len(value), "sha256": digest(value)}
    return value


def _subset_mismatch(expected, got, path="") -> str | None:
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return f"{path or 'output'} is not an object"
        for key, value in expected.items():
            if key not in got:
                return f"{path}{key} missing"
            found = _subset_mismatch(value, got[key], f"{path}{key}.")
            if found:
                return found
        return None
    if expected != got:
        return f"{path.rstrip('.') or 'output'}: expected {expected!r}, got {got!r}"
    return None


def outcome_problem(rc, error: BaseException | None, stderr: str) -> str | None:
    """Why a call failed regardless of its output, or None."""
    if error is not None:
        return f"{type(error).__name__} escaped cli.main: {error}"
    if rc not in DOCUMENTED_EXIT_CODES:
        return f"exit code {rc!r} is not documented"
    if len(stderr.strip().splitlines()) > 1:
        return "stderr message longer than one line"
    return None


def output_mismatch(sub: str, inp, rc, stdout: str, expected: dict) -> str | None:
    """Why a completed call's output is wrong, or None."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        value = json.loads(stdout)
        if sub == "verify":
            failed = [r["name"] for r in value if not r["passed"]]
            return f"verify checks failed: {failed}" if failed else None
        if inp.polygon is not None:
            return ORACLES[sub](inp.polygon, value)
        key = f"{sub} {inp.spec}"
        if key not in expected:
            return f"no recorded output for {key!r}"
        return _subset_mismatch(expected[key], record(sub, value))
    except (ValueError, ArithmeticError, KeyError, TypeError, IndexError) as e:
        return f"malformed output: {type(e).__name__}: {e}"


def _analyze_oracle(polygon, out) -> str | None:
    normals, offsets = polygon
    vertices = geometry.polygon_vertices(normals, offsets)
    want = {
        "dim": 2,
        "facets": len(normals),
        "delzant": True,
        "smooth": True,
        "complete": "complete",
        "strictly_convex": True,
        "vertices": [[str(c) for c in v[0]] for v in vertices],
        "lattice_point_count": len(geometry.lattice_points(normals, offsets)),
        "offset_scale_cleared": 1,
    }
    return _subset_mismatch(want, out)


def _relation_problem(polygon, a, max_total: int, value_pi: str, what: str) -> str | None:
    normals, offsets = polygon
    if len(a) != len(normals) or any(not isinstance(x, int) or x < 0 for x in a):
        return f"{what} witness {a} is not a nonnegative integer vector"
    if any(sum(x * u[k] for x, u in zip(a, normals)) for k in range(2)):
        return f"{what} witness {a} is not a relation among the normals"
    if not 1 <= sum(a) <= max_total:
        return f"{what} witness {a} has total outside 1..{max_total}"
    if 2 * -sum(x * l for x, l in zip(a, offsets)) != Fraction(value_pi):
        return f"{what} witness {a} does not give the reported {value_pi}"
    return None


def _width_oracle(polygon, out) -> str | None:
    from toricwidth.width import FanoCertificate, verify_fano_certificate
    from toricwidth.polytope import HalfspacePolytope

    normals, offsets = polygon
    vertices = geometry.polygon_vertices(normals, offsets)
    chosen = vertices[0]
    if out["vertex"] != [str(c) for c in chosen[0]]:
        return f"chart vertex {out['vertex']}, oracle {chosen[0]}"
    f = geometry.normalized_coordinates(normals, offsets, chosen[1])
    maxima = [max(f(v[0])[j] for v in vertices) for j in range(2)]
    if [str(m) for m in maxima] != out["witnesses"]["axis_maxima"]:
        return f"axis maxima {out['witnesses']['axis_maxima']}, oracle {maxima}"
    if Fraction(out["paper_bound_pi"]) != 2 * min(maxima):
        return f"cylinder bound {out['paper_bound_pi']}, oracle {2 * min(maxima)}"

    fano = out["fano"]
    if fano["is_fano"] != geometry.monotone(normals, offsets):
        return f"is_fano {fano['is_fano']} disagrees with the monotonicity oracle"
    if fano["is_fano"]:
        c = fano["certificate"]
        cert = FanoCertificate(Fraction(c["r"]), tuple(Fraction(x) for x in c["m"]),
                               tuple(c["signs"]))
        if not verify_fano_certificate(HalfspacePolytope(normals, offsets), cert):
            return f"Fano certificate {c} does not verify"

    if out["lu_lambda_pi"] is None:
        return "no Lambda bound, though opposite normals give a relation"
    problem = _relation_problem(polygon, out["witnesses"]["lambda"], 3,
                                out["lu_lambda_pi"], "Lambda")
    if problem:
        return problem
    if out["lu_gamma_pi"] is not None:
        if not fano["is_fano"]:
            return "gamma reported for a class that is not monotone"
        problem = _relation_problem(polygon, out["witnesses"]["gamma"],
                                    out["gamma_search_bound"], out["lu_gamma_pi"], "gamma")
        if problem:
            return problem

    bounds = [Fraction(out[k]) for k in ("paper_bound_pi", "lu_lambda_pi", "lu_gamma_pi")
              if out[k] is not None]
    if Fraction(out["min_bound_pi"]) != min(bounds):
        return f"min_bound_pi {out['min_bound_pi']} is not the minimum of {bounds}"
    return None


def _embed_oracle(polygon, out) -> str | None:
    normals, offsets = polygon
    active = geometry.polygon_vertices(normals, offsets)[0][1]
    want = [list(p) for p in geometry.sections_by_box_scan(normals, offsets, active)]
    if out != want:
        return f"embed gave {len(out)} exponents, box scan {len(want)} (or order differs)"
    return None


ORACLES = {"analyze": _analyze_oracle, "width": _width_oracle, "embed": _embed_oracle}
