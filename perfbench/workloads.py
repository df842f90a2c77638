"""Workload definitions and the seeded input generator.

Every workload is a list of inputs; each input names the subcommands run on
it.  Fixture inputs are passed to the program by name, generated ones as
JSON files written during set-up.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import geometry

SUBCOMMANDS = ("analyze", "width", "embed", "verify")

# example-3.8:3 fills the gap between 1 and 10 and makes the rung count odd
# (see PASSES_PER_30_S in run.py)
VOLUME_LADDER = (
    "example-3.7",
    "example-3.8:1",
    "example-3.8:3",
    "example-3.8:10",
    "example-3.8:30",
    "example-3.8:50",
    "cpn:2:20",
    "cpn:2:60",
    "cpn:3:10",
    "cpn:3:20",
    "cpn:4:6",
)
# verify costs 1-40 s per call above these rungs; that cost is the verify
# workload's subject, so the volume workload runs it on its three cheapest
VOLUME_VERIFY = ("example-3.7", "example-3.8:1", "cpn:2:20")

# d = 12 (4 s per width call) left room for only 3 passes a run, too few
# for a steady median; it runs in the roadmap workload instead
FACET_COUNTS = tuple(range(6, 12))
MONOTONE_FIXTURES = ("cpn:2:1",)
UNIT_SQUARE = (((1, 0), (0, 1), (-1, 0), (0, -1)), (0, 0, -1, -1))
REFLEXIVE_HEXAGON = (
    ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)),
    (-1, -1, -1, -1, -1, -1),
)

VERIFY_LADDER = (
    "example-3.7",
    "example-3.8:1",
    "example-3.8:3",
    "cpn:2:5",
    "cpn:2:20",
    "cpn:3:3",
    "cpn:3:10",
)
VERIFY_POLYGON_FACETS = 10
# exits through an OverflowError in the numeric layer; it stays in the
# workload and counts as failed until the program handles it
VERIFY_OVERFLOW = "cpn:1:400"

# Left out of the timed workloads for run length; run with --workload roadmap.
ROADMAP_CALLS = (
    ("width", "example-3.7"),
    ("width", "example-3.8:50"),
    ("width", "example-3.8:200"),
    ("width", "polygon-d12"),
    ("width", "polygon-d16"),
    ("verify", "example-3.8:50"),
    ("verify", "cpn:3:40"),
    ("verify", "example-3.8:200"),
)

WORKLOADS = ("volume", "facets", "verify", "roadmap")


@dataclass(frozen=True)
class Input:
    label: str  # fixture name, or a name for a generated polygon
    spec: str  # what the program receives: fixture name or JSON path
    subcommands: tuple[str, ...]
    polygon: tuple | None = None  # (normals, offsets) of a generated input


def blowup_polygon(rng: random.Random, facets: int) -> tuple:
    """A Delzant polygon with the given number of facets.

    Starts from the unit square and repeatedly cuts a random vertex with
    normals u, v by the facet u + v one lattice step in.  A vertex has room
    when both of its edges have lattice length at least 2; when none has,
    every offset is doubled.  The result has the smallest area this process
    reaches, so its lattice points stay few while 2^d grows.
    """
    normals, offsets = list(UNIT_SQUARE[0]), list(UNIT_SQUARE[1])
    while len(normals) < facets:
        vertices = geometry.polygon_vertices(normals, offsets)
        roomy = [
            v for v in vertices
            if all(geometry.edge_length(vertices, v, i) >= 2 for i in v[1])
        ]
        if not roomy:
            offsets = [2 * l for l in offsets]
            continue
        a, b = rng.choice(roomy)[1]
        normals.append((normals[a][0] + normals[b][0], normals[a][1] + normals[b][1]))
        offsets.append(offsets[a] + offsets[b] + 1)
    return tuple(normals), tuple(offsets)


def polygon_rng(seed: int, facets: int, draw: int) -> random.Random:
    return random.Random((seed * 1000 + draw) * 100 + facets)


def workload_inputs(name: str, seed: int, workdir: Path, draw: int = 0) -> list[Input]:
    """Build one pass's inputs, writing generated polygons under workdir.

    Each pass draws its polygons afresh (`draw` is the pass number), so a
    run's samples at one facet count come from several polygons, not one.
    """
    from toricwidth.polytope import HalfspacePolytope, is_delzant

    workdir.mkdir(parents=True, exist_ok=True)

    def generated(label: str, polygon: tuple, subs: tuple[str, ...]) -> Input:
        normals, offsets = polygon
        if not is_delzant(HalfspacePolytope(normals, offsets)):
            raise RuntimeError(f"generated input {label} is not Delzant")
        path = workdir / f"{label}.json"
        data = {"dim": 2, "normals": [list(u) for u in normals],
                "offsets": [str(l) for l in offsets]}
        path.write_text(json.dumps(data))
        return Input(label, str(path), subs, polygon)

    def polygon(facets: int) -> tuple:
        return blowup_polygon(polygon_rng(seed, facets, draw), facets)

    if name == "volume":
        return [
            Input(f, f, ("analyze", "width", "embed", "verify") if f in VOLUME_VERIFY
                  else ("analyze", "width", "embed"))
            for f in VOLUME_LADDER
        ]
    if name == "facets":
        inputs = [generated(f"polygon-d{d}", polygon(d), SUBCOMMANDS) for d in FACET_COUNTS]
        inputs += [Input(f, f, SUBCOMMANDS) for f in MONOTONE_FIXTURES]
        inputs.append(generated("unit-square", UNIT_SQUARE, SUBCOMMANDS))
        inputs.append(generated("reflexive-hexagon", REFLEXIVE_HEXAGON, SUBCOMMANDS))
        return inputs
    if name == "verify":
        inputs = [Input(f, f, SUBCOMMANDS) for f in VERIFY_LADDER]
        d = VERIFY_POLYGON_FACETS
        inputs.append(generated(f"polygon-d{d}", polygon(d), SUBCOMMANDS))
        inputs.append(Input(VERIFY_OVERFLOW, VERIFY_OVERFLOW, SUBCOMMANDS))
        return inputs
    if name == "roadmap":
        inputs = []
        for sub, label in ROADMAP_CALLS:
            if label.startswith("polygon-d"):
                d = int(label[len("polygon-d"):])
                inputs.append(generated(label, polygon(d), (sub,)))
            else:
                inputs.append(Input(label, label, (sub,)))
        return inputs
    raise ValueError(f"unknown workload {name!r}")
