"""Golden outputs of the command line over a fixed table of inputs.

tests/stdout_digests.json holds, per call, the exit code, the stderr and
the sha256 of the stdout of analyze, width and embed; verify is held by its
exit code, its stderr and its checks' names and passed flags only, since its
float deviations depend on the numpy and libm build.  A change that claims
byte-identical outputs leaves the file as it is and passes this test.

    PYTHONPATH=src:tests python tests/test_stdout_digests.py

rewrites the file from the code in src/; run it only when an output is
meant to change, and say which.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from geomgen import (
    blowup_polygon,
    dilate,
    polytope_data,
    product_polytope,
    random_simple_non_delzant_polygon,
)
from toricwidth.cli import main
from toricwidth.fixtures import resolve_fixture

DIGESTS = Path(__file__).resolve().parent / "stdout_digests.json"

FIXTURES = ["example-3.7", "example-3.8:1", "example-3.8:5", "cpn:1:3", "cpn:2:1",
            "cpn:2:4", "cpn:3:2", "cpn:4:1"]


def json_inputs() -> dict:
    """The inputs that are no fixture, as the JSON data the command reads."""
    polygons = {f"b{d}": blowup_polygon(random.Random(d), d) for d in range(4, 17)}
    b4, b8 = blowup_polygon(random.Random(2), 4), blowup_polygon(random.Random(1), 8)
    products = {"b4²": product_polytope(b4, b4), "b8²": product_polytope(b8, b8)}
    dilates = {
        f"5/3·{name}": dilate(P, Fraction(5, 3))
        for name, P in [("example-3.7", resolve_fixture("example-3.7")),
                        ("cpn:2:1", resolve_fixture("cpn:2:1")),
                        ("b9", polygons["b9"]), ("b4²", products["b4²"])]
    }
    data = {name: polytope_data(P) for name, P in {**polygons, **products, **dilates}.items()}
    data["non-delzant"] = polytope_data(random_simple_non_delzant_polygon(random.Random(0)))
    data["empty"] = {"dim": 2, "normals": [[1, 0], [-1, 0], [0, 1]], "offsets": ["0", "1", "0"]}
    data["unbounded"] = {"dim": 2, "normals": [[1, 0], [0, 1]], "offsets": ["0", "0"]}
    return data


# the argv after the input, per call; verify's checks are read off its JSON
CALLS = [
    ("analyze",),
    ("analyze", "--format", "text"),
    ("width",),
    ("width", "--vertex", "1", "--format", "text"),
    ("embed",),
    ("embed", "--vertex", "2"),
    ("verify", "--seed", "1", "--format", "json"),
]


def outcome(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    record = {"code": code, "stderr": err.getvalue()}
    if argv[0] == "verify":
        checks = json.loads(out.getvalue()) if code in (0, 4) else []
        record["checks"] = {c["name"]: c["passed"] for c in checks}
    else:
        record["stdout_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return record


def outcomes(tmp_path: Path) -> dict:
    specs = {name: name for name in FIXTURES}
    for name, data in json_inputs().items():
        path = tmp_path / f"input-{len(specs)}.json"
        path.write_text(json.dumps(data))
        specs[name] = str(path)
    return {
        " ".join([call[0], name, *call[1:]]): outcome([call[0], spec, *call[1:]])
        for name, spec in specs.items()
        for call in CALLS
    }


def test_outputs_match_the_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = outcomes(tmp_path)
    assert list(got) == list(want)
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = outcomes(Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(table)} calls to {DIGESTS}")
