"""Fuzz the command line contract on generated JSON inputs: every input ends
in a documented exit code, with one error line and no traceback.

The calls share one process, and so one argparse parser.  Offsets up to 10^6
go only to `width`, which reads the vertices alone; the subcommands that
count or list lattice points get small offsets, so no example is slow.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricwidth.cli import main

SMALL = st.integers(-3, 3)
BIG = st.integers(-10**6, 10**6)


@st.composite
def offset(draw, big: bool):
    """A valid offset as the JSON files write it: "p" or "p/q", or a number."""
    value = draw(BIG if big else SMALL)
    kind = draw(st.sampled_from(["str", "str", "str", "frac", "number"]))
    if kind == "str":
        return str(value)
    return f"{value}/{draw(st.integers(1, 4))}" if kind == "frac" else value


@st.composite
def polytope_json(draw, big: bool):
    """A box [0, size]^n with random cuts, then one of the ways an input can
    go wrong: a non-primitive, zero or duplicate normal, a dropped facet
    (unbounded), crossed offsets (empty), a squeezed coordinate
    (lower-dimensional), a mismatched dim, or an entry that is not a number."""
    n = draw(st.integers(1, 4 if big else 3))
    normals, offs = [], []
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        normals += [e, [-x for x in e]]
        offs += ["0", str(-draw(st.integers(1, 10**6 if big else 3)))]
    for _ in range(draw(st.integers(0, 3))):
        normals.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                            .filter(lambda u: math.gcd(*u) == 1)))
        offs.append(draw(offset(big)))
    flaw = draw(st.sampled_from(
        ["none"] * 8 + ["scaled", "zero", "duplicate", "drop", "empty", "flat",
         "dim", "1/0", "inf-offset", "junk-offset", "fraction-normal", "inf-normal",
         "short-normal"]
    ))
    k = draw(st.integers(0, len(normals) - 1))
    if flaw == "scaled":
        normals[k] = [2 * x for x in normals[k]]
    elif flaw == "zero":
        normals.append([0] * n)
        offs.append("0")
    elif flaw == "duplicate":
        normals.append(list(normals[k]))
        offs.append(draw(st.sampled_from([offs[k], "0"])))
    elif flaw == "drop":
        del normals[k], offs[k]
    elif flaw == "empty":
        offs[0], offs[1] = "1", "0"  # x_1 >= 1 and -x_1 >= 0
    elif flaw == "flat":
        offs[1] = "0"  # 0 <= x_1 <= 0
    elif flaw == "1/0":
        offs[k] = "1/0"
    elif flaw == "inf-offset":
        offs[k] = draw(st.sampled_from([math.inf, -math.inf, "Infinity"]))
    elif flaw == "junk-offset":
        offs[k] = draw(st.sampled_from(["x", "", None, [1], {"p": 1}]))
    elif flaw == "fraction-normal":
        normals[k][0] = 1.5
    elif flaw == "inf-normal":
        normals[k][0] = math.inf
    elif flaw == "short-normal":
        normals.append([1] * (n + 1))
        offs.append("0")
    dim = n if flaw != "dim" else draw(st.sampled_from([n + 1, n - 1, 2.5, math.inf, "2"]))
    return {"dim": dim, "normals": normals, "offsets": offs}


@st.composite
def cli_cases(draw):
    sub = draw(st.sampled_from(["analyze", "width", "width", "embed", "verify"]))
    data = draw(polytope_json(big=sub == "width"))
    args = []
    if sub in ("width", "embed"):
        args += ["--vertex", str(draw(st.integers(-1, 8)))]
    if sub == "verify":
        args += ["--samples", "1", "--seed", str(draw(st.integers(0, 3)))]
    if sub != "embed":
        args += ["--format", draw(st.sampled_from(["json", "text"]))]
    return sub, data, args


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_cases())
def test_every_generated_input_ends_in_a_documented_exit(capsys, tmp_path, case):
    sub, data, args = case
    path = tmp_path / "P.json"
    path.write_text(json.dumps(data))  # math.inf is written as Infinity
    rc = main([sub, str(path), *args])
    captured = capsys.readouterr()
    assert rc in (0, 2, 3, 4), (rc, captured.err)
    assert "Traceback" not in captured.err
    if rc == 0:
        assert captured.err == ""
    else:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
