"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_program()
from toricwidth.polytope import HalfspacePolytope, is_delzant  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generator_is_deterministic_and_delzant(seed, tmp_path):
    for d in workloads.FACET_COUNTS:
        first = workloads.blowup_polygon(workloads.polygon_rng(seed, d, 2), d)
        again = workloads.blowup_polygon(workloads.polygon_rng(seed, d, 2), d)
        assert first == again
        assert len(first[0]) == d
        assert is_delzant(HalfspacePolytope(*first))
    a = workloads.workload_inputs("facets", seed, tmp_path / "a")
    b = workloads.workload_inputs("facets", seed, tmp_path / "b")
    assert [Path(i.spec).read_text() if i.polygon else i.spec for i in a] == [
        Path(i.spec).read_text() if i.polygon else i.spec for i in b
    ]


def _width(inp):
    _, _, rc, error, out, _ = run.timed_call(cli, run.argv_for("width", inp, 0))
    assert rc == 0 and error is None
    return json.loads(out)


@pytest.mark.parametrize("key", ["paper_bound_pi", "lu_lambda_pi", "min_bound_pi"])
def test_output_check_rejects_perturbed_width(key, tmp_path):
    expected = json.loads((run.HERE / "expected.json").read_text())
    polygon = workloads.workload_inputs("verify", 3, tmp_path)[-2]
    fixture = workloads.Input("example-3.7", "example-3.7", ("width",))
    for inp in (polygon, fixture):
        out = _width(inp)
        assert checks.output_mismatch("width", inp, 0, json.dumps(out), expected) is None
        out[key] = str(Fraction(out[key]) + 1)
        assert checks.output_mismatch("width", inp, 0, json.dumps(out), expected)


def test_self_time_on_synthetic_nested_trace():
    # root [0, 10] holds A [1, 4] (which holds G [2, 3]) and B [5, 6]
    spans = [
        ["width.fano_check", 0.0, 10.0, -1, "c", None],
        ["lattice.rref", 1.0, 4.0, 0, "c", None],
        ["lattice.solve_rational", 2.0, 3.0, 1, "c", None],
        ["lattice.rref", 5.0, 6.0, 0, "c", None],
        ["lattice.rref", 11.0, 12.0, -1, "c", None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    m = tracing.layer_metrics(spans, inputs=1)
    assert m["lattice.rref.calls"] == 3
    assert m["lattice.rref.self_s"] == 4.0
    assert m["width.fano_check.rref_calls"] == 2


class _FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour()


def _raise():
    raise RuntimeError("boom")


def _two_line_error():
    print("error: one\nerror: two", file=sys.stderr)
    return 3


@pytest.mark.parametrize("behaviour", [_raise, lambda: 1, _two_line_error])
def test_bad_outcomes_count_as_failed(behaviour):
    inp = workloads.Input("cpn:2:1", "cpn:2:1", ("analyze",))
    [call] = run.run_pass(_FakeCli(behaviour), [inp], [0], 0, {})
    assert call.failure is not None
    assert not call.mismatch
