"""The benchmark's tracer binds names of the package by getattr; this test
fails as soon as one of them is renamed or removed from src/."""

import importlib.util
from pathlib import Path

import toricwidth.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_bind_and_record(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()  # getattr on every name in tracing.TRACED
    try:
        tracer.call_id = "embed"
        assert toricwidth.cli.main(["embed", "cpn:2:1"]) == 0
        tracer.call_id = "verify"
        assert toricwidth.cli.main(["verify", "cpn:1:2", "--samples", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tracer.spans
    sections = [
        s[tracing.COUNTERS]
        for s in spans
        if s[tracing.CALL] == "embed" and s[tracing.NAME] == "embedding.sections_by_polytope"
    ]
    assert sections == [{"exponents": 3}]
    verify_names = {s[tracing.NAME] for s in spans if s[tracing.CALL] == "verify"}
    assert {"cli.main", "verify.chart_suite", "verify.numeric_suite"} <= verify_names
    # uninstalled: a further call records nothing
    count = len(spans)
    assert toricwidth.cli.main(["embed", "cpn:2:1"]) == 0
    assert len(tracer.spans) == count
