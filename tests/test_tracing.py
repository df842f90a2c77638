"""The benchmark's tracer binds names of the package by getattr: the first
test fails as soon as one of them is renamed or removed from src/, the
second as soon as src/ defines a function or method that neither a
subcommand runs nor the tracer binds."""

import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import toricwidth
import toricwidth.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_bind_and_record(capsys):
    # install rebinds names only in the modules already loaded; cli loads
    # verify on the first verify call, and the benchmark's warm-up makes one
    importlib.import_module("toricwidth.verify")
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


def _code(member):
    """The code object of a function, property, cached property, class or
    static method; None for anything else."""
    for attr in ("fget", "func", "__func__"):
        member = getattr(member, attr, member)
    return getattr(member, "__code__", None)


def test_every_exported_function_is_reached_or_traced(capsys, tmp_path):
    # each function and each method of a class defined at module level in
    # src/, exported or not, is run by a subcommand on these inputs (the
    # tracer's hooks run too, as in a traced benchmark run) or bound by the
    # tracer
    src = Path(toricwidth.__file__).resolve().parent
    targets, cached = {}, []
    for info in pkgutil.iter_modules([str(src)]):
        module = importlib.import_module(f"toricwidth.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported, or not a function or class
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if hasattr(member, "cache_clear"):
                    cached.append(member)
                code = _code(inspect.unwrap(member) if callable(member) else member)
                if code is not None and Path(code.co_filename).resolve().parent == src:
                    key = f"{module.__name__}.{name}" + (f".{attr}" if attr else "")
                    targets[key] = code
    inputs = {
        "strip": ([[1, 0], [-1, 0]], ["0", "-1"]),
        "pointed-empty": ([[1, 0], [-1, 0], [0, 1]], ["0", "1", "0"]),
        "cut-cube": (
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, -1]],
            ["0", "0", "0", "-1", "-1", "-1", "-1"],
        ),
        "non-delzant": ([[1, 0], [0, 1], [-1, -2]], ["0", "0", "-2"]),
    }
    unusable = []
    for name, (normals, offsets) in inputs.items():
        path = tmp_path / f"{name}.json"
        data = {"dim": len(normals[0]), "normals": normals, "offsets": offsets}
        path.write_text(json.dumps(data))
        unusable.append(str(path))
    tracing = load_tracing()
    bound = {
        getattr(importlib.import_module(f"toricwidth.{m}"), f).__code__
        for m, names in tracing.TRACED.items()
        for f in names
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    tracer = tracing.Tracer()
    tracer.install()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for f in cached:  # so this run calls what earlier calls cached
            f.cache_clear()
        # cpn:1:20's one fibre of 21 monomials takes the closed pass
        for spec in ("example-3.7", "example-3.8:2", "cpn:2:1", "cpn:1:20", *unusable):
            for argv in (["analyze"], ["width"], ["embed"], ["verify", "--samples", "1"]):
                want = 3 if spec in unusable else 0
                assert toricwidth.cli.main([argv[0], spec, *argv[1:]]) == want
    finally:
        sys.setprofile(previous)
        tracer.uninstall()
    capsys.readouterr()
    # a property, a cached property, a class method, a private function and
    # a cached one are each resolved
    assert {
        "toricwidth.embedding.MonomialEmbedding.dim",
        "toricwidth.polytope.HalfspacePolytope.integer_offsets",
        "toricwidth.embedding.MonomialEmbedding.from_fibres",
        "toricwidth.polytope._edge_walk",
        "toricwidth.polytope._todd_terms",
    } <= set(targets)
    unreached = sorted(n for n, code in targets.items() if code not in called | bound)
    assert not unreached, "neither run nor traced: " + ", ".join(unreached)
