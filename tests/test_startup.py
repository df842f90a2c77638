"""What a process loads: analyze, width and embed run on the exact core
alone, and only verify (or a library import of charts or numeric) loads
numpy.  verify's work arrays come back from the heap whatever was imported
first."""

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import toricwidth

SRC = Path(toricwidth.__file__).resolve().parents[1]


def run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_verify_loads_numpy():
    # nor do analyze, width and embed load the fan or a module that verify uses
    verify = ["numpy", "toricwidth.charts", "toricwidth.fan", "toricwidth.numeric",
              "toricwidth.verify"]
    out = run_python(
        f"""
import contextlib, io, sys
import toricwidth.cli
loaded = []
for sub in ("analyze", "width", "embed", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert toricwidth.cli.main([sub, "example-3.8:1"]) == 0
    loaded.append([m for m in {verify!r} if m in sys.modules])
print(loaded)
"""
    )
    assert out == repr([[], [], [], verify]) + "\n"


def test_verify_reads_its_input_before_it_loads_numpy():
    out = run_python(
        """
import contextlib, io, sys
import toricwidth.cli
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = toricwidth.cli.main(["verify", "nosuch"])
print((code, err.getvalue(), "numpy" in sys.modules))
"""
    )
    line = "error: not a fixture name and not a file: 'nosuch'\n"
    assert out == repr((2, line, False)) + "\n"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_verify_reuses_its_work_arrays_after_a_late_numpy_import():
    # numpy comes in after the exact core, on the first verify call; each
    # later call should fault in next to no fresh pages
    out = run_python(
        """
import contextlib, io, resource
import toricwidth.cli
def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert toricwidth.cli.main(list(argv)) == 0
for sub in ("analyze", "width", "embed"):
    call(sub, "cpn:2:1")
for _ in range(3):
    call("verify", "cpn:3:10")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    call("verify", "cpn:3:10")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
    )
    assert float(out) < 16


@pytest.mark.skipif(sys.platform != "linux", reason="an RLIMIT_AS cap on the child process")
def test_numpy_that_cannot_load_under_a_memory_cap_ends_in_one_line():
    # in 40 MiB of address space numpy's shared libraries fail to map: verify
    # ends in one error line with exit 3, not numpy's page-long ImportError
    cap = 40 * 2**20

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "toricwidth.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )

    # here the exact core runs from 20 MiB on and numpy needs more than 56
    if run("analyze", "cpn:1:1").returncode != 0:
        pytest.skip("the interpreter does not start in 40 MiB here")
    proc = run("verify", "cpn:1:1")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: cannot import numpy: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    # an input that does not parse is refused before numpy is loaded, as analyze refuses it
    for spec in ("nosuch", "example-3.8:0"):
        analyze, verify = run("analyze", spec), run("verify", spec)
        assert (verify.returncode, verify.stdout, verify.stderr) == (2, "", analyze.stderr)
        assert analyze.returncode == 2 and analyze.stderr.count("\n") == 1
