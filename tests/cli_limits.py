"""The command line under address-space and CPU-time limits, which tests that
call main in-process cannot set: each row of ROWS runs one call in a fresh
interpreter and checks its exit code, stderr and what it reads off the output.
`PYTHONPATH=src:tests python tests/cli_limits.py`, from the repository root,
prints one line per row and exits 1 naming every failed row."""

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

import toricwidth
from geomgen import blowup_polygon, polytope_data, product_polytope, pyramid
from toricwidth.polytope import HalfspacePolytope

# what the console script runs: unlike -m, it gives toricwidth.cli its own import-time line
ENTRY = "import sys, toricwidth.cli; sys.exit(toricwidth.cli.main())"

Result = namedtuple("Result", "code stdout stderr cpu rss")


def run(argv, limit=None, env=None) -> Result:
    """The command line on argv in a fresh interpreter, under limit, ("AS",
    MiB) or ("CPU", seconds), as soft and hard rlimit.  wait4 gives this call
    alone its CPU seconds and peak RSS in MiB, a peak that counts what the
    child held before its exec: this process's resident memory, copied by a
    fork, or its peak after a vfork, which Popen makes without preexec_fn.
    So every call forks, and no caller keeps a large output."""

    def set_limit():
        if limit:
            kind, amount = limit
            amount <<= 20 if kind == "AS" else 0
            resource.setrlimit(getattr(resource, "RLIMIT_" + kind), (amount, amount))

    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=out, stderr=err,
                                env=env, preexec_fn=set_limit)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read(), err.read(),
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cut_far(P: HalfspacePolytope) -> HalfspacePolytope:
    """P with the facet x_1 >= 10^6, which leaves it empty."""
    return HalfspacePolytope(P.normals + ((1,) + (0,) * (P.dim - 1),), P.offsets + (10**6,))


# the inputs that are no fixture, each written as JSON for its call; the
# parallelograms are the unit square sheared by 2^e
b4, b5, b8, b12, b16 = (blowup_polygon(random.Random(seed), facets)
                        for seed, facets in ((2, 4), (1, 5), (1, 8), (2, 12), (3, 16)))
POLYTOPES = {
    "triangle-10¹²": lambda: HalfspacePolytope(((1, 0), (0, 1), (-1, -1)), (0, 0, -(10**12))),
    **{f"parallelogram-2^{e}": lambda e=e: HalfspacePolytope(
        ((1, 2**e), (0, 1), (-1, -(2**e)), (0, -1)), (0, 0, -1, -1)) for e in (40, 62)},
    "b8²": lambda: product_polytope(b8, b8),
    "b8³": lambda: product_polytope(b8, b8, b8),
    "b16²": lambda: product_polytope(b16, b16),
    "b5⁴": lambda: product_polytope(*[b5] * 4),
    "b4⁵": lambda: product_polytope(*[b4] * 5),
    "b12²+x₁≥10⁶": lambda: cut_far(product_polytope(b12, b12)),
    "b8³+x₁≥10⁶": lambda: cut_far(product_polytope(b8, b8, b8)),
    **{f"pyr{D}": lambda D=D: pyramid(D) for D in (40, 80, 120)},
}


def failed_checks(r):
    checks = json.loads(r.stdout)
    return [c["name"] for c in checks if not c["passed"]] if checks else ["no checks"]


def imports(r):
    """From -X importtime: toricwidth.cli's cumulative time in us, numpy's
    modules, and toricwidth's modules with argparse if it was loaded."""
    rows = [line.split("|") for line in r.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2]
    modules = {name.strip(): cumulative.strip() for _, cumulative, name in rows}
    return (modules.get("toricwidth.cli"),
            sorted(m for m in modules if m.split(".")[0] == "numpy"),
            sorted(m for m in modules if m.split(".")[0] in ("toricwidth", "argparse")))


IMPORTS = "cli import us, numpy modules, toricwidth modules and argparse"

# what a row reads off its Result, by the name it is printed under
READ = {
    "lattice points": lambda r: json.loads(r.stdout)["lattice_point_count"],
    "vertices": lambda r: len(json.loads(r.stdout)["vertices"]),
    # one "[" per exponent and one around them: no parse of 67 MB of JSON
    "exponents": lambda r: r.stdout.count("[") - 1 if r.stdout.endswith("]]\n") else None,
    "min bound and axis maxima": lambda r: (json.loads(r.stdout)["min_bound_pi"],
                                            json.loads(r.stdout)["witnesses"]["axis_maxima"]),
    "stdout": lambda r: r.stdout,
    "failed checks": failed_checks,
    "failed checks, pullback and radial_bound deviations, CPU s": lambda r: (failed_checks(r), *map(
        {c["name"]: c["deviation"] for c in json.loads(r.stdout)}.get,
        ("symplectic_pullback", "radial_bound")), r.cpu),
    "failed checks and peak RSS": lambda r: (failed_checks(r), r.rss),
    IMPORTS: imports,
    "stdout, under 2 CPU s and 64 MiB": lambda r: (r.stdout, r.cpu < 2 and r.rss < 64),
}


def one_exponent_per_lattice_point(analyze):
    return lambda count, done: count == READ["lattice points"](done[analyze])


def package_copy(tmp):
    """tmp, holding a copy of the package with no __pycache__."""
    shutil.copytree(os.path.dirname(toricwidth.__file__), os.path.join(tmp, "toricwidth"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp


# argv: the subcommand, with the input put after it, and its options; input: a
# fixture name or a key of POLYTOPES; code, stderr: what the call must give (None:
# anything); read: a key of READ, whose value must equal want, or satisfy a callable
# want given it and check's done (None: only report it); env: variables set, a
# callable value called on the call's temporary directory
Row = namedtuple("Row", "argv input limit code stderr read want env",
                 defaults=(None, 0, "", None, None, None))

JSON, AS256, AS1G, CPU5 = ["--format", "json"], ("AS", 256), ("AS", 1024), ("CPU", 5)
IMPORTTIME = {"PYTHONPROFILEIMPORTTIME": "1"}
CORE = ["toricwidth", "toricwidth.cli", "toricwidth.fixtures", "toricwidth.lattice",
        "toricwidth.polytope"]

ROWS = [
    # radial_bound's deviation is the largest signed gap |Psi_j| - bound_j: a
    # passing run shows its margin, so exactly 0.0 means no gap was reported;
    # the potential sums example-3.8:200's 486,016 monomials per fibre in
    # closed form, within 1 CPU s
    *[Row(["verify", "--seed", "1", *JSON], f"example-3.8:{m}", limit,
          read="failed checks, pullback and radial_bound deviations, CPU s",
          want=lambda got, _, cpu=cpu: not got[0] and isinstance(got[2], float)
          and 0.0 != got[2] <= 1e-9 and got[3] < cpu)
      for m, limit, cpu in ((50, None, math.inf), (200, AS256, 1))],
    Row(["verify", "--samples", "10000", *JSON], "cpn:8:1", AS256, read="failed checks", want=[]),
    Row(["verify", "--samples", "40000", *JSON], "cpn:8:1", AS256,
        read="failed checks and peak RSS", want=lambda got, done: not got[0]
        and got[1] <= done["verify cpn:8:1 --samples 10000 --format json"].rss + 10),
    Row(["verify", *JSON], "b8³", AS256, read="failed checks", want=[]),
    # huge entries
    Row(["analyze"], "triangle-10¹²", AS1G, read="lattice points",
        want=(10**12 + 1) * (10**12 + 2) // 2),
    *[row for P in ("parallelogram-2^40", "parallelogram-2^62") for row in (
        Row(["analyze"], P, AS1G, read="lattice points", want=4),
        Row(["width"], P, AS1G, read="min bound and axis maxima", want=("2", ["1", "1"])),
        Row(["embed"], P, AS1G, read="stdout", want="[[0, 0], [0, 1], [1, 0], [1, 1]]\n"),
        Row(["verify", *JSON], P, AS1G, read="failed checks", want=[]),
    )],
    # start-up loads no numpy and no argparse, and of toricwidth the core
    # with the module of its own subcommand; from source, as with
    # PYTHONDONTWRITEBYTECODE=1 where no bytecode was ever written, the
    # import time is only reported
    *[Row([command], "example-3.8:1", stderr=None, read=IMPORTS, env=IMPORTTIME,
          want=lambda got, _, own=own: got[0] is not None and got[1] == []
          and got[2] == sorted(CORE + own))
      for command, own in (("analyze", []), ("width", ["toricwidth.width"]),
                           ("embed", ["toricwidth.embedding"]))],
    # verify loads numpy, and of toricwidth the core with the charts, the
    # embedding, the numeric layer and its own module: no fan, no argparse
    Row(["verify"], "example-3.8:1", stderr=None, read=IMPORTS, env=IMPORTTIME,
        want=lambda got, _: got[0] is not None and got[1] != [] and got[2] == sorted(
            CORE + ["toricwidth.charts", "toricwidth.embedding", "toricwidth.numeric",
                    "toricwidth.verify"])),
    Row(["analyze"], "example-3.8:1", code=None, stderr=None, read=IMPORTS,
        env={**IMPORTTIME, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": package_copy}),
    Row(["analyze"], "cpn:3:300", read="lattice points"),
    Row(["embed"], "cpn:3:300", ("AS", 128), read="exponents",
        want=one_exponent_per_lattice_point("analyze cpn:3:300")),
    # products of blow-up polygons
    *[row for P in ("b16²", "b8³") for row in (
        Row(["analyze"], P, read="lattice points"),
        Row(["embed"], P, read="exponents", want=one_exponent_per_lattice_point("analyze " + P)),
    )],
    Row(["verify", "--seed", "1", "--samples", "3", *JSON], "b16²", read="failed checks", want=[]),
    Row(["verify", "--seed", "1", *JSON], "b8²", read="failed checks", want=[]),
    # many vertices, and no vertex, under 5 CPU s; verify's chart tables on
    # b5⁴ and b4⁵ (625 and 1,024 charts) are the largest a CPU-bounded row reaches
    *[row for P, count in (("b5⁴", 625), ("b4⁵", 1024)) for row in (
        Row(["analyze"], P, CPU5, read="vertices", want=count),
        Row(["width"], P, CPU5),
        Row(["embed"], P, CPU5, read="exponents",
            want=one_exponent_per_lattice_point("analyze " + P)),
        Row(["verify", *JSON], P, CPU5, read="failed checks", want=[]),
    )],
    *[Row(["analyze"], P, CPU5, 3, "error: no feasible vertex\n")
      for P in ("b12²+x₁≥10⁶", "b8³+x₁≥10⁶")],
    # an apex on D facets is refused, quickly and in little memory
    *[Row(["analyze"], f"pyr{D}", ("CPU", 10), 3,
          f"error: vertex ({c}, {c}, 1) lies on {D} facets\n",
          read="stdout, under 2 CPU s and 64 MiB", want=("", True))
      for D, c in ((40, 32), (80, 128), (120, 256))],
]


def check(row: Row, done: dict) -> tuple[str, bool]:
    """Run row's call: its summary line, and whether it gave what row expects;
    done holds the Result of each row run before, by its label."""
    label = " ".join([row.argv[0], row.input, *row.argv[1:]])
    with tempfile.TemporaryDirectory() as tmp:
        spec = row.input
        if spec in POLYTOPES:
            spec = os.path.join(tmp, "input.json")
            with open(spec, "w") as f:
                json.dump(polytope_data(POLYTOPES[row.input]()), f)
        env = row.env and {**os.environ, **{k: v(tmp) if callable(v) else v
                                            for k, v in row.env.items()}}
        r = run([row.argv[0], spec, *row.argv[1:]], row.limit, env)
    # no later row reads an output past 1 MiB (embed's exponents reach 67 MB),
    # and one kept would count in the peak RSS of every later call
    done[label] = r if len(r.stdout) < 1 << 20 else r._replace(stdout=None)
    ok = row.code in (None, r.code) and row.stderr in (None, r.stderr)
    if row.limit:
        label += " under %d %s" % (row.limit[1], "MiB" if row.limit[0] == "AS" else "CPU s")
    line = "%s: exit %d, %.2f CPU s, peak RSS %.1f MiB" % (label, r.code, r.cpu, r.rss)
    if row.read:
        try:
            got = READ[row.read](r)
            if row.want is not None:
                ok &= row.want(got, done) if callable(row.want) else got == row.want
        except (ValueError, KeyError, TypeError) as e:
            got, ok = "unreadable (%r)" % e, False
        line += ", %s %r" % (row.read, got)
    if row.stderr or not ok:
        line += ", stderr %r" % r.stderr[-300:]
    return line, ok


def main():
    failed, done = [], {}
    for row in ROWS:
        line, ok = check(row, done)
        print(line, flush=True)
        failed += [] if ok else [line]
    if failed:
        sys.exit("failed: " + "; ".join(failed))


if __name__ == "__main__":
    main()
