"""Record the outputs that fixture inputs must keep, into expected.json.

    python3 perfbench/record_expected.py

Run it only when an output is meant to change; the benchmark compares later
versions of the program against what this wrote.  `verify` outputs are not
recorded: they must pass, and their float deviations are not pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    cli = run.import_program()
    expected = {}
    for name in workloads.WORKLOADS:
        for inp in workloads.workload_inputs(name, 0, run.RUN_DIR / "record"):
            if inp.polygon is not None:
                continue
            for sub in inp.subcommands:
                key = f"{sub} {inp.spec}"
                if sub == "verify" or key in expected:
                    continue
                _, _, rc, error, out, err = run.timed_call(cli, run.argv_for(sub, inp, 0))
                if error is not None or rc != 0:
                    sys.exit(f"{key}: exit {rc}, {error!r}, {err.strip()}")
                expected[key] = checks.record(sub, json.loads(out))
                print(key, file=sys.stderr)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
