"""Record the reference output of every workload at the default seed.

    python3 bench/make_reference.py

Runs one pass of each workload on the default-seed inputs with the
package in this checkout's ``src/`` and writes the configs and output
rows to ``bench/reference/<workload>.json``. The committed files were
made at the commit that introduced the benchmark; regenerate them only
when the workload inputs change, never to absorb a change of results.
"""

from __future__ import annotations

import json
import sys

from checks import read_output
from run import REFERENCE, WORK, Runner, import_package
from workloads import DEFAULT_SEED, WORKLOADS, build


def main() -> int:
    cli, response = import_package()
    workdir = WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    for workload in sorted(WORKLOADS):
        commands = build(workload, DEFAULT_SEED)
        result = Runner(cli, response, workdir).run_pass(commands)
        if result.problems:
            sys.exit(f"{workload}: " + "; ".join(result.problems))
        recorded = []
        for cmd in commands:
            out = workdir / f"{cmd.label}.{cmd.fmt}"
            columns, rows = read_output(out, cmd.fmt)[1:] if out.exists() else (None, None)
            recorded.append({"label": cmd.label, "config": cmd.config,
                             "columns": columns, "rows": rows})
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps({"workload": workload, "seed": DEFAULT_SEED,
                                    "commands": recorded}, indent=1) + "\n")
        print(f"wrote {path}: {result.attempted} rows, {result.failed} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
