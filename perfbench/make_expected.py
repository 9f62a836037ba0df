"""Write `expected.json`: the SHA-256 of every candidate op's canonical output.

Run it only at a commit whose outputs are known to be right, from the
repository root:

    python3 perfbench/make_expected.py

It runs every candidate input of every slot once (a few minutes) and
stores one digest per candidate, so that a run on any seed can check each
of its outputs exactly.  Digests already in the file are kept and only
missing ones are computed: regenerating a stored digest at a later
commit would hide a wrong result.  Delete a slot's keys by hand only
when the slot's inputs change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure, program, workloads  # noqa: E402

TARGET = Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    mods = program.load()
    digests: dict[str, str] = json.loads(TARGET.read_text())["digests"] if TARGET.is_file() else {}
    for workload in workloads.WORKLOADS.values():
        for slot in range(len(workload.slots)):
            for cand in range(workload.pool):
                op_input = workloads.candidate(workload, slot, cand)
                if op_input.key in digests:
                    continue
                op = workloads.build(op_input, mods)
                code, data = workloads.outcome(op.input, op.call())
                if code != 0:
                    print(f"{op.input.key} ({op.label}) exited with code {code}", file=sys.stderr)
                    return 1
                digests[op.input.key] = measure.digest(data)
        print(f"{workload.name}: {len(workload.slots)} slots x {workload.pool} candidates", file=sys.stderr)
    TARGET.write_text(json.dumps({"digests": dict(sorted(digests.items()))}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
