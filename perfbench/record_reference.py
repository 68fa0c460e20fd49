"""Record the reference report hashes behind `fail_frac`.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose reports are known to be right.  Each
workload runs twice at the default seed; the sha256 of every summary and
detail file is written to `reference.json` only when both passes pass their
verdicts and agree byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        runs = workloads.generate(name, root, workloads.DEFAULT_SEED)
        ledger = run.Ledger(None)
        for i in range(2):
            result = run.run_pass(src, root / ".perfbench-work" / "reference" / str(i),
                                            runs, trace=False, timeout=600)
            ledger.add(result["runs"])
        if ledger.failures:
            print(f"{name}: not recorded: {ledger.failures}", file=sys.stderr)
            return 1
        reference[name] = ledger.first
        print(f"{name}: {sum(len(h) for h in ledger.first.values())} files")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
