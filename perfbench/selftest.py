"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs every workload at reduced size in
both modes and checks that the last line carries exactly the metrics that
BENCHMARK.json declares, each with its unit and also printed by name above
it; that a corrupted copy of a report counts as a failed run while a
changed meta file does not; that the benchmark fails without a result in a
directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from worker import report_hashes

ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(workload: str, trace: int, problems: list):
    res = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--size", "small")
    tag = f"{workload} --trace {trace}"
    if res.returncode != 0:
        problems.append(f"{tag}: exit {res.returncode}: {res.stderr[-500:]}")
        return
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: not correct: {result['attempted']} attempted, "
                        f"{result['failed']} failed")
    wanted = run.declared(ROOT, bool(trace))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(wanted))}")
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) > 2}
    for name, unit in wanted.items():
        value = result["metrics"].get(name, {}).get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"{tag}: {name} has no numeric value")
        if printed.get(name) != unit:
            problems.append(f"{tag}: {name} [{unit}] not printed with its unit")


def check_corruption(problems: list):
    """A byte flipped in a copy of a report is a failed run; meta is ignored."""
    runs = workloads.generate("lab-configs", ROOT, 0, "small")
    result = run.run_pass(ROOT / "src", WORK / "pass", runs, trace=False, timeout=600)
    record = next(r for r in result["runs"] if r["name"] == "moser-tardos")
    reference = {"moser-tardos": record["hashes"]}
    copy = WORK / "corrupted"
    shutil.copytree(WORK / "pass" / "moser-tardos", copy)

    def failures_after(path):
        ledger = run.Ledger(reference)
        ledger.add([dict(record, hashes=report_hashes(path))])
        return len(ledger.failures)

    (copy / "moser-tardos-meta.json").write_text("{}\n")
    if failures_after(copy) != 0:
        problems.append("a changed meta file was counted as a failure")
    summary = copy / "moser-tardos-summary.json"
    data = bytearray(summary.read_bytes())
    data[len(data) // 2] ^= 1
    summary.write_bytes(bytes(data))
    if failures_after(copy) != 1:
        problems.append("a corrupted report copy was not counted as a failure")


def check_bare_directory(problems: list):
    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", "rokhlin-scale", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=bare)
    if res.returncode == 0 or res.stdout.strip().startswith("{") \
            or '"correct"' in res.stdout:
        problems.append("the benchmark did not fail without sources")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    problems: list = []
    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            check_metrics(workload, trace, problems)
    check_corruption(problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
