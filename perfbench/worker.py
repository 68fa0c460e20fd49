"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

JOB.json names the checkout's `src` directory, the output directory, the
(name, config) runs and whether to trace.  The configs run one after another
through `shiftlab.cli.main` with `--jobs 1` (a closed loop with one client);
each run's reports are hashed and its verdict read back.  The pass result is
written to `result.json` in the output directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def report_hashes(out: Path) -> dict:
    """sha256 of every summary and detail file; meta files carry wall-clock
    data and are skipped."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file() and not p.name.endswith("-meta.json")}


def run_one(cli, name: str, config: dict, work: Path) -> dict:
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = work / name
    out.mkdir()
    record = {"name": name, "code": None, "error": None}
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            record["code"] = cli.main(["run", str(cfg_path), "--out", str(out),
                                       "--jobs", "1"])
    except Exception:
        record["error"] = traceback.format_exc(limit=3)
    record["wall_s"] = time.perf_counter() - start
    record["output"] = sink.getvalue()[-2000:]
    summaries = list(out.glob("*-summary.json"))
    record["verdict"] = (json.loads(summaries[0].read_text())["summary"].get("verdict")
                         if len(summaries) == 1 else None)
    record["hashes"] = report_hashes(out)
    return record


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import shiftlab
    import shiftlab.cli as cli
    if Path(shiftlab.__file__).resolve().parent != src / "shiftlab":
        print(f"shiftlab imported from {shiftlab.__file__}, not {src}", file=sys.stderr)
        return 2

    work = Path(job["out"])
    trace = tracer.Tracer() if job["trace"] else None
    if trace is not None:
        tracer.install(trace, shiftlab)

    runs = [run_one(cli, name, config, work) for name, config in job["runs"]]
    wall = sum(r["wall_s"] for r in runs)
    result = {"wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "runs": runs, "layers": None}
    if trace is not None:
        trace.write_spans(work / "spans.csv")
        result["layers"] = tracer.layer_metrics(trace.summary(), wall, sorted(cli.RUNNERS))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
