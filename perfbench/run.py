"""The shiftlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a shiftlab checkout; the package is imported from its
`src/` directory, never from an installed copy.  Workloads are defined in
`workloads.py`.  Each pass runs a workload's generated configs one after
another through `shiftlab.cli.main` in a fresh interpreter (`worker.py`),
with `--jobs 1`: a closed loop with a single client.  After a minimum number
of passes, passes repeat while another one is expected to end within S
seconds.

--trace 0 reports the end-to-end metrics with tracing off: `setup_s` (import
`shiftlab.cli` and run `shiftlab list` in a fresh interpreter; the median of
one block taken before the first pass), `wall_s` (one
pass of the workload's configs) and `peak_rss_mb` (peak resident memory of
the process that ran the pass), plus `fail_frac`.  The set-up block counts
against S.

--trace 1 alternates untraced passes with at least two traced ones and
reports per-layer metrics from the traced passes (see `tracer.py`), the
tracing overhead and the part of traced wall time no layer span covers.

Every run of every pass is checked: exit code 0, verdict "pass", no
exception, and summary and detail files byte-identical to `reference.json`
on the default seed (to the first pass on other seeds).  Human-readable
lines come first; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed in fresh interpreters, in one block of SETUP_REPS before the
# first pass, so that no timing follows a pass's freeing of several hundred MB.
# A single set-up takes about 0.15-0.2 s and varies by +-20% from one to the
# next on a shared machine, so the median needs many of them.
SETUP_REPS = 24
MIN_PASSES = 3          # untraced passes per run, so wall_s is always a median of 3+
RUN_LIMIT_S = 170       # a run must end within 180 s, whatever the passes do
MIN_TRACED = 2          # traced passes per traced run, for the exact-count check

CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")
CHILD_ENV.pop("SHIFTLAB_OUT_DIR", None)

SETUP_SNIPPET = r"""
import contextlib, io, sys, time
from pathlib import Path
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import shiftlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = shiftlab.cli.main(["list"])
t1 = time.perf_counter()
here = Path(shiftlab.__file__).resolve().parent
if code != 0 or here != Path(sys.argv[1]).resolve() / "shiftlab":
    sys.exit(f"setup call failed: exit {code}, package at {here}")
print(repr(t1 - t0))
"""

BYTES_NOTE = ("bytes_computed is computed from array sizes (inputs and outputs "
              "of each layer's outermost calls), not measured traffic; no "
              "bandwidth ratio is reported because the largest array "
              "(37.6 MB on rokhlin-scale) is below 4x the last-level cache, "
              "so it would measure cache, not memory")


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy number."""


# -- environment -------------------------------------------------------------------


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (checkout is not a git repository)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return res.stdout.strip() or "unavailable"


def environment(root: Path, workload: str) -> dict:
    import numpy
    return {"git_sha": _git_sha(root), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "caches": _cache_sizes(), "array_sizes": workloads.ARRAY_SIZES[workload],
            "bytes_note": BYTES_NOTE}


# -- measuring ---------------------------------------------------------------------


def measure_setup(src: Path, reps: int) -> list:
    times = []
    for _ in range(reps):
        res = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(src)],
                             capture_output=True, text=True, timeout=60, env=CHILD_ENV)
        if res.returncode != 0:
            raise BenchError(f"set-up call failed: {res.stderr.strip()[-500:]}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def _died(runs, why: str) -> dict:
    """A pass whose worker died: every run in it counts as failed."""
    return {"wall_s": None, "peak_rss_mb": None, "layers": None,
            "runs": [{"name": n, "code": None, "error": why, "verdict": None,
                      "hashes": {}} for n, _c in runs]}


def run_pass(src: Path, work: Path, runs, trace: bool, timeout: float) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = work / "job.json"
    job.write_text(json.dumps({"src": str(src), "out": str(work), "trace": trace,
                               "runs": runs}))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job)],
                              capture_output=True, text=True, timeout=timeout,
                              env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        return _died(runs, f"pass killed after {timeout:.0f} s")
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return _died(runs, (proc.stderr or proc.stdout).strip()[-1000:] or "worker died")
    return json.loads(result_path.read_text())


def judge(run: dict, expected) -> str:
    """Why a config run failed, or '' when it is correct."""
    if run["error"]:
        return "exception: " + run["error"].strip().splitlines()[-1]
    if run["code"] != 0:
        return f"exit code {run['code']}"
    if run["verdict"] != "pass":
        return f"verdict {run['verdict']!r}"
    if expected is not None and run["hashes"] != expected:
        bad = sorted(k for k in set(run["hashes"]) | set(expected)
                     if run["hashes"].get(k) != expected.get(k))
        return "reports differ from the reference: " + ", ".join(bad)
    return ""


class Ledger:
    """Attempted and failed config runs, judged against reference hashes."""

    def __init__(self, reference: dict | None):
        self.reference = reference      # name -> {file: sha256}, or None
        self.first: dict = {}
        self.attempted = 0
        self.failures: list = []

    def add(self, runs):
        for run in runs:
            if self.reference is not None:
                expected = self.reference.get(run["name"], {})
            else:
                expected = self.first.get(run["name"])
            self.attempted += 1
            why = judge(run, expected)
            if why:
                self.failures.append(f"{run['name']}: {why}")
            else:
                self.first.setdefault(run["name"], run["hashes"])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def closed_loop(start: float, seconds: float, plan, do_pass):
    """Run passes in `plan` order (the plan repeats its tail) while the next
    one is expected to end within `seconds` of `start`; the leading `must`
    entries always run."""
    must, cycle = plan
    longest = 0.0
    i = 0
    while True:
        kind = must[i] if i < len(must) else cycle[(i - len(must)) % len(cycle)]
        if i >= len(must) and time.perf_counter() - start + longest > seconds:
            break
        longest = max(longest, do_pass(kind))
        i += 1


# -- reporting ----------------------------------------------------------------------


def show(name, values, unit):
    q1, med, q3 = quartiles(values)
    print(f"  {name:<34} {med:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def declared(root: Path, trace: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(ledger: Ledger, metrics: dict, wanted: dict):
    out = {}
    for name, unit in wanted.items():
        if name not in metrics:
            raise BenchError(f"declared metric {name} was not measured")
        value, have = metrics[name]
        if have != unit:
            raise BenchError(f"metric {name} measured in {have}, declared in {unit}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": out}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs for the harness self-test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "shiftlab" / "cli.py").is_file():
        print(f"no shiftlab sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    wanted = declared(root, bool(args.trace))
    try:
        runs = workloads.generate(args.workload, root, args.seed, args.size)
    except OSError as exc:
        print(f"cannot read the workload's configs: {exc}", file=sys.stderr)
        return 2
    reference = None
    if args.seed == workloads.DEFAULT_SEED and args.size == "full":
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    ledger = Ledger(reference)
    work = root / ".perfbench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment(root, args.workload)
    (work / "env.json").write_text(json.dumps(env, indent=2))
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("environment: " + json.dumps(env))
    for name, cfg in runs:
        print(f"  config {name}: {json.dumps(cfg, sort_keys=True)}")

    deadline = time.perf_counter() + RUN_LIMIT_S
    passes = {"untraced": [], "traced": []}

    def do_pass(kind):
        start = time.perf_counter()
        n = len(passes["untraced"]) + len(passes["traced"])
        result = run_pass(src, work / f"pass-{n}", runs, kind == "traced",
                          timeout=max(1.0, deadline - start))
        ledger.add(result["runs"])
        if result["wall_s"] is not None:
            passes[kind].append(result)
        return time.perf_counter() - start

    metrics = {}
    try:
        start = time.perf_counter()
        if not args.trace:
            measure_setup(src, 1)  # compiles bytecode and warms the page cache
            setup = measure_setup(src, SETUP_REPS)
            closed_loop(start, args.seconds, (["untraced"] * MIN_PASSES, ["untraced"]),
                        do_pass)
            metrics.update(end_to_end(setup, passes["untraced"]))
        else:
            closed_loop(start, args.seconds, (["untraced"] + ["traced"] * MIN_TRACED,
                                              ["untraced", "traced"]), do_pass)
            metrics.update(per_layer(passes))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3

    print(f"  fail_frac: {len(ledger.failures)}/{ledger.attempted} config runs failed")
    for why in ledger.failures[:20]:
        print(f"    FAILED {why}")
    try:
        emit(ledger, metrics, wanted)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    return 0


def end_to_end(setup, passes) -> dict:
    if not passes:
        raise BenchError("no pass completed")
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    print("end-to-end (tracing off; median, quartiles, sample count):")
    show("setup_s", setup, "s")
    show("wall_s", walls, "s")
    show("peak_rss_mb", rss, "MB")
    out = {"setup_s": (statistics.median(setup), "s"),
           "wall_s": (statistics.median(walls), "s"),
           "peak_rss_mb": (statistics.median(rss), "MB")}
    return out


UNITS = {"_s": "s", ".ns_per_point": "ns", ".ns_per_value": "ns",
         ".ms_per_step": "ms", ".select_ratio": "ratio", "bytes_computed": "B",
         "_frac": "frac"}


def _unit(name: str) -> str:
    if name.startswith("cli.driver_s."):
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(passes) -> dict:
    traced, untraced = passes["traced"], passes["untraced"]
    if len(traced) < MIN_TRACED or not untraced:
        raise BenchError("the traced run needs one untraced and two traced passes")
    layers = [p["layers"] for p in traced]
    for name, value in layers[0].items():
        if isinstance(value, int) and any(l[name] != value for l in layers[1:]):
            raise BenchError(f"count {name} differs between traced passes of the "
                             f"same code and seed: {[l[name] for l in layers]}")
    walls = [p["wall_s"] for p in traced]
    plain = [p["wall_s"] for p in untraced]
    rows = {name: [l[name] for l in layers] for name in layers[0]}
    rows["traced_wall_s"] = walls
    rows["untraced_wall_s"] = plain
    # counts are identical across traced passes (checked above)
    out = {name: (v[0] if isinstance(v[0], int) else statistics.median(v), _unit(name))
           for name, v in rows.items()}
    out["trace_overhead_frac"] = (statistics.median(walls) / statistics.median(plain) - 1,
                                  "frac")

    print("per layer (traced passes; median, quartiles, sample count):")
    for name in sorted(rows):
        show(name, rows[name], _unit(name))
    show("trace_overhead_frac", [out["trace_overhead_frac"][0]], "frac")
    for i, (l, w) in enumerate(zip(layers, walls)):
        accounted = sum(l[f"{layer}.self_s"] for layer in tracer.LAYERS) + \
            l["cli.driver_self_s"] + l["uncovered_s"]
        top = max(tracer.LAYERS, key=lambda layer: l[f"{layer}.self_s"])
        print(f"  traced pass {i}: layer self times + driver self time + uncovered "
              f"= {accounted:.6f} s of traced wall {w:.6f} s; top layer {top}")
    return out


if __name__ == "__main__":
    sys.exit(main())
