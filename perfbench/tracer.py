"""Layer spans for shiftlab, recorded from outside the package.

`install` replaces every public module-level function of each layer module
by a timing wrapper, at every module binding that refers to it (so
`cli.run_mt` and `ergodic.run_mt` are traced as well as
`moser_tardos.run_mt`), and wraps the `cli.RUNNERS` drivers.  Nothing under
`src/` changes.  Spans (name, start, end, parent, failed) are kept in memory
and written out by `write_spans` when the pass ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "groups", "shift", "concentration", "lll", "moser_tardos",
          "ergodic", "rokhlin", "rng", "windows")
DRIVER = "cli.driver."   # span-name prefix of the RUNNERS entries

# Counts that must repeat exactly between traced passes of the same code and
# seed; each is checked, and a mismatch is a benchmark error.
EXACT_COUNTS = ("rng.values", "windows.points", "groups.elements_built",
                "moser_tardos.steps", "moser_tardos.candidates",
                "moser_tardos.selected")


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _array_bytes(args, result) -> int:
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if isinstance(result, np.ndarray):
        arrays.append(result)
    return sum(a.nbytes for a in arrays)


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent index, failed]
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        row = [name, 0.0, 0.0, parent, False]
        self.spans.append(row)
        self.stack.append(len(self.spans) - 1)
        row[1] = time.perf_counter()
        return row

    def _close(self, row, failed):
        row[2] = time.perf_counter()
        row[4] = failed
        self.stack.pop()

    def _parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def wrap(self, name, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        def traced(*args, **kwargs):
            parent = self._parent_name()
            row = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(row, True)
                raise
            self._close(row, False)
            if hook is not None:
                hook(self.counts, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        # The work of a generator happens while it is resumed, so each resume
        # is its own span under whatever span is active at that moment.
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                row = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(row, False)
                    return
                except BaseException:
                    self._close(row, True)
                    raise
                self._close(row, False)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,failed\n")
            for i, (name, start, end, parent, failed) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{int(failed)}\n")

    def summary(self) -> dict:
        """Per-span-name inclusive time, self time, calls and failures, plus
        the total of the top-level spans."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _f in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict = {}
        top = 0.0
        for i, (name, start, end, parent, failed) in enumerate(self.spans):
            dur = end - start
            rec = by_name.setdefault(name, [0.0, 0.0, 0, 0])
            rec[0] += dur
            rec[1] += dur - child[i]
            rec[2] += 1
            rec[3] += int(failed)
            if parent < 0:
                top += dur
        return {"names": {k: {"incl_s": v[0], "self_s": v[1], "calls": v[2],
                              "failed": v[3]} for k, v in by_name.items()},
                "top_s": top, "counts": dict(self.counts)}


# -- count hooks at the layer boundaries -----------------------------------------


def _hooks(pkg):
    """Per-span-name functions that add deterministic work counts."""
    GroupSet = pkg.groups.GroupSet
    sig = {name: inspect.signature(getattr(getattr(pkg, mod), name))
           for mod, name in (("windows", "circular_window_sums"),
                             ("rokhlin", "build_tower"),
                             ("concentration", "mc_deviation_prob"),
                             ("ergodic", "ergodic_convergence_experiment"))}

    def layer_bytes(layer):
        # computed from array sizes at the layer's outermost calls
        def hook(c, parent, args, kwargs, result):
            if not parent.startswith(layer + "."):
                c[layer + ".bytes_computed"] += _array_bytes(args, result)
        return hook

    rng_bytes = layer_bytes("rng")

    def uniform_colors(c, parent, args, kwargs, result):
        c["rng.values"] += int(np.size(result))
        rng_bytes(c, parent, args, kwargs, result)

    win_bytes = layer_bytes("windows")

    def window_sums(c, parent, args, kwargs, result):
        m = int(_arg(sig["circular_window_sums"], args, kwargs, "modulus"))
        c["windows.points"] += m
        c["windows.max_points"] = max(c["windows.max_points"], m)
        win_bytes(c, parent, args, kwargs, result)

    def group_set(c, parent, args, kwargs, result):
        if isinstance(result, GroupSet):
            c["groups.elements_built"] += len(result)

    def run_mt(c, parent, args, kwargs, result):
        c["moser_tardos.steps"] += result.steps
        c["moser_tardos.selected"] += sum(result.index_counts.values())
        c["moser_tardos.points_advanced"] += int(result.t.sum())

    def violated(c, parent, args, kwargs, result):
        if parent == "moser_tardos.run_mt":
            c["moser_tardos.candidates"] += len(result)

    def build_tower(c, parent, args, kwargs, result):
        c["rokhlin.point_stages"] += int(_arg(sig["build_tower"], args, kwargs, "modulus"))

    def trials(c, parent, args, kwargs, result):
        c["concentration.trials"] += int(_arg(sig["mc_deviation_prob"], args, kwargs, "trials"))

    def samples(c, parent, args, kwargs, result):
        c["ergodic.samples"] += int(_arg(sig["ergodic_convergence_experiment"],
                                         args, kwargs, "samples"))

    hooks = {
        "rng.uniform_colors": uniform_colors,
        "windows.circular_window_sums": window_sums,
        "moser_tardos.run_mt": run_mt,
        "moser_tardos.violated_anchors": violated,
        "rokhlin.build_tower": build_tower,
        "concentration.mc_deviation_prob": trials,
        "ergodic.ergodic_convergence_experiment": samples,
    }
    return hooks, {"rng": rng_bytes, "windows": win_bytes, "groups": group_set}


def install(tracer: Tracer, pkg):
    """Wrap every layer's public functions at every binding under `pkg`."""
    hooks, layer_hooks = _hooks(pkg)
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"{pkg.__name__}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[obj] = tracer.wrap(name, obj, hooks.get(name) or layer_hooks.get(layer))
    prefix = pkg.__name__ + "."
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == pkg.__name__ or mod_name.startswith(prefix)):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    runners = sys.modules[f"{pkg.__name__}.cli"].RUNNERS
    for kind, fn in list(runners.items()):
        runners[kind] = tracer.wrap(DRIVER + kind, fn)


def _ratio(num, den):
    """num/den, or 0 when the layer did no such work."""
    return num / den if den else 0.0


def layer_metrics(summary: dict, traced_wall_s: float, kinds) -> dict:
    """Per-layer self times, calls, failures and work counts from one traced
    pass, with `cli.driver_s.<kind>` for every experiment kind in `kinds` (0
    for a kind the pass did not run).  Layer self times, the drivers' self
    time and `uncovered_s` add up to `traced_wall_s`."""
    names, counts = summary["names"], summary["counts"]

    def total(key, pred):
        return sum(v[key] for k, v in names.items() if pred(k))

    out = {}
    for layer in LAYERS:
        mine = lambda k, p=layer + ".": k.startswith(p) and not k.startswith(DRIVER)
        out[f"{layer}.self_s"] = total("self_s", mine)
        out[f"{layer}.calls"] = total("calls", mine)
        out[f"{layer}.failed"] = total("failed", mine)
    driver = lambda k: k.startswith(DRIVER)
    out["cli.driver_self_s"] = total("self_s", driver)
    for kind in kinds:
        out["cli.driver_s." + kind] = names.get(DRIVER + kind, {}).get("incl_s", 0.0)
    out["cli.driver_calls"] = total("calls", driver)
    out["cli.driver_failed"] = total("failed", driver)

    def get(name, key):
        return names.get(name, {}).get(key, 0.0)

    for key in ("rng.values", "rng.bytes_computed", "windows.points",
                "windows.max_points", "windows.bytes_computed",
                "groups.elements_built", "moser_tardos.steps",
                "moser_tardos.candidates", "moser_tardos.selected",
                "moser_tardos.points_advanced", "rokhlin.point_stages",
                "concentration.trials", "ergodic.samples"):
        out[key] = counts.get(key, 0)
    out["rng.ns_per_value"] = 1e9 * _ratio(out["rng.self_s"], out["rng.values"])
    out["windows.ns_per_point"] = 1e9 * _ratio(out["windows.self_s"], out["windows.points"])
    mt = "moser_tardos."
    out[mt + "select_self_s"] = get(mt + "run_mt", "self_s")
    out[mt + "detect_self_s"] = get(mt + "violated_anchors", "self_s") + \
        get(mt + "frequency_counts", "self_s")
    out[mt + "verify_s"] = sum(get(mt + n, "incl_s") for n in
                               ("stabilization_ledger", "tape_consistency",
                                "resample_fraction"))
    out[mt + "select_ratio"] = _ratio(out[mt + "selected"], out[mt + "candidates"])
    out[mt + "ms_per_step"] = 1e3 * _ratio(get(mt + "run_mt", "incl_s"), out[mt + "steps"])
    out["uncovered_s"] = traced_wall_s - summary["top_s"]
    return out
