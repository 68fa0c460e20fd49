"""Workload definitions for the shiftlab benchmark.

Each workload is a list of (name, config) pairs generated from the workload
seed; the program sees only these generated configs.  Seed 0 is the default:
on it, `lab-configs` runs the shipped `configs/*.json` values exactly, and
every workload's reports are pinned by sha256 in `reference.json`.

The `small` size shrinks every workload so the harness self-test runs in
seconds; its reports are not pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 0

# The ten shipped configs, by name, with the reduced parameters the self-test
# runs them at; every one still passes its verdict at that size.
SHIPPED_SMALL = {
    "approx-invariant": {"d_size": 4000, "modulus": 20000},
    "concentration-sweep": {"ks": [2], "s_sizes": [1], "eps_list": ["0.2"],
                            "d_sizes": [500], "trials": 1000, "modulus": 5000},
    "ergodic-converge": {"C": 500, "n_max": 10, "samples": 50},
    "lll-glll": {"n_prefix": 8},
    "lll-slll": {"d_size": 4000, "shape": "interval"},
    "moser-tardos-small": {"seeds": 2},
    "moser-tardos": {"modulus": 20000, "seeds": 3},
    "resfin": {},
    "rokhlin-bad": {"i_max": 2, "single": {"eps": "0.1", "h": 5, "modulus": 4200}},
    "uniform-discrepancy": {"modulus": 20000},
}


def _seed_list(count: int, seed: int):
    """Seeds {count*seed, ..., count*seed + count - 1}; the count form on the
    default seed, which is how the shipped configs spell range(count)."""
    if seed == DEFAULT_SEED:
        return count
    return list(range(count * seed, count * seed + count))


def _reseed(config: dict, seed: int) -> dict:
    cfg = dict(config)
    if "seed" in cfg:
        cfg["seed"] = cfg["seed"] + seed
    if isinstance(cfg.get("seeds"), int):
        cfg["seeds"] = _seed_list(cfg["seeds"], seed)
    return cfg


def lab_configs(root: Path, seed: int, size: str):
    # Why: this is what users run.  Most of its time is in rng
    # (color_matrix in concentration-sweep) and groups (integer_interval in
    # ergodic-converge, difference sets in lll-slll); moser-tardos runs the
    # certified regime, where detection and the post-run ledger dominate and
    # selection is nearly free.  The lll-* and resfin configs have no seed
    # key and do the same work on every seed.
    runs = []
    for name in sorted(SHIPPED_SMALL):
        cfg = json.loads((root / "configs" / f"{name}.json").read_text())
        if size == "small":
            cfg.update(SHIPPED_SMALL[name])
        runs.append((name, _reseed(cfg, seed)))
    return runs


def rokhlin_scale(root: Path, seed: int, size: str):
    # Why: memory-bound and large.  Six stages with h=1 share the modulus
    # M=4,703,985, so each int64 array is 37.6 MB; windows.circular_window_sums
    # (the fancy-index gather) and rokhlin's level arrays dominate.  It runs
    # no rng sampling and no groups work: the "no change" control for them.
    i_max = 6 if size == "full" else 3
    return [("rokhlin-scale", {"experiment": "rokhlin-bad", "h": 1,
                               "i_max": i_max, "seed": seed})]


WORKLOADS = {
    "lab-configs": lab_configs,
    "rokhlin-scale": rokhlin_scale,
}

# Largest arrays each workload allocates at full size, from its parameters.
ARRAY_SIZES = {
    "lab-configs": "moduli 5,000-420,000 (int64 arrays up to 3.4 MB); "
                   "color_matrix blocks up to 200 x 41,399 (66 MB as int64) in "
                   "ergodic-converge and 2000 x 2001 (32 MB) in concentration-sweep",
    "rokhlin-scale": "M=4,703,985: int64 arrays of 37.6 MB, bool masks of 4.7 MB",
}


def generate(workload: str, root: Path, seed: int, size: str = "full"):
    """The (name, config) list one pass of `workload` runs, for the checkout
    at `root`."""
    return WORKLOADS[workload](root, seed, size)
