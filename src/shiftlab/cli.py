"""Batch experiment runner.

    shiftlab run <config.json> [--jobs N] [--out DIR] [--transcript]
    shiftlab describe <kind>
    shiftlab list

Configs are JSON with a mandatory "experiment" key naming the kind and a
kind-specific parameter block (unknown keys are rejected).  Every key's
type and every rule across keys (`describe` lists both) is checked before
the output directory is made and before the experiment starts.  Each run
emits <kind>-summary.json plus CSV detail next to it; summaries embed the
resolved config and the tool version and are byte-identical for identical
config+seed (wall-clock data goes to a separate -meta.json).

Exit codes: 0 success, 1 usage or config error, 2 verdict failure (an
asserted bound was violated empirically), 3 internal fault (the experiment
raised an exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import re
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .concentration import deviation_exponent, deviation_sweep
from .ergodic import (ergodic_convergence_experiment, log_growth_size,
                      near_invariant_measure, periodic_cylinder_table,
                      uniform_discrepancy_experiment)
from .groups import CyclicTranslation, GroupSet, integer_interval
from .lll import (CertificationError, FrequencyDeviationEvent, GLLLWitnessSpec, SearchError,
                  check_glll_witness, default_witness_exponent,
                  find_log_growth_constant, find_slll_threshold, slll_stats)
from .moser_tardos import (PATTERN_CAP, TapeSpace, resample_fraction, run_mt,
                           scans_patterns, stabilization_ledger, tape_consistency)
from .rng import _kernel_mark, _kernel_meta, derive_seed
from .rokhlin import (MODULUS_CAP, bad_sequence_experiment, build_tower, plan_intervals,
                      plan_stages, tower_level_rows, verify_capture)
from .shift import Pattern, as_fraction

EXIT_OK, EXIT_USAGE, EXIT_VERDICT, EXIT_FAULT = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


# -- parameter schemas -------------------------------------------------------
# Each parameter is (type, required, doc[, default]); `required` is True, False
# or (key, value): required when the config sets key to value.  A type is a
# type string (see `_conforms`), a parameter dict for a JSON object, or [dict]
# for a list of such objects.
#
# Each rule is (keys, predicate, message).  A kind's rules run in order once
# every parameter has its type; a rule applies when each of its keys is set
# (a dotted key names a key of a nested object), and then `predicate` must
# hold on the `_Facts` of the parameters, or the config is rejected with
# `message` formatted from the same facts (which name the kind `kind`);
# `describe` prints each message with its values left out.  A rule states a precondition of
# what the driver calls, and reads any quantity it derives from the library
# function the driver uses for it.

# an interval of length n is free on Z/M iff n <= M
_FREE_FOR_SD = (("s_size", "d_size", "modulus"), lambda f: f["modulus"] >= f["sd_size"],
                "{kind}: modulus must be >= s_size + d_size - 1 = {sd_size} for a free "
                "action, got {modulus}")
_SCANNABLE = (("k", "s_size"), lambda f: scans_patterns(f["k"], f["s_size"]),
              f"{{kind}}: k^s_size must be <= {PATTERN_CAP}, the patterns a scan "
              f"enumerates, got {{k}}^{{s_size}}")
# a set of integers is a range, and len() counts a range only up to sys.maxsize
_LARGEST_SET = f"<= {sys.maxsize}, the largest set size"
_D_SIZE_FITS = (("d_size",), lambda f: f["d_size"] <= sys.maxsize,
                f"{{kind}}: d_size must be {_LARGEST_SET}, got {{d_size}}")

SCHEMAS = {
    "ergodic-converge": {
        "doc": "Sample i.i.d. uniform configurations and compare, per n, the "
               "fraction of samples whose pattern frequency over D_m still "
               "misses 1/k^|S| by eps for some m >= n with the summed bound "
               "2 exp(-eps^2 |D_m| / (2|S|^3)).",
        "params": {
            "k": ("int >= 1", True, "alphabet size"),
            "S": ("list[int]", True, "pattern domain in the integers"),
            "eps": ("decimal string in (0, 1)", True, "deviation tolerance"),
            "C": ("number > 0", True, "log-growth constant: |D_n| = ceil(C log(n+2))"),
            "n_max": ("int >= 0", True, "largest averaging index"),
            "samples": ("int >= 1", True, "number of sampled configurations"),
            "seed": ("int", True, "stream seed"),
        },
        "rules": [
            (("C", "n_max"), lambda f: log_growth_size(f["C"], f["n_max"]) <= sys.maxsize,
             f"{{kind}}: C must keep |D_n| = ceil(C log(n+2)) for n <= n_max "
             f"{_LARGEST_SET}, got {{C}}"),
            (("S",), lambda f: len(set(f["S"])) == len(f["S"]),
             "{kind}: S must hold distinct sites, got {S}"),
            (("S", "C", "n_max"), lambda f: f["row_width"] <= sys.maxsize,
             f"{{kind}}: S must keep a sample's color row of max(S) - min(S) + |D_n_max| = "
             f"{{row_width}} colors <= {sys.maxsize}, the longest array, got {{S}}"),
        ],
    },
    "concentration-sweep": {
        "doc": "Monte Carlo estimate of the deviation probability of pattern "
               "frequencies under uniform coloring, against the closed-form "
               "bound 2 exp(-eps^2 |D| / (2|S|^3)) on a cyclic space.",
        "params": {
            "ks": ("list[int >= 1]", True, "alphabet sizes"),
            "s_sizes": ("list[int >= 1]", True, "interval sizes for S = {0..s-1}"),
            "eps_list": ("list[decimal string in (0, 1)]", True, "tolerances"),
            "d_sizes": ("list[int >= 1]", True, "interval sizes for D"),
            "trials": ("int >= 1", True, "Monte Carlo trials per grid point"),
            "modulus": ("int >= 1", True, "cyclic space size"),
            "seed": ("int", True, "stream seed"),
        },
        "rules": [
            (("s_sizes", "d_sizes", "modulus"), lambda f: f["modulus"] >= f["largest_set"],
             "{kind}: modulus must be >= max(s_sizes + d_sizes) = {largest_set} for a free "
             "action, got {modulus}"),
        ],
    },
    "lll-check": {
        "doc": "Certify an instance: symmetric margin e*p*(d+1) < 1 with the "
               "threshold search over |D|, or the witness inequalities for a "
               "log-growth family with omega(n) = exp(-a |D_n|).",
        "params": {
            "mode": ("'slll' | 'glll'", True, "certification flavor"),
            "k": ("int >= 1", True, "alphabet size"),
            "s_size": ("int >= 1", True, "interval size for S = {0..s-1}"),
            "eps": ("decimal string in (0, 1)", True, "deviation tolerance"),
            "d_size": ("int >= 1", ("mode", "slll"), "slll: interval size for D"),
            "shape": ("'interval' | 'generic'", False, "slll: threshold search degree "
                      "bound only; d_bound comes from the sets", "interval"),
            "search_cap": ("int >= 1", False, "slll: threshold search cap", 100_000),
            "a": ("number > 0", ("mode", "glll"), "glll: witness exponent"),
            "C": ("number > 0", False, "glll: log-growth constant (computed when omitted)"),
            "n_prefix": ("int >= 1", False, "glll: checked prefix length", 64),
            "eps_sum": ("decimal string > 0", False, "glll: budget target (default eps)"),
        },
        "rules": [
            (("s_size",), lambda f: f["s_size"] <= sys.maxsize,
             f"{{kind}}: s_size must be {_LARGEST_SET}, got {{s_size}}"),
            _D_SIZE_FITS,
            (("mode", "C", "n_prefix"), lambda f: f["mode"] != "glll"
             or log_growth_size(f["C"], f["n_prefix"] - 1) <= sys.maxsize,
             f"{{kind}}: C must keep |D_n| = ceil(C log(n+2)) for n < n_prefix "
             f"{_LARGEST_SET}, got {{C}}"),
            (("mode", "a", "eps", "s_size"), lambda f: f["mode"] != "glll" or f["a"] < f["a_limit"],
             "{kind}: a must lie in (0, {a_limit}) = (0, eps^2/(2 s_size^3)), got {a}"),
            (("mode", "a", "C"),
             lambda f: f["mode"] != "glll" or _weight_below_one(f["a"], log_growth_size(f["C"], 0)),
             "{kind}: a must keep the witness weight exp(-a |D_0|) below 1 as a float at "
             "C = {C}, got {a}"),
        ],
    },
    "moser-tardos": {
        "doc": "Run the resampling process on a cyclic space for a family of "
               "frequency events, over one or many seeds; report convergence, "
               "resample fractions, selection counts, and the exact "
               "per-point ledger identity.",
        "params": {
            "k": ("int >= 1", True, "alphabet size"),
            "modulus": ("int >= 1", True, "cyclic space size"),
            "s_size": ("int >= 1", True, "interval size for S"),
            "eps": ("decimal string in (0, 1)", True, "deviation tolerance"),
            "d_size": ("int >= 1", True, "interval size for D"),
            "seeds": ("int >= 1 | list[int]", True, "seed count (0..n-1) or explicit list"),
            "max_steps": ("int >= 0", False, "step budget (default 1000 per induced event)"),
            "a": ("number > 0", False, "witness exponent (default eps^2/(4|S|^3))"),
            "expect_certified": ("bool", False, "exit 2 unless all seeds converge", False),
        },
        "rules": [
            _FREE_FOR_SD,
            _D_SIZE_FITS,
            _SCANNABLE,
            (("eps", "s_size", "d_size"), lambda f: _weight_below_one(f["witness_a"], f["d_size"]),
             "{kind}: a must keep the witness weight exp(-a d_size) below 1 as a float, "
             "got {witness_a}"),
        ],
    },
    "uniform-discrepancy": {
        "doc": "Resample a log-growth family of frequency events until every "
               "point sees every pattern with frequency within eps over every "
               "D_n; compares the resampled fraction with the witness budget.",
        "params": {
            "k": ("int >= 1", True, "alphabet size"),
            "s_size": ("int >= 1", True, "interval size for S"),
            "eps": ("decimal string in (0, 1)", True, "deviation tolerance"),
            "d_sizes": ("list[int >= 1]", True, "sizes of the (interval) averaging sets"),
            "modulus": ("int >= 1", True, "cyclic space size"),
            "seed": ("int", True, "tape seed"),
            "a": ("number > 0", False, "witness exponent (default eps^2/(4|S|^3))"),
        },
        "rules": [
            (("s_size", "d_sizes", "modulus"), lambda f: f["modulus"] >= f["sd_max"],
             "{kind}: modulus must be >= s_size + max(d_sizes) - 1 = {sd_max} for a free "
             "action, got {modulus}"),
            (("d_sizes",), lambda f: max(f["d_sizes"]) <= sys.maxsize,
             f"{{kind}}: d_sizes must each be {_LARGEST_SET}, got {{d_sizes}}"),
            _SCANNABLE,
            (("eps", "s_size", "d_sizes"),
             lambda f: _weight_below_one(f["witness_a"], min(f["d_sizes"])),
             "{kind}: a must keep the witness weight exp(-a min(d_sizes)) below 1 as a "
             "float, got {witness_a}"),
        ],
    },
    "resfin": {
        "doc": "Exact cylinder table of the uniform measure on colorings "
               "constant on residue classes mod a period, with exact "
               "shift-invariance verification.",
        "params": {
            "k": ("int >= 1", True, "alphabet size"),
            "period": ("int >= 1", True, "residue period"),
            "patterns": ([{
                "sites": ("list[int]", True, "distinct sites of the pattern"),
                "colors": ("list[int >= 0]", True, "one color below k per site"),
            }], True, "patterns to tabulate"),
            "shifts": ("list[int]", False, "shifts to verify", [1, -1]),
        },
        "rules": [
            (("k", "patterns"), lambda f: f["bad_pattern"] is None,
             "{kind}: patterns[{bad_pattern[0]}] must have distinct sites, one color per site "
             "and colors below k = {k}, got {bad_pattern[1]}"),
        ],
    },
    "approx-invariant": {
        "doc": "Resample one certified frequency event on a cyclic space and "
               "read off a finitely supported pattern distribution whose "
               "shifted cylinder values all stay within eps of 1/k^|S|.",
        "params": {
            "k": ("int >= 1", True, "alphabet size"),
            "s_size": ("int >= 1", True, "interval size for S"),
            "eps": ("decimal string in (0, 1)", True, "deviation tolerance"),
            "d_size": ("int >= 1", True, "interval size for D"),
            "modulus": ("int >= 1", True, "cyclic space size"),
            "seed": ("int", True, "tape seed"),
            "shift_test_range": ("int >= 1", False, "how many shifts to test (default all)"),
        },
        "rules": [_FREE_FOR_SD, _D_SIZE_FITS, _SCANNABLE],
    },
    "rokhlin-bad": {
        "doc": "Iterated tower construction: stages with eps_i = 2^{-i-1} on a "
               "shared cyclic space; exact tail measures mu(A_>=q) <= 2^{-q} "
               "and per-band capture fractions for the windowed averages "
               "(exactly 1 on the union, exactly 0 on its complement).",
        "params": {
            "h": ("int >= 1 | list[int >= 1]", True, "requested interval lengths"),
            "i_max": ("int >= 1", True, "number of stages"),
            "seed": ("int", True, "offset seed"),
            "k_probe": ("list[int >= 0]", False, "union tail indices to probe"),
            "min_capture": ("number", False, "per-band capture threshold", 0.99),
            "single": ({
                "eps": ("decimal string in (0, 1)", True, "tolerance of the tower"),
                "h": ("int >= 1 | list[int >= 1]", True, "requested interval lengths"),
                "modulus": ("int >= 1", True, "cyclic space size"),
            }, False, "also build one explicit tower"),
        },
        "rules": [
            (("h", "i_max"), lambda f: f["stages"].needed <= f["stages"].given,
             "{kind}: h gives {stages.given} length(s), the schedule needs {stages.needed}"),
            (("h", "i_max"), lambda f: f["stages"].result[1] <= MODULUS_CAP,
             f"{{kind}}: infeasible schedule: shared modulus of at least {{stages.result[1]}} "
             f"exceeds the cap {MODULUS_CAP}"),
            (("single.h", "single.eps"), lambda f: f["single_plan"].needed <= f["single_plan"].given,
             "{kind} single: h gives {single_plan.given} length(s), the plan needs "
             "{single_plan.needed}"),
            (("single.h", "single.eps", "single.modulus"),
             lambda f: f["single"]["modulus"] >= f["single_plan"].result.min_modulus,
             "{kind} single.modulus: modulus too small: need >= "
             "{single_plan.result.min_modulus}, got {single[modulus]}"),
        ],
    },
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_decimal(v) -> bool:
    """A string (or a JSON number) that `as_fraction` reads exactly."""
    try:
        return (_is_int(v) or isinstance(v, (float, str))) and as_fraction(v) is not None
    except (ValueError, ZeroDivisionError):
        return False


# a type string is a base type with an optional bound, a quoted choice, a
# union "A | B", or "list[A]"
_BASE_TYPES = {
    "int": _is_int,
    "number": lambda v: _is_int(v) or isinstance(v, float) and abs(v) < float("inf"),
    "bool": lambda v: isinstance(v, bool),
    "decimal string": _is_decimal,
}
_BOUNDS = {">= 0": lambda x: x >= 0, ">= 1": lambda x: x >= 1, "> 0": lambda x: x > 0,
           "in (0, 1)": lambda x: 0 < x < 1}


def _conforms(typ: str, v) -> bool:
    """Whether the JSON value `v` has the type string `typ`; lists must be
    nonempty.  An unknown type string raises ValueError."""
    if " | " in typ:
        # every alternative is read, so an unknown one raises whatever `v` is
        return any([_conforms(t, v) for t in typ.split(" | ")])
    if typ.startswith("list[") and typ.endswith("]"):
        return isinstance(v, list) and bool(v) and all(_conforms(typ[5:-1], x) for x in v)
    if typ.startswith("'") and typ.endswith("'"):
        return v == typ[1:-1]
    for bound, holds in _BOUNDS.items():
        if typ.endswith(" " + bound):
            return _conforms(typ[:-len(bound) - 1], v) and \
                holds(as_fraction(v) if isinstance(v, str) else v)
    if typ not in _BASE_TYPES:
        raise ValueError(f"unknown schema type {typ!r}")
    return _BASE_TYPES[typ](v)


def _type_name(typ) -> str:
    """A schema type as `describe` prints it."""
    if isinstance(typ, dict):
        return "{" + ", ".join(typ) + "}"
    if isinstance(typ, list):
        return f"list[{_type_name(typ[0])}]"
    return typ


def _check(where: str, name: str, typ, v):
    """The value `v` of key `name`, checked against the schema type `typ`,
    with the defaults of nested objects filled in."""
    if isinstance(typ, dict):
        if isinstance(v, dict):
            return _check_params(f"{where} {name}", typ, v)
    elif isinstance(typ, list):
        if isinstance(v, list) and v:
            return [_check(where, f"{name}[{i}]", typ[0], x) for i, x in enumerate(v)]
    elif _conforms(typ, v):
        return v
    typ = _type_name(typ)
    note = " (a list must be nonempty)" if v == [] and "list[" in typ else ""
    raise ConfigError(f"{where}: {name} must be {typ}{note}, got {v!r}")


def _check_params(where: str, schema: dict, params: dict) -> dict:
    """`params` checked against `schema`, with the defaults filled in."""
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {where}: {sorted(unknown)}")
    missing = [name for name, (_t, req, *_) in schema.items() if name not in params
               and (req is True or req and params.get(req[0]) == req[1])]
    if missing:
        raise ConfigError(f"missing required keys for {where}: {missing}")
    checked = {name: entry[3] for name, entry in schema.items() if len(entry) == 4}
    checked.update((name, _check(where, name, schema[name][0], v))
                   for name, v in params.items())
    return checked


def _is_set(params: dict, key: str) -> bool:
    """Whether `params` sets `key`, a name or a dotted path into nested objects."""
    name, _, rest = key.partition(".")
    return name in params and (not rest or _is_set(params[name], rest))


def _validate(config) -> tuple[str, dict]:
    """The kind of a config and its parameters, checked against the kind's
    schema and then its rules, with the defaults filled in."""
    if not isinstance(config, dict):
        raise ConfigError(f"a config must be a JSON object, got {config!r}")
    kind = config.get("experiment")
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}; see `shiftlab list`")
    p = _check_params(kind, SCHEMAS[kind]["params"],
                      {k: v for k, v in config.items() if k != "experiment"})
    facts = _Facts(p, kind=kind)
    for keys, holds, message in SCHEMAS[kind]["rules"]:
        if all(_is_set(p, key) for key in keys) and not holds(facts):
            raise ConfigError(message.format_map(facts))
    return kind, p


# -- quantities the rules derive ----------------------------------------------


class _Facts(dict):
    """A config's kind and parameters, and the quantities `_DERIVED` derives
    from them, each computed on first use and kept."""

    def __missing__(self, name):
        self[name] = value = _DERIVED[name](self)
        return value


class _Reading(NamedTuple):
    result: object    # what the planner returned
    given: float      # the lengths the config gives: len(h), or inf for an int
    needed: int       # the lengths the planner read


def _read_lengths(h, plan) -> _Reading:
    """`plan(lengths)` for the interval lengths `h`, an int or a list, with
    the count of lengths `h` gives and of lengths the plan reads.  Past the
    end of a list it reads 1, the least length, so the count is what the
    plan needs however short the list; only a list that covers the count
    gives the plan of the config."""
    lengths = _lengths(h)
    given = math.inf if isinstance(h, int) else len(h)
    needed = 0

    def length(n):
        nonlocal needed
        needed = max(needed, n + 1)
        return lengths(n) if n < given else 1
    return _Reading(plan(length), given, needed)


def _weight_below_one(a: float, d_size: int) -> bool:
    """Whether the witness weight exp(-a |D|) stays below 1 as a float."""
    try:
        GLLLWitnessSpec(a).omega(d_size)
    except CertificationError:
        return False
    return True


def _bad_pattern(k: int, patterns: list):
    """(index, pattern) of the first resfin pattern whose sites repeat, whose
    colors are not one per site or whose colors reach k; None if none."""
    for i, q in enumerate(patterns):
        if not (len(set(q["sites"])) == len(q["sites"]) == len(q["colors"])
                and max(q["colors"]) < k):
            return i, q
    return None


_DERIVED = {
    # |{0..s-1} + {0..d-1}| = |{0..s+d-2}|, in Python ints whatever the sizes
    "sd_size": lambda f: f["s_size"] + f["d_size"] - 1,
    "sd_max": lambda f: f["s_size"] + max(f["d_sizes"]) - 1,
    "largest_set": lambda f: max(f["s_sizes"] + f["d_sizes"]),
    "row_width": lambda f: max(f["S"]) - min(f["S"]) + log_growth_size(f["C"], f["n_max"]),
    # the witness exponent the drivers use: the config's, else the default
    "witness_a": lambda f: f["a"] if "a" in f else default_witness_exponent(
        as_fraction(f["eps"]), f["s_size"]),
    # the bound check_glll_witness and find_log_growth_constant hold a to
    "a_limit": lambda f: deviation_exponent(float(as_fraction(f["eps"])), f["s_size"], 1),
    "bad_pattern": lambda f: _bad_pattern(f["k"], f["patterns"]),
    "stages": lambda f: _read_lengths(f["h"], lambda h: plan_stages(h, f["i_max"])),
    "single_plan": lambda f: _read_lengths(f["single"]["h"], lambda h: plan_intervals(
        h, as_fraction(f["single"]["eps"]))),
}


def _json_default(o):
    if isinstance(o, Fraction):
        return {"num": o.numerator, "den": o.denominator, "approx": float(o)}
    if hasattr(o, "tolist"):
        return o.tolist()
    if hasattr(o, "item"):
        return o.item()
    raise TypeError(f"not serializable: {type(o)!r}")


# -- experiment drivers --------------------------------------------------------


def _run_ergodic_converge(p, out, jobs, transcript):
    S = GroupSet(p["S"])
    d_sets = [integer_interval(log_growth_size(p["C"], n)) for n in range(p["n_max"] + 1)]
    rep = ergodic_convergence_experiment(p["k"], S, as_fraction(p["eps"]), d_sets,
                                         p["samples"], p["seed"])
    _write_csv(out / "ergodic-converge-detail.csv",
               ["n", "d_size", "worst_dev", "exceed_frac_beyond", "bc_tail"],
               rep.csv_rows())
    return {"verdict": "pass" if rep.exceedances_within() else "fail",
            "first_quiet_n": rep.first_quiet_n, "samples": rep.samples}


def _run_concentration_sweep(p, out, jobs, transcript):
    grid = [(k, integer_interval(s), as_fraction(e), integer_interval(d))
            for k in p["ks"] for s in p["s_sizes"]
            for e in p["eps_list"] for d in p["d_sizes"]]
    rows = deviation_sweep(grid, CyclicTranslation(p["modulus"]), p["trials"], p["seed"])
    _write_csv(out / "concentration-sweep-detail.csv",
               ["k", "s_size", "eps", "d_size", "bound", "estimate",
                "wilson_lower", "wilson_upper", "expectation_z", "verdict"],
               ((r.k, r.s_size, r.eps, r.d_size, r.bound, r.estimate,
                 r.wilson_lower, r.wilson_upper, r.expectation_zscore,
                 r.verdict) for r in rows))
    bad = [r for r in rows if r.verdict == "fail"]
    return {"points": len(rows), "failed": len(bad),
            "verdict": "pass" if not bad else "fail"}


def _run_lll_check(p, out, jobs, transcript):
    S = integer_interval(p["s_size"])
    eps = as_fraction(p["eps"])
    if p["mode"] == "slll":
        stats = slll_stats(p["k"], S, eps, integer_interval(p["d_size"]))
        thr = find_slll_threshold(p["k"], S, eps, shape=p["shape"],
                                  search_cap=p["search_cap"])
        _write_csv(out / "lll-check-detail.csv",
                   ["quantity", "value"],
                   [("p_bound", stats.p_bound), ("d_bound", stats.d_bound),
                    ("slll_margin", stats.slll_margin),
                    ("threshold", "none" if thr.threshold is None else thr.threshold),
                    ("stationary_point", thr.stationary_point),
                    ("case", "not-found" if thr.threshold is None else "crossing")])
        return {"mode": "slll", "slll_margin": stats.slll_margin,
                "certified": stats.certified,
                "threshold": thr.threshold,
                "verdict": "pass" if stats.certified else "slll_margin >= 1"}
    eps_sum = as_fraction(p.get("eps_sum", p["eps"]))
    try:
        C = p.get("C") or find_log_growth_constant(p["k"], S, eps, p["a"], eps_sum)
    except SearchError as exc:
        return {"mode": "glll", "verdict": "fail", "error": str(exc)}
    witness = GLLLWitnessSpec(a=p["a"], C=C)
    d_seq = [integer_interval(log_growth_size(C, n)) for n in range(p["n_prefix"])]
    rep = check_glll_witness(p["k"], S, eps, d_seq, witness, eps_sum=eps_sum)
    _write_csv(out / "lll-check-detail.csv",
               ["inequality-id", "n", "lhs", "rhs", "slack", "verdict"],
               ((r.inequality_id, r.n, r.lhs, r.rhs, r.slack,
                 "pass" if r.verdict else "fail") for r in rep.records))
    return {"mode": "glll", "ok": rep.ok, "C": C,
            "budget_sum": rep.budget_sum,
            "failing": [r.to_json() for r in rep.failing()],
            "verdict": "pass" if rep.ok else "witness inequality failed"}


def _run_moser_tardos(p, out, jobs, transcript):
    k = p["k"]
    S = integer_interval(p["s_size"])
    D = integer_interval(p["d_size"])
    eps = as_fraction(p["eps"])
    action = CyclicTranslation(p["modulus"])
    ev = FrequencyDeviationEvent(k, S, eps, D)
    a = p.get("a") or default_witness_exponent(eps, len(S))
    omega = GLLLWitnessSpec(a).omega(len(D))
    seeds = list(range(p["seeds"])) if isinstance(p["seeds"], int) else list(p["seeds"])

    def one(seed):
        # measured inside the task, so only one seed's arrays are alive at a time
        tr = [] if transcript else None
        res = run_mt(action, [ev], TapeSpace(seed=derive_seed(seed, 0xA0), k=k),
                     max_steps=p.get("max_steps"), transcript=tr)
        fr = resample_fraction(res)
        led = stabilization_ledger(res)
        tap = tape_consistency(res)
        return (seed, res.converged, res.steps, float(fr.frac_resampled),
                float(fr.frac_changed), res.index_total(0), led, tap), tr

    rows = []
    converged = 0
    ledger_ok = True
    mean_index = 0.0
    resampled = 0.0
    for row, tr in _parallel(one, seeds, jobs):
        seed, conv, _steps, frac_resampled, _changed, index_total, led, tap = row
        ledger_ok &= led and tap
        converged += int(conv)
        mean_index += index_total / action.modulus
        resampled += frac_resampled
        rows.append(row)
        if tr is not None:
            with open(out / f"moser-tardos-transcript-{seed}.jsonl", "w") as fh:
                for line in tr:
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
    _write_csv(out / "moser-tardos-detail.csv",
               ["seed", "converged", "steps", "frac_resampled", "frac_changed",
                "index_total", "ledger_exact", "tape_exact"], rows)
    n = len(seeds)
    bound = omega / (1 - omega)
    summary = {
        "seeds": n, "converged": converged,
        "mean_index": mean_index / n, "index_bound": bound,
        "index_bound_nature": "empirical check on a finite action",
        "mean_frac_resampled": resampled / n,
        "resample_bound": len(ev.domain) * bound,
        "ledger_exact": ledger_ok,
    }
    ok = ledger_ok and (mean_index / n <= bound) and \
        (resampled / n <= len(ev.domain) * bound)
    if p["expect_certified"]:
        ok = ok and converged == n
    summary["verdict"] = "pass" if ok else "fail"
    return summary


def _run_uniform_discrepancy(p, out, jobs, transcript):
    S = integer_interval(p["s_size"])
    res = uniform_discrepancy_experiment(
        p["k"], S, as_fraction(p["eps"]), [integer_interval(m) for m in p["d_sizes"]],
        CyclicTranslation(p["modulus"]), p["seed"], a=p.get("a"))
    detail = []
    for n, stats in res.stats_per_n:
        for pid, f, t, d in stats.csv_rows():
            detail.append((n, pid, f, t, d))
    _write_csv(out / "uniform-discrepancy-detail.csv",
               ["n", "pattern", "freq_at_worst_point", "target", "deviation"], detail)
    ok = res.result.converged and res.all_within
    return {"converged": res.result.converged, "certified": res.certified,
            "max_deviation": res.max_deviation, "all_within": res.all_within,
            "violating_fraction": res.delta_report,
            "frac_resampled": res.fractions.frac_resampled,
            "resample_budget": res.resample_budget,
            "warnings": res.warnings,
            "verdict": "pass" if ok else "fail"}


def _run_resfin(p, out, jobs, transcript):
    pats = [Pattern.from_map(dict(zip(q["sites"], q["colors"])), p["k"])
            for q in p["patterns"]]
    table = periodic_cylinder_table(p["k"], p["period"], pats,
                                    shifts=tuple(p["shifts"]))
    _write_csv(out / "resfin-detail.csv",
               ["pattern", "residues", "consistent", "value"],
               ((r.pattern.pattern_id, r.residues, r.consistent, str(r.value))
                for r in table.rows))
    return {"period": table.period, "patterns": len(table.rows),
            "shift_invariant": table.shift_invariant,
            "verdict": "pass" if table.shift_invariant else "fail"}


def _run_approx_invariant(p, out, jobs, transcript):
    S = integer_interval(p["s_size"])
    try:
        m = near_invariant_measure(p["k"], S, as_fraction(p["eps"]),
                                   integer_interval(p["d_size"]), p["modulus"],
                                   p["seed"], p.get("shift_test_range"))
    except CertificationError as exc:
        return {"verdict": "fail", "error": str(exc)}
    _write_csv(out / "approx-invariant-detail.csv",
               ["pattern", "weight"], ((pid, str(w)) for pid, w in m.atoms))
    return {"support": len(m.atoms), "worst_shift_dev": m.worst_shift_dev,
            "eps": m.eps, "within": m.within,
            "verdict": "pass" if m.within else "fail"}


def _lengths(h):
    """n -> the n-th requested interval length of an int or a list `h`."""
    return (lambda n: h) if isinstance(h, int) else h.__getitem__


def _run_rokhlin_bad(p, out, jobs, transcript):
    rep = bad_sequence_experiment(_lengths(p["h"]), p["i_max"],
                                  seed=p["seed"], k_probe=p.get("k_probe"))
    min_capture = as_fraction(p["min_capture"])
    _write_csv(out / "rokhlin-bad-detail.csv",
               ["q", "band", "frac_full_average", "frac_null_average"],
               ((b.q, b.band, str(b.frac_full), str(b.frac_null))
                for b in rep.band_rows))
    tail_ok = rep.mu_tail_ok()
    capture_ok = all(f >= min_capture for f in rep.all_bands_frac.values())
    single = None
    if "single" in p:
        s = p["single"]
        plan = plan_intervals(_lengths(s["h"]), as_fraction(s["eps"]))
        build = build_tower(plan, s["modulus"])
        cap = verify_capture(build)
        single = {"N": plan.N, "ell": plan.ell, "mu_a": build.mu_a,
                  "mu_b": build.mu_b, "capture_fraction": cap.fraction,
                  "all_bulk_captured": cap.all_b_captured}
        _write_csv(out / "rokhlin-bad-levels.csv",
                   ["level", "in_capture_slab", "in_bulk"],
                   tower_level_rows(build))
        capture_ok = capture_ok and cap.all_b_captured and \
            cap.fraction >= 1 - plan.eps
    return {"modulus": rep.modulus,
            "mu_tail": {str(q): mu for q, mu in rep.mu_tail.items()},
            "all_bands_capture": {str(q): f for q, f in rep.all_bands_frac.items()},
            "tail_measures_ok": tail_ok, "capture_ok": capture_ok,
            "note": rep.interpretation_note, "single": single,
            "verdict": "pass" if tail_ok and capture_ok else "fail"}


RUNNERS = {
    "ergodic-converge": _run_ergodic_converge,
    "concentration-sweep": _run_concentration_sweep,
    "lll-check": _run_lll_check,
    "moser-tardos": _run_moser_tardos,
    "uniform-discrepancy": _run_uniform_discrepancy,
    "resfin": _run_resfin,
    "approx-invariant": _run_approx_invariant,
    "rokhlin-bad": _run_rokhlin_bad,
}


# -- plumbing -------------------------------------------------------------------


def _parallel(fn, items, jobs):
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(list(row))


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _retain_freed_memory() -> bool:
    """Have glibc keep freed blocks below 32 MiB in the process, so that a
    driver that frees and reallocates the same arrays (moser-tardos, once per
    seed) does not fault them in again; larger blocks are still mapped and
    returned on free.  32 MiB is the ceiling of glibc's dynamic mmap
    threshold on 64-bit hosts, and the trim threshold is twice it, the ratio
    glibc's dynamic rule keeps.  The trim threshold is set only once the
    mmap threshold is: either call turns the dynamic threshold off, and left
    at 128 KiB it would map every larger array and fault it in on each use.
    Returns whether both were set; without glibc's `mallopt` nothing
    changes.  Only `shiftlab run` calls this, so a program that imports the
    library keeps its own allocator policy."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no dlopen(NULL), or not glibc
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1)


def cmd_run(args) -> int:
    path = Path(args.config)
    if not path.exists():
        print(f"config not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = json.loads(path.read_text())
        kind, params = _validate(config)
        out = Path(args.out or os.environ.get("SHIFTLAB_OUT_DIR", "reports"))
        out.mkdir(parents=True, exist_ok=True)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    malloc_retain = _retain_freed_memory()
    mark = _kernel_mark()
    try:
        summary = RUNNERS[kind](params, out, args.jobs, args.transcript)
    except Exception:  # the config passed every check, so this is a fault of the program
        traceback.print_exc()
        print(f"internal fault: the {kind} experiment raised an exception", file=sys.stderr)
        return EXIT_FAULT
    summary_doc = {"experiment": kind, "config": config, "version": __version__,
                   "summary": summary}
    (out / f"{kind}-summary.json").write_text(
        json.dumps(summary_doc, indent=2, sort_keys=True, default=_json_default) + "\n")
    # which hash implementation served this run, and the one-time build or
    # load cost it paid ("none" if it hashed only single values)
    meta = {"written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            **_kernel_meta(mark), "malloc_retain": malloc_retain}
    (out / f"{kind}-meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    verdict = summary["verdict"]
    print(f"{kind}: {verdict} (reports in {out})")
    if verdict != "pass":
        failing = summary.get("failing") or summary.get("error") or verdict
        print(f"verdict failure: {failing}", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_describe(args) -> int:
    kind = args.kind
    if kind not in SCHEMAS:
        print(f"unknown experiment kind {kind!r}", file=sys.stderr)
        return EXIT_USAGE
    meta = SCHEMAS[kind]
    print(f"{kind}\n{'=' * len(kind)}\n{meta['doc']}\n\nparameters:")
    _print_params(meta["params"], "  ")
    if meta["rules"]:
        print("\nrules (checked before the run starts):")
    for keys, _holds, message in meta["rules"]:
        # the message without its kind, each value it would quote shown as "..."
        rule = re.sub(r"\{[^}]*\}", "...", re.sub(r"^\{kind\}:? ", "", message))
        print(f"  {rule} [keys: {', '.join(keys)}]")
    return EXIT_OK


def _print_params(schema: dict, indent: str) -> None:
    for name, (typ, req, doc, *default) in schema.items():
        flag = ("required" if req is True
                else f"required if {req[0]} = {req[1]!r}" if req else "optional")
        if default:
            flag += f", default {json.dumps(default[0])}"
        print(f"{indent}{name:<{20 - len(indent)}} {_type_name(typ):<26} [{flag}] {doc}")
        obj = typ[0] if isinstance(typ, list) else typ
        if isinstance(obj, dict):
            _print_params(obj, indent + "  ")


def cmd_list(_args) -> int:
    for kind in SCHEMAS:
        print(kind)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shiftlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--transcript", action="store_true")
    p_run.set_defaults(fn=cmd_run)
    p_desc = sub.add_parser("describe", help="show an experiment's parameters")
    p_desc.add_argument("kind")
    p_desc.set_defaults(fn=cmd_describe)
    p_list = sub.add_parser("list", help="list experiment kinds")
    p_list.set_defaults(fn=cmd_list)
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return EXIT_USAGE
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
