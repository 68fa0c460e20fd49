import csv
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest

import shiftlab
from shiftlab import cli
from shiftlab.cli import EXIT_FAULT, EXIT_OK, EXIT_USAGE, EXIT_VERDICT, SCHEMAS, _conforms, main
from shiftlab.rokhlin import MODULUS_CAP

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, doc):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_missing_config_exits_1(capsys):
    assert main(["run", "/no/such/config.json"]) == EXIT_USAGE


def test_unknown_kind_exits_1(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "nope"})
    assert main(["run", cfg]) == EXIT_USAGE


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "resfin", "k": 2, "period": 2,
                                  "patterns": [], "bogus": 1})
    assert main(["run", cfg]) == EXIT_USAGE


def test_missing_required_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "resfin", "k": 2})
    assert main(["run", cfg]) == EXIT_USAGE


def test_list_and_describe(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert set(out.split()) == set(SCHEMAS)
    assert main(["describe", "uniform-discrepancy"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "frequency" in text and "eps" in text
    assert main(["describe", "rokhlin-bad"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "tower" in text
    # the keys of the nested `single` block, one level deeper
    assert all(f"\n    {key} " in text for key in ("eps", "h", "modulus"))
    assert main(["describe", "lll-check"]) == EXIT_OK
    text = capsys.readouterr().out
    for rule in ("[required if mode = 'slll']", "[required if mode = 'glll']",
                 '[optional, default "interval"]', "[optional, default 64]"):
        assert rule in text
    assert main(["describe", "wat"]) == EXIT_USAGE
    # each kind's rules, without the values a message quotes
    assert main(["describe", "moser-tardos"]) == EXIT_OK
    assert ("rules (checked before the run starts):\n  modulus must be >= s_size + d_size - 1 "
            "= ... for a free action, got ... [keys: s_size, d_size, modulus]\n"
            in capsys.readouterr().out)
    assert main(["describe", "rokhlin-bad"]) == EXIT_OK
    assert "  single.modulus: modulus too small: need >= ..., got ..." in capsys.readouterr().out


def test_certified_mt_run_exits_0(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "moser-tardos", "k": 2, "modulus": 20_000, "s_size": 1,
        "eps": "0.1", "d_size": 4000, "seeds": 3, "expect_certified": True})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "moser-tardos-summary.json").read_text())
    assert summary["summary"]["converged"] == 3
    assert summary["summary"]["ledger_exact"] is True
    assert summary["version"]


def test_eps_too_small_lll_check_exits_2(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "lll-check", "mode": "slll", "k": 2, "s_size": 1,
        "eps": "0.1", "d_size": 1000})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_VERDICT
    summary = json.loads((out / "lll-check-summary.json").read_text())
    assert summary["summary"]["verdict"] == "slll_margin >= 1"


def test_large_interval_lll_check_certifies_by_the_closed_form(tmp_path):
    # |SD| = 15946 > 10000: the degree is still the interval closed form, so
    # the margin certifies at the threshold the same run reports
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "lll-check", "mode": "slll", "k": 2, "s_size": 1,
        "eps": "0.04", "d_size": 15946})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    rows = dict(line.split(",") for line in
                (out / "lll-check-detail.csv").read_text().splitlines()[1:])
    assert rows["d_bound"] == "31890" and rows["threshold"] == "15946"
    assert float(rows["slll_margin"]) < 1 and rows["case"] == "crossing"


def test_resfin_run(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "resfin", "k": 2, "period": 2,
        "patterns": [{"sites": [0], "colors": [0]},
                     {"sites": [0, 2], "colors": [0, 1]}]})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    detail = (out / "resfin-detail.csv").read_text().splitlines()
    assert detail[1].endswith("1/2")
    assert detail[2].endswith("0")


def test_reports_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "rokhlin-bad", "h": 1, "i_max": 2, "seed": 3})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["run", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ["rokhlin-bad-summary.json", "rokhlin-bad-detail.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_glll_mode_run(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "lll-check", "mode": "glll", "k": 2, "s_size": 1,
        "eps": "0.3", "a": 0.02, "C": 600.0, "n_prefix": 16})
    code = main(["run", cfg, "--out", str(out)])
    summary = json.loads((out / "lll-check-summary.json").read_text())
    assert code in (EXIT_OK, EXIT_VERDICT)
    assert "budget_sum" in summary["summary"]


def test_uniform_discrepancy_run(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "uniform-discrepancy", "k": 2, "s_size": 1, "eps": "0.1",
        "d_sizes": [4000], "modulus": 30_000, "seed": 4})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "uniform-discrepancy-summary.json").read_text())
    assert summary["summary"]["all_within"] is True


def test_approx_invariant_run(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "approx-invariant", "k": 2, "s_size": 1, "eps": "0.1",
        "d_size": 4000, "modulus": 30_000, "seed": 4})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK


def test_approx_invariant_uncertified_exits_2(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "approx-invariant", "k": 2, "s_size": 1, "eps": "0.1",
        "d_size": 60, "modulus": 3000, "seed": 4})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_VERDICT


def test_ergodic_converge_run(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "ergodic-converge", "k": 2, "S": [0], "eps": "0.2",
        "C": 60, "n_max": 15, "samples": 30, "seed": 2})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "ergodic-converge-detail.csv").read_text().splitlines()
    assert lines[0] == "n,d_size,worst_dev,exceed_frac_beyond,bc_tail"
    assert len(lines) == 17


def test_concentration_sweep_run(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "concentration-sweep", "ks": [2], "s_sizes": [1],
        "eps_list": ["0.2"], "d_sizes": [400], "trials": 800,
        "modulus": 10_000, "seed": 6})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    # its colors are hashed inside rng.pattern_counts, which must mark the run
    meta = json.loads((out / "concentration-sweep-meta.json").read_text())
    cc = sysconfig.get_config_var("CC")
    compiler = bool(cc) and shutil.which(shlex.split(cc)[0]) is not None
    assert meta["rng_kernel"] == ("c" if compiler else "numpy")


@pytest.mark.parametrize("name", ["ergodic-converge", "concentration-sweep"])
def test_shipped_monte_carlo_configs_count_in_the_kernel(name, tmp_path, capsys, monkeypatch):
    # both kinds count through rng.pattern_counts; a silent fallback to the
    # numpy counts would write the same reports, only slower
    from shiftlab import rng
    if not rng._resolve_kernel():
        pytest.skip("the C kernel does not load here")

    def refuse(*args, **kwargs):
        raise AssertionError("counted with numpy where the kernel is loaded")

    monkeypatch.setattr(rng, "_count_numpy", refuse)
    out = tmp_path / name
    assert main(["run", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    meta = json.loads((out / f"{name}-meta.json").read_text())
    assert meta["rng_kernel"] == "c"


@pytest.mark.parametrize("name", ["moser-tardos", "moser-tardos-small", "uniform-discrepancy",
                                  "approx-invariant"])
def test_shipped_tape_configs_hash_in_the_kernel(name, tmp_path, capsys, monkeypatch):
    # every tape plane of these kinds holds byte colors, which the kernel
    # writes; a kernel rejected at load, or a plane routed past it, would
    # write the same reports, only slower
    from shiftlab import rng
    cc = sysconfig.get_config_var("CC")
    if not (cc and shutil.which(shlex.split(cc)[0])):
        pytest.skip("no C compiler on PATH")
    assert rng._resolve_kernel(), "the kernel was rejected at load"
    numpy_hash = rng._hash_numpy

    def single_values_only(seed, a, b, k):
        if np.broadcast(a, b).size > 1:
            raise AssertionError("hashed a plane with numpy where the kernel is loaded")
        return numpy_hash(seed, a, b, k)

    monkeypatch.setattr(rng, "_hash_numpy", single_values_only)
    out = tmp_path / name
    assert main(["run", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    kind = json.loads((ROOT / "configs" / f"{name}.json").read_text())["experiment"]
    assert json.loads((out / f"{kind}-meta.json").read_text())["rng_kernel"] == "c"


# Runs every shipped config through cli.main in one interpreter and prints
# their exit codes and whether numpy.ma was imported.
SHIPPED_CHILD = """
import sys
from pathlib import Path
from shiftlab.cli import main
configs, out = map(Path, sys.argv[1:])
codes = [main(["run", str(cfg), "--out", str(out / cfg.stem)])
         for cfg in sorted(configs.glob("*.json"))]
print(codes, "numpy.ma" in sys.modules)
"""


def test_shipped_configs_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on numpy 2.x: about 10 ms of the first call
    # and 1.7 MB of peak resident memory in every fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", SHIPPED_CHILD, str(ROOT / "configs"),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    assert proc.stdout.splitlines()[-1] == f"{[EXIT_OK] * 10} False"


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_USAGE


CFG = str(ROOT / "configs" / "resfin.json")
USAGE_ERRORS = [(["frob"], "argument command: invalid choice: 'frob'"),
                (["run"], "the following arguments are required: config"),
                (["run", CFG, "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
                (["run", CFG, "--bogus"], "unrecognized arguments: --bogus")]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=["frob", "run", "jobs-x", "bogus"])
def test_usage_errors_exit_1(argv, message, capsys):
    # argparse's message, and EXIT_USAGE, not the SystemExit(2) of a verdict failure
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: shiftlab") and f"error: {message}" in err
    with pytest.raises(cli._UsageError):
        cli._Parser(prog="shiftlab").error(message)


def test_glll_mode_autocomputes_constant(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {
        "experiment": "lll-check", "mode": "glll", "k": 2, "s_size": 1,
        "eps": "0.1", "a": 0.0025, "n_prefix": 8})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "lll-check-summary.json").read_text())
    assert summary["summary"]["ok"] is True
    assert summary["summary"]["C"] > 0


def test_mistyped_config_value_is_config_error(tmp_path, capsys):
    base = {"experiment": "moser-tardos", "k": 2, "modulus": 200, "s_size": 1,
            "eps": "0.3", "d_size": 20, "seeds": 1}
    for key, bad in [("k", "2"), ("k", True), ("d_size", 20.0),
                     ("expect_certified", "yes")]:
        cfg = write_config(tmp_path, {**base, key: bad})
        assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "Traceback" not in err


def test_empty_pattern_domain_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "experiment": "ergodic-converge", "k": 2, "S": [], "eps": "0.2",
        "C": 60, "n_max": 3, "samples": 4, "seed": 2})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def _assert_config_error(tmp_path, capsys, doc, key):
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err


SWEEP = {"experiment": "concentration-sweep", "ks": [2], "s_sizes": [1],
         "eps_list": ["0.2"], "d_sizes": [40], "trials": 20, "modulus": 1000,
         "seed": 6}
ERGODIC = {"experiment": "ergodic-converge", "k": 2, "S": [0], "eps": "0.2",
           "C": 60, "n_max": 3, "samples": 4, "seed": 2}
MT = {"experiment": "moser-tardos", "k": 2, "modulus": 200, "s_size": 1,
      "eps": "0.3", "d_size": 20, "seeds": 1}


def test_zero_trials_is_config_error(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, {**SWEEP, "trials": 0}, "trials")


def test_zero_samples_is_config_error(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, {**ERGODIC, "samples": 0}, "samples")


def test_negative_n_max_is_config_error(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, {**ERGODIC, "n_max": -1}, "n_max")


def test_no_seeds_is_config_error(tmp_path, capsys):
    for seeds in (-2, 0, []):
        _assert_config_error(tmp_path, capsys, {**MT, "seeds": seeds}, "seeds")


def test_empty_sweep_grid_is_config_error(tmp_path, capsys):
    for key in ("ks", "s_sizes", "eps_list", "d_sizes"):
        _assert_config_error(tmp_path, capsys, {**SWEEP, key: []}, key)


LLL = {"experiment": "lll-check", "k": 2, "s_size": 1, "eps": "0.1"}
ROKHLIN = {"experiment": "rokhlin-bad", "h": 1, "i_max": 2, "seed": 7}
SINGLE = {"eps": "0.1", "h": 5, "modulus": 4200}
AI = {"experiment": "approx-invariant", "k": 2, "s_size": 1, "eps": "0.3",
      "d_size": 100, "modulus": 1000, "seed": 3}
RESFIN = {"experiment": "resfin", "k": 2, "period": 2}
PAT = {"sites": [0], "colors": [0]}
UD = {"experiment": "uniform-discrepancy", "k": 2, "s_size": 1, "eps": "0.3",
      "d_sizes": [100], "modulus": 1000, "seed": 3}
# configs whose arrays over every point, or a sample's row of colors, would
# pass the points cap, with the config error each ends in
PAST_THE_POINTS_CAP = [
    *(({**doc, "modulus": 10 ** 14}, f"{doc['experiment']}: modulus must be <= {MODULUS_CAP}, "
       f"the points cap, got {10 ** 14}") for doc in (MT, AI, UD)),
    ({**ERGODIC, "S": [0, 10 ** 12]}, "ergodic-converge: S must keep a sample's color row of "
     f"max(S) - min(S) + |D_n_max| = {10 ** 12 + 97} colors <= {MODULUS_CAP}, the points cap, "
     f"got [0, {10 ** 12}]")]


@pytest.mark.parametrize("doc, key", [
    ({**LLL, "mode": "slll"}, "'d_size'"),
    ({**LLL, "mode": "glll"}, "'a'"),
    ({**ROKHLIN, "single": {"eps": "0.1", "modulus": 4200}}, "'h'"),
    ({**ROKHLIN, "single": {"h": 5, "modulus": 4200}}, "'eps'"),
    ({**ROKHLIN, "single": {"eps": "0.1", "h": 5}}, "'modulus'"),
    ({**ROKHLIN, "single": {**SINGLE, "hh": 1}}, "'hh'"),
    ({**ROKHLIN, "single": {**SINGLE, "modulus": "4200"}}, "modulus must be int"),
    ({**ROKHLIN, "single": 5}, "single must be"),
    ({**ROKHLIN, "h": []}, "h must be int >= 1 | list[int >= 1] (a list must be nonempty)"),
    ({**ROKHLIN, "single": {**SINGLE, "h": []}},
     "single: h must be int >= 1 | list[int >= 1] (a list must be nonempty)"),
    ({**ROKHLIN, "h": [3]}, "h gives 1 length(s)"),
    ({**ROKHLIN, "single": {**SINGLE, "h": [3, 4]}}, "single: h gives 2 length(s)"),
    ({**AI, "shift_test_range": 0}, "shift_test_range must be int >= 1"),
    ({**AI, "shift_test_range": -3}, "shift_test_range must be int >= 1"),
    ({**UD, "d_sizes": []}, "d_sizes must be list[int >= 1] (a list must be nonempty)"),
    ({**LLL, "mode": "glll", "a": 0.002, "n_prefix": 0}, "n_prefix must be int >= 1"),
    ({**ROKHLIN, "k_probe": [0, -1]}, "unknown keys for rokhlin-bad: ['k_probe']"),
    ({**MT, "a": 0}, "a must be number > 0"),
    ({**MT, "a": -1}, "a must be number > 0"),
    ({**LLL, "mode": "slll", "d_size": 100, "search_cap": 0},
     "unknown keys for lll-check: ['search_cap']"),
    ({**RESFIN, "patterns": [{"sites": [0, 1], "colors": [1]}]}, "patterns[0]"),
    ({**RESFIN, "patterns": [PAT, {"sites": [3, 3], "colors": [0, 1]}]}, "patterns[1]"),
    ({**RESFIN, "patterns": [PAT, {"sites": [0], "colors": [0], "k": 2}]}, "patterns[1]"),
    ({**RESFIN, "patterns": [{"sites": [], "colors": []}]}, "patterns[0]"),
    ({**RESFIN, "patterns": [[0, 1]]}, "patterns[0]"),
    ({**RESFIN, "patterns": 5}, "patterns must be"),
    ([1, 2], "must be a JSON object"),
    ({**MT, "eps": "abc"}, "eps must be decimal string"),
    ({**MT, "eps": "1/0"}, "eps must be decimal string"),
    ({**SWEEP, "eps_list": ["0.2", "x"]}, "eps_list must be"),
    ({**LLL, "mode": "glll", "a": 0.002, "eps_sum": "abc"}, "eps_sum must be"),
    ({**ROKHLIN, "single": {**SINGLE, "eps": "abc"}}, "single: eps must be"),
    ({**UD, "d_sizes": [0]}, "d_sizes must be list[int >= 1]"),
    ({**SWEEP, "d_sizes": [0]}, "d_sizes must be list[int >= 1]"),
    ({**SWEEP, "s_sizes": [1, -2]}, "s_sizes must be list[int >= 1]"),
    ({**MT, "s_size": 0}, "s_size must be int >= 1"),
    ({**AI, "d_size": 0}, "d_size must be int >= 1"),
    ({**LLL, "mode": "slll", "d_size": 0}, "d_size must be int >= 1"),
    # values the schema did not bound before it became the only check
    ({**RESFIN, "patterns": [PAT], "shifts": []}, "unknown keys for resfin: ['shifts']"),
    ({**RESFIN, "patterns": []}, "patterns must be list[{sites, colors}]"),
    ({**ROKHLIN, "k_probe": []}, "unknown keys for rokhlin-bad: ['k_probe']"),
    ({**MT, "k": 0}, "k must be int >= 1"),
    ({**MT, "modulus": 0}, "modulus must be int >= 1"),
    ({**MT, "eps": "0"}, "eps must be decimal string in (0, 1)"),
    ({**ERGODIC, "C": -1}, "C must be number > 0"),
    ({**ROKHLIN, "i_max": 0}, "i_max must be int >= 1"),
    ({**LLL, "mode": "bogus"}, "mode must be 'slll' | 'glll'"),
    ({**LLL, "mode": "slll", "d_size": 100, "shape": "bogus"},
     "shape must be 'interval' | 'generic'"),
    ({**ERGODIC, "C": float("inf")}, "C must be number > 0"),
    ({**ROKHLIN, "min_capture": float("nan")}, "unknown keys for rokhlin-bad: ['min_capture']"),
    ({**RESFIN, "patterns": [{"sites": [0], "colors": [5]}]},
     "patterns[0] must have distinct sites, one color per site and colors below k = 2"),
    # a nested eps names its block
    ({**ROKHLIN, "single": {**SINGLE, "eps": "3"}}, "single: eps must be decimal string in (0, 1)"),
    # eps = 0.3, |S| = 1: a must lie in (0, eps^2/2) = (0, 0.045), with or without C
    ({**LLL, "mode": "glll", "eps": "0.3", "a": 0.045}, "a must lie in (0, 0.045"),
    ({**LLL, "mode": "glll", "eps": "0.3", "a": 0.05}, "a must lie in (0, 0.045"),
    pytest.param({**LLL, "mode": "glll", "eps": "0.3", "a": 0.05, "C": 600.0},
                 "a must lie in (0, 0.045) = (0, eps^2/(2 s_size^3)), got 0.05",
                 id="doc54-a=0.05 outside (0, "),
    # rules that the drivers used to meet only after work had started
    ({**ROKHLIN, "h": [3]}, "rokhlin-bad: h gives 1 length(s), the schedule needs 12"),
    ({**ROKHLIN, "single": {**SINGLE, "h": [3, 4]}},
     "rokhlin-bad single: h gives 2 length(s), the plan needs 20"),
    ({**ROKHLIN, "i_max": 7},
     "infeasible schedule: shared modulus of at least 1208924145 exceeds the cap 50000000"),
    ({**MT, "s_size": 13}, "moser-tardos: k^s_size must be <= 4096, the patterns a scan "
                           "enumerates, got 2^13"),
    ({**AI, "k": 3, "s_size": 8}, "approx-invariant: k^s_size must be <= 4096"),
    ({**UD, "k": 4097}, "uniform-discrepancy: k^s_size must be <= 4096"),
    ({**MT, "a": 1e-20}, "a must keep the witness weight exp(-a d_size) below 1"),
    # the default a = eps^2/(4|S|^3) rounds the weight to 1 as well
    ({**MT, "eps": "1e-9"}, "a must keep the witness weight exp(-a d_size) below 1"),
    ({**UD, "a": 1e-20}, "a must keep the witness weight exp(-a min(d_sizes)) below 1"),
    ({**LLL, "mode": "glll", "eps": "0.3", "a": 1e-20, "C": 2},
     "a must keep the witness weight exp(-a |D_0|) below 1 as a float at C = 2, got 1e-20"),
    ({**ERGODIC, "S": list(range(30))},
     "ergodic-converge: k^|S| must be <= 4096, the patterns a run enumerates, got k = 2 "
     "and S = [0, 1, "),
    ({**SWEEP, "modulus": 2 ** 63}, "concentration-sweep: modulus must be <= 9223372036854775807"),
    ({**ROKHLIN, "single": {"eps": "0.5", "h": 1, "modulus": 10 ** 14}},
     "rokhlin-bad single.modulus: modulus must be <= 50000000"),
    *PAST_THE_POINTS_CAP,
])
def test_conditional_and_nested_keys_are_config_errors(tmp_path, capsys, doc, key):
    _assert_config_error(tmp_path, capsys, doc, key)


def test_usage_and_points_cap_errors_exit_1_in_a_subprocess(tmp_path):
    # the exit code a shell sees, through the module's sys.exit(main())
    env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parent.parent))
    for i, (doc, _message) in enumerate(PAST_THE_POINTS_CAP):
        (tmp_path / f"{i}.json").write_text(json.dumps(doc))
    for argv in [a for a, _m in USAGE_ERRORS] + [["run", p.name] for p in tmp_path.iterdir()]:
        proc = subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_USAGE and "Traceback" not in proc.stderr, argv


def test_impossible_single_eps_is_refused_at_once(tmp_path, capsys):
    # no plan of 2,000,000 intervals is read: at max(h) = 1 a tower already
    # needs a modulus of (floor(2/eps) + 1) ceil(2/eps)
    cfg = write_config(tmp_path, {**ROKHLIN, "single": {**SINGLE, "eps": "1e-6"}})
    start = time.perf_counter()
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_USAGE
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().err.endswith(
        f"single.eps: eps must keep the least modulus of a tower, (floor(2/eps) + 1) "
        f"ceil(2/eps) = 4000002000000, within the cap {MODULUS_CAP}, got 1e-6\n")


def test_config_error_writes_no_report(tmp_path, capsys):
    # the rules run before the output directory is made
    doc = {**ROKHLIN, "single": {"eps": "0.1", "h": 50, "modulus": 1000}}
    out = tmp_path / "rep"
    assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_driver_exception_is_an_internal_fault(tmp_path, capsys, monkeypatch):
    def broken(p, out, jobs, transcript):
        raise ValueError("a driver bug")
    monkeypatch.setitem(cli.RUNNERS, "resfin", broken)
    cfg = write_config(tmp_path, {**RESFIN, "patterns": [PAT]})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_FAULT == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: a driver bug" in err
    assert "internal fault" in err and "config error" not in err


def test_infeasible_schedule_is_rejected_at_once(tmp_path, capsys):
    # planning stops at the first stage past the shared-modulus cap
    start = time.perf_counter()
    _assert_config_error(tmp_path, capsys, {**ROKHLIN, "i_max": 40}, "exceeds the cap")
    assert time.perf_counter() - start < 1.0


def test_wide_ergodic_pattern_space_is_refused_at_once(tmp_path, capsys):
    # the 2^30 patterns on S are refused before any is built
    start = time.perf_counter()
    _assert_config_error(tmp_path, capsys, {**ERGODIC, "S": list(range(30))},
                         "k^|S| must be <= 4096")
    assert time.perf_counter() - start < 1.0


def test_sweep_past_int64_patterns_runs(tmp_path):
    # k^|S| = 2^64: the deviation test takes no count times k^|S| in int64
    cfg = write_config(tmp_path, {**SWEEP, "s_sizes": [64], "eps_list": ["0.1"],
                                  "d_sizes": [100], "trials": 10, "seed": 7})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) in (EXIT_OK, EXIT_VERDICT)


def test_sweep_on_the_largest_int64_modulus_runs(tmp_path):
    # 2^63 - 1 points still fit int64; 2^63 is a config error (see the rows above)
    cfg = write_config(tmp_path, {**SWEEP, "modulus": 2 ** 63 - 1})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_OK


@pytest.mark.parametrize("eps, case, stationary", [
    ("1e-200", "not-found", 4 * 10 ** 400), ("1e-160", "not-found", 4 * 10 ** 320),
    ("1e-400", "not-found", 4 * 10 ** 800), ("0.99999999999999999999", "crossing", 5),
], ids=["1e-200", "1e-160", "1e-400", "1-1e-20"])
def test_slll_threshold_reads_eps_exactly(tmp_path, eps, case, stationary):
    # the stationary point 4|S|^3/eps^2 and the range check on eps are exact:
    # as floats 1e-200 squares to 0, 4/1e-160^2 is inf, and 1e-400 and
    # 1 - 1e-20 are 0 and 1; each ends in the verdict, not in a fault
    cfg = write_config(tmp_path, {**LLL, "mode": "slll", "d_size": 10, "eps": eps})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_VERDICT
    with open(tmp_path / "rep" / "lll-check-detail.csv") as fh:
        rows = dict(csv.reader(fh))
    assert rows["case"] == case and rows["stationary_point"] == str(stationary)


def test_wide_pattern_sweep_builds_one_pattern(tmp_path):
    # k^|S| = 16^6 = 16,777,216 patterns on S; the sweep uses only the all-zero one
    start = time.perf_counter()
    cfg = write_config(tmp_path, {**SWEEP, "ks": [16], "s_sizes": [6]})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) in (EXIT_OK, EXIT_VERDICT)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("doc", [
    {**LLL, "mode": "slll", "k": 256, "s_size": 200, "d_size": 1000},
    {**LLL, "mode": "glll", "k": 256, "s_size": 200, "a": 1e-10},
    {**LLL, "mode": "glll", "k": 256, "s_size": 200, "a": 1e-10, "C": 1e12, "n_prefix": 2},
])
def test_patterns_past_the_float_range_end_in_a_verdict(tmp_path, capsys, doc):
    # 2 * 256^200 is past the float range
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "rep")]) == EXIT_VERDICT
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {**ERGODIC, "eps": "1e-30", "C": 6},
    {**SWEEP, "eps_list": ["1e-30"]},
])
def test_eps_past_int64_ends_in_a_verdict(tmp_path, capsys, doc):
    # eps = 1/10^30, whose denominator is past int64
    assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "rep")]) in (
        EXIT_OK, EXIT_VERDICT)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({**LLL, "mode": "glll", "a": 0.002, "C": 1e300}, "C must keep |D_n|"),
    ({**LLL, "mode": "slll", "d_size": 10 ** 30}, "d_size must be <= "),
    ({**LLL, "mode": "slll", "s_size": 10 ** 30, "d_size": 100}, "s_size must be <= "),
    ({**ERGODIC, "C": 1e300}, "C must keep |D_n|"),
    ({**ERGODIC, "S": [0, 2 ** 63]}, "S must keep a sample's color row"),
])
def test_sizes_past_ssize_t_are_config_errors(tmp_path, capsys, doc, key):
    # a set is a range, whose len() stops at sys.maxsize, and so does an array
    _assert_config_error(tmp_path, capsys, doc, key)


def test_repeated_ergodic_site_is_a_config_error(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, {**ERGODIC, "S": [0, 3, 0]},
                         "ergodic-converge: S must hold distinct sites, got [0, 3, 0]")


def test_ergodic_color_row_rule_is_exact():
    # a sample's colors span max(S) - min(S) + |D_n_max| columns, and
    # |D_3| = ceil(60 log 5) = 97 here
    widest = MODULUS_CAP - 97
    assert cli._validate({**ERGODIC, "S": [-1, widest - 1]})[1]["S"] == [-1, widest - 1]
    with pytest.raises(cli.ConfigError, match=f"= {MODULUS_CAP + 1} colors <= "):
        cli._validate({**ERGODIC, "S": [-1, widest]})


@pytest.mark.parametrize("doc, key", [
    ({**MT, "d_size": 10 ** 30}, "modulus must be >= s_size + d_size - 1"),
    ({**MT, "d_size": 10 ** 30, "modulus": 10 ** 31}, "d_size must be <= "),
    ({**MT, "s_size": 10 ** 30}, "modulus must be >= s_size + d_size - 1"),
    ({**AI, "d_size": 10 ** 30}, "modulus must be >= s_size + d_size - 1"),
    ({**AI, "d_size": 10 ** 30, "modulus": 10 ** 31}, "d_size must be <= "),
    ({**UD, "d_sizes": [100, 10 ** 30]}, "modulus must be >= s_size + max(d_sizes) - 1"),
    ({**UD, "d_sizes": [10 ** 30], "modulus": 10 ** 31}, "d_sizes must each be <= "),
], ids=["mt", "mt-wide-modulus", "mt-s_size", "ai", "ai-wide-modulus", "ud",
        "ud-wide-modulus"])
def test_free_action_sizes_past_ssize_t_are_config_errors(tmp_path, capsys, doc, key):
    # |SD| is derived in Python ints, so the freeness rule builds no set
    _assert_config_error(tmp_path, capsys, doc, key)


def test_too_small_single_modulus_names_its_key(tmp_path, capsys):
    doc = {**ROKHLIN, "single": {"eps": "0.1", "h": 50, "modulus": 1000}}
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_USAGE
    assert capsys.readouterr().err == ("config error: rokhlin-bad single.modulus: modulus "
                                       "too small: need >= 21000, got 1000\n")


@pytest.mark.parametrize("doc, keys, need", [
    ({**MT, "modulus": 10}, "s_size + d_size - 1", 20),
    ({**UD, "modulus": 100, "d_sizes": [4000]}, "s_size + max(d_sizes) - 1", 4000),
    ({**AI, "modulus": 100, "d_size": 4000}, "s_size + d_size - 1", 4000),
    ({**SWEEP, "modulus": 100, "d_sizes": [500]}, "max(s_sizes + d_sizes)", 500),
])
def test_too_small_modulus_names_its_keys(tmp_path, capsys, doc, keys, need):
    kind = doc["experiment"]
    cfg = write_config(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) == EXIT_USAGE
    assert capsys.readouterr().err == (f"config error: {kind}: modulus must be >= {keys} = "
                                       f"{need} for a free action, got {doc['modulus']}\n")
    # the least modulus is enough: the run gets past every freeness check
    cfg = write_config(tmp_path, {**doc, "modulus": need})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) in (EXIT_OK, EXIT_VERDICT)


def test_slll_shape_sets_only_the_threshold(tmp_path):
    rows = {}
    for shape in ("interval", "generic"):
        out = tmp_path / shape
        cfg = write_config(tmp_path, {**LLL, "mode": "slll", "d_size": 3000, "shape": shape})
        main(["run", cfg, "--out", str(out)])
        rows[shape] = dict(line.split(",") for line in
                           (out / "lll-check-detail.csv").read_text().splitlines()[1:])
    for quantity in ("p_bound", "d_bound", "slll_margin"):
        assert rows["interval"][quantity] == rows["generic"][quantity]
    assert rows["generic"]["d_bound"] == "5998"
    assert rows["interval"]["threshold"] != rows["generic"]["threshold"] == "3772"


GLLL = {**LLL, "mode": "glll", "eps": "0.3"}


def test_glll_constant_search_past_the_float_range_of_a_power(tmp_path):
    # the doubling search reaches C near 32,900, where (n+2)^(C a) exceeds
    # the float range; those series terms are 0, not an OverflowError
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {**GLLL, "a": 0.0449})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "lll-check-summary.json").read_text())["summary"]
    assert summary["ok"] is True and 20_000 < summary["C"] < 20_001


def test_glll_constant_search_at_its_cap_is_a_verdict_failure(tmp_path, capsys):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {**GLLL, "a": 0.04499999999999})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_VERDICT
    summary = json.loads((out / "lll-check-summary.json").read_text())["summary"]
    assert summary == {"mode": "glll", "verdict": "fail",
                       "error": "no admissible constant below the cap 1e12"}
    err = capsys.readouterr().err
    assert "cap 1e12" in err and "Traceback" not in err


def test_unreadable_paths_are_config_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, MT)
    binary = tmp_path / "latin1.json"
    binary.write_bytes('{"experiment": "moser-tardos", "k": "\u00e9"}'.encode("latin-1"))
    broken = tmp_path / "broken.json"
    broken.write_text('{"experiment": "moser-tardos",')
    for argv, keys in [(["run", str(tmp_path)], [str(tmp_path)]),
                       (["run", str(binary)], [str(binary), "utf-8"]),
                       (["run", str(broken)], [str(broken), "Expecting"]),
                       (["run", cfg, "--out", cfg], [cfg])]:
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert all(key in err for key in keys) and "Traceback" not in err


@pytest.mark.parametrize("eps", ["0.5", "0.9", "0.99"])
def test_uniform_discrepancy_ends_in_a_verdict_for_every_eps(tmp_path, eps):
    # at eps >= 0.9 the default witness exp(-eps^2 |D| / 4) underflows to 0.0
    cfg = write_config(tmp_path, {**UD, "eps": eps, "d_sizes": [4000], "modulus": 8000})
    assert main(["run", cfg, "--out", str(tmp_path / "rep")]) in (EXIT_OK, EXIT_VERDICT)


# a valid config of every kind, with every optional object present
BASES = {"ergodic-converge": ERGODIC, "concentration-sweep": SWEEP,
         "lll-check": {**LLL, "mode": "slll", "d_size": 100}, "moser-tardos": MT,
         "uniform-discrepancy": UD, "resfin": {**RESFIN, "patterns": [PAT]},
         "approx-invariant": AI, "rokhlin-bad": {**ROKHLIN, "single": SINGLE}}
JUST_OUTSIDE = {">= 0": [-1], ">= 1": [0], "> 0": [0], "in (0, 1)": [0, 1]}


def outside(typ: str):
    """Values just outside a type string: [] for each list alternative, and
    the nearest violation on each side of each bound (inside a one-entry list
    for a list of bounded entries)."""
    for alt in typ.split(" | "):
        if alt.startswith("list["):
            yield []
            yield from ([x] for x in outside(alt[5:-1]))
        for bound, xs in JUST_OUTSIDE.items():
            if alt.endswith(" " + bound):
                yield from (str(x) if alt.startswith("decimal string") else x for x in xs)


def set_at(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def bad_configs(schema, doc, path=()):
    """(config, key, test id) for every value just outside the type of a
    bounded or list-typed key of `schema`, set at `path` in `doc`."""
    for name, (typ, *_rest) in schema.items():
        at = (*path, name)
        if isinstance(typ, dict):
            yield from bad_configs(typ, doc, at)
            continue
        for value in [[]] if isinstance(typ, list) else outside(typ):
            yield set_at(doc, at, value), name, f"{'.'.join(map(str, at))}={json.dumps(value)}"
        if isinstance(typ, list):
            yield from bad_configs(typ[0], doc, (*at, 0))


@pytest.mark.parametrize("doc, key", [
    pytest.param(doc, key, id=f"{kind}:{where}") for kind, schema in SCHEMAS.items()
    for doc, key, where in bad_configs(schema["params"], BASES[kind])])
def test_values_outside_the_schema_are_config_errors(tmp_path, capsys, doc, key):
    _assert_config_error(tmp_path, capsys, doc, f"{key} must be")


def type_strings(schema):
    for typ, *_rest in schema.values():
        obj = typ[0] if isinstance(typ, list) else typ
        yield from type_strings(obj) if isinstance(obj, dict) else [typ]


def test_checker_reads_every_schema_type():
    types = {t for s in SCHEMAS.values() for t in type_strings(s["params"])}
    assert {"int", "bool", "'slll' | 'glll'", "int >= 1 | list[int >= 1]"} <= types
    for typ in types:
        # None and [None] reach every alternative and every list entry type
        assert _conforms(typ, None) is False and _conforms(typ, [None]) is False
    assert _conforms("int >= 1 | list[int]", [-3]) and _conforms("decimal string > 0", 0.1)
    assert not _conforms("decimal string > 0", "-0.1") and not _conforms("list[int]", [])
    for unknown in ("float", "int >= 2", "int | float", "list[str]"):
        with pytest.raises(ValueError, match="unknown schema type"):
            _conforms(unknown, [1])


@pytest.mark.parametrize("name, defaults", [
    ("lll-slll", {"shape": "interval"}),
    ("lll-glll", {"n_prefix": 64}),
])
def test_spelled_out_defaults_write_the_same_reports(tmp_path, name, defaults):
    shipped = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    omitted = {k: v for k, v in shipped.items() if k not in defaults}
    reports = []
    for i, doc in enumerate([omitted, {**omitted, **defaults}]):
        out = tmp_path / str(i)
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        kind = doc["experiment"]
        summary = json.loads((out / f"{kind}-summary.json").read_text())["summary"]
        reports.append((summary, (out / f"{kind}-detail.csv").read_bytes()))
    assert reports[0] == reports[1]


def test_meta_records_the_hash_kernel(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {**MT, "seeds": 2})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "moser-tardos-meta.json").read_text())
    assert meta["rng_kernel"] in ("c", "numpy")
    assert isinstance(meta["rng_kernel_built"], bool) and meta["rng_kernel_load_s"] >= 0
    summary = json.loads((out / "moser-tardos-summary.json").read_text())
    assert "rng_kernel" not in json.dumps(summary)


def test_meta_names_no_kernel_for_numpy_counts(tmp_path):
    # colors of k = 257 are int64, which only numpy hashes and counts
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {**ERGODIC, "k": 257, "n_max": 5})
    assert main(["run", cfg, "--out", str(out)]) in (EXIT_OK, EXIT_VERDICT)
    assert json.loads((out / "ergodic-converge-meta.json").read_text())["rng_kernel"] == "none"


def test_meta_describes_the_run_not_the_process(tmp_path):
    # several runs in one process: only a run that hashed more than single
    # values names a kernel, and only the first of them pays its load
    metas = []
    lll = {**LLL, "mode": "slll", "d_size": 1000}
    for i, doc in enumerate([{**MT, "seeds": 2}, lll, {**MT, "seeds": 2}]):
        out = tmp_path / f"rep{i}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) != EXIT_USAGE
        metas.append(json.loads((out / f"{doc['experiment']}-meta.json").read_text()))
    assert metas[1] == {"written_at": metas[1]["written_at"], "rng_kernel": "none",
                        "malloc_retain": metas[0]["malloc_retain"]}
    assert metas[2]["rng_kernel"] == metas[0]["rng_kernel"] in ("c", "numpy")
    assert metas[2]["rng_kernel_built"] is False and metas[2]["rng_kernel_load_s"] == 0.0


# Runs moser-tardos twice in one interpreter and prints the minor page faults
# of the second run and that run's meta.json.
FAULTS_CHILD = """
import json, resource, sys
from shiftlab.cli import main
cfg, out = sys.argv[1:]
main(["run", cfg, "--out", out])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = main(["run", cfg, "--out", out])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
meta = json.load(open(out + "/moser-tardos-meta.json"))
print(json.dumps({"code": code, "faults": faults, "meta": meta}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_moser_tardos_keeps_its_freed_arrays(tmp_path):
    # each seed allocates and frees the same ~6 MB of arrays; returned to the
    # kernel, they are faulted in again by every seed (about 1,700 faults
    # per seed at M = 100,000), so the count would grow with the seeds
    doc = json.loads((ROOT / "configs" / "moser-tardos.json").read_text())
    cfg = write_config(tmp_path, {**doc, "seeds": 20})
    env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", FAULTS_CHILD, cfg, str(tmp_path / "rep")],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["code"] == EXIT_OK
    assert got["faults"] < 1000, got["faults"]
    assert got["meta"]["malloc_retain"] is True


def test_run_without_mallopt_records_false(tmp_path, monkeypatch):
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {**RESFIN, "patterns": [PAT]})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "resfin-meta.json").read_text())["malloc_retain"] is False
