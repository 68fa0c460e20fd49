import json

import pytest

from shiftlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT, SCHEMAS, main


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
    assert main(["describe", "wat"]) == EXIT_USAGE


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


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_USAGE


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


@pytest.mark.parametrize("doc, key", [
    ({**LLL, "mode": "slll"}, "'d_size'"),
    ({**LLL, "mode": "glll"}, "'a'"),
    ({**ROKHLIN, "single": {"eps": "0.1", "modulus": 4200}}, "'h'"),
    ({**ROKHLIN, "single": {"h": 5, "modulus": 4200}}, "'eps'"),
    ({**ROKHLIN, "single": {"eps": "0.1", "h": 5}}, "'modulus'"),
    ({**ROKHLIN, "single": {**SINGLE, "hh": 1}}, "'hh'"),
    ({**ROKHLIN, "single": {**SINGLE, "modulus": "4200"}}, "modulus must be int"),
    ({**ROKHLIN, "single": 5}, "single must be"),
    ({**ROKHLIN, "h": []}, "h must list"),
    ({**ROKHLIN, "single": {**SINGLE, "h": []}}, "single: h must list"),
    ({**ROKHLIN, "h": [3]}, "h gives 1 length(s)"),
    ({**ROKHLIN, "single": {**SINGLE, "h": [3, 4]}}, "single: h gives 2 length(s)"),
])
def test_conditional_and_nested_keys_are_config_errors(tmp_path, capsys, doc, key):
    _assert_config_error(tmp_path, capsys, doc, key)


def test_meta_records_the_hash_kernel(tmp_path):
    out = tmp_path / "rep"
    cfg = write_config(tmp_path, {**MT, "seeds": 2})
    assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "moser-tardos-meta.json").read_text())
    assert meta["rng_kernel"] in ("c", "numpy")
    assert isinstance(meta["rng_kernel_built"], bool) and meta["rng_kernel_load_s"] >= 0
    summary = json.loads((out / "moser-tardos-summary.json").read_text())
    assert "rng_kernel" not in json.dumps(summary)


def test_meta_describes_the_run_not_the_process(tmp_path):
    # several runs in one process: only a run that hashed more than single
    # values names a kernel, and only the first of them pays its load
    metas = []
    lll = {**LLL, "mode": "slll", "d_size": 1000}
    for i, doc in enumerate([{**MT, "seeds": 2}, lll, {**MT, "seeds": 2}]):
        out = tmp_path / f"rep{i}"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) != EXIT_USAGE
        metas.append(json.loads((out / f"{doc['experiment']}-meta.json").read_text()))
    assert metas[1] == {"written_at": metas[1]["written_at"], "rng_kernel": "none"}
    assert metas[2]["rng_kernel"] == metas[0]["rng_kernel"] in ("c", "numpy")
    assert metas[2]["rng_kernel_built"] is False and metas[2]["rng_kernel_load_s"] == 0.0
