"""Reports of the shipped configs, pinned by sha256.

Every summary and detail file written by each of the ten shipped configs
must hash to the value recorded in perfbench/reference.json (seed 0, the
configs as shipped), under the hash kernel the process resolves (the C one
wherever a compiler works) and again under the numpy fallback.  The file is
only read here.  concentration-sweep and moser-tardos take a few seconds
each; the others well under one.
"""

import hashlib
import json
from pathlib import Path

import pytest

from shiftlab import rng
from shiftlab.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())["lab-configs"]
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
# configs that hash at most single values, so their meta records no kernel
UNHASHED = {"lll-glll", "lll-slll", "resfin", "rokhlin-bad"}


def test_every_config_has_a_reference():
    assert len(CONFIGS) == 10 and set(CONFIGS) == set(REFERENCE)


@pytest.mark.parametrize("name, kernel", [
    *(pytest.param(n, "resolved", id=n) for n in CONFIGS),
    *(pytest.param(n, "numpy", id=f"{n}-numpy") for n in CONFIGS)])
def test_shipped_config_reports_match_reference(name, kernel, tmp_path, capsys, monkeypatch):
    if kernel == "numpy":
        monkeypatch.setattr(rng, "_kernel", False)
        monkeypatch.setattr(rng, "_kernel_info", {"rng_kernel": "numpy",
                                                  "rng_kernel_built": False,
                                                  "rng_kernel_load_s": 0.0})
    out = tmp_path / name
    code = main(["run", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir()) if not p.name.endswith("-meta.json")}
    assert got == REFERENCE[name]
    meta, = (json.loads(p.read_text()) for p in out.glob("*-meta.json"))
    if name in UNHASHED:
        assert meta["rng_kernel"] == "none"
    else:
        assert meta["rng_kernel"] == ("numpy" if kernel == "numpy"
                                      else rng._kernel_info["rng_kernel"])
