"""Reports of the shipped configs, pinned by sha256.

Every summary and detail file written by each of the ten shipped configs
must hash to the value recorded in perfbench/reference.json (seed 0, the
configs as shipped).  The file is only read here.  concentration-sweep and
moser-tardos take a few seconds each; the others well under one.
"""

import hashlib
import json
from pathlib import Path

import pytest

from shiftlab.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())["lab-configs"]
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))


def test_every_config_has_a_reference():
    assert len(CONFIGS) == 10 and set(CONFIGS) == set(REFERENCE)


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_reports_match_reference(name, tmp_path, capsys):
    out = tmp_path / name
    code = main(["run", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir()) if not p.name.endswith("-meta.json")}
    assert got == REFERENCE[name]
