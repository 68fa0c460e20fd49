"""Checks on the source tree and the documentation rather than on results."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "shiftlab").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_sees_unused_names():
    assert unused_imports("import math\nimport os.path\nfrom x import a, b as c\n"
                          "os.path.join(a)\n") == ["c", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def raw_translate_calls(source: str) -> list[int]:
    """Lines that call `.act(` or `.act_array(`.  Outside `groups`, points
    are translated through `FiniteAction.translates` and `.image`, which
    raise BoundaryError where a translate is undefined."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in ("act", "act_array"))


def test_translate_call_check_sees_calls():
    assert raw_translate_calls("a.act(g, x)\nf(b.act_array)\nc.image(g)\n"
                               "d.act_array(g, p).sum()\n") == [1, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "groups.py"],
                         ids=lambda p: p.stem)
def test_only_groups_translates_point_by_point(path):
    assert raw_translate_calls(path.read_text()) == []


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
