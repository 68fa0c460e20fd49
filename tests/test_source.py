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


def _is_literal(node) -> bool:
    try:
        ast.literal_eval(node)
        return True
    except ValueError:
        return False


def _is_driver_check(n) -> bool:
    if isinstance(n, ast.Raise):
        exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
        return isinstance(exc, ast.Name) and exc.id == "ConfigError"
    if isinstance(n, ast.Call):
        return (isinstance(n.func, ast.Attribute) and n.func.attr == "get"
                and len(n.args) == 2 and _is_literal(n.args[1]))
    return isinstance(n, ast.Name) and n.id.startswith("EXIT_")


def driver_checks(source: str) -> list[int]:
    """Lines of the `_run_*` experiment drivers that raise ConfigError, call
    `.get` with a literal default or name an exit code.  Config rules and
    defaults live in `cli.SCHEMAS`, and `cmd_run` maps verdicts to exit codes."""
    return sorted(n.lineno for fn in ast.walk(ast.parse(source))
                  if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_run_")
                  for n in ast.walk(fn) if _is_driver_check(n))


def test_driver_check_sees_checks():
    assert driver_checks("def _run_x(p):\n    raise ConfigError('x')\n    p.get('a', -1)\n"
                         "    p.get('b')\n    p.get('c', p['d'])\n    return EXIT_OK\n"
                         "def _lengths(h):\n    raise ConfigError('y')\n") == [2, 3, 6]


def test_drivers_hold_no_config_checks():
    assert driver_checks((ROOT / "src" / "shiftlab" / "cli.py").read_text()) == []


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
