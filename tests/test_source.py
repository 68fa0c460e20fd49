"""Checks on the source tree and the documentation rather than on results."""

import ast
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from shiftlab import cli, rng
from shiftlab.cli import SCHEMAS

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "shiftlab").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def raw_translate_calls(source: str) -> list[int]:
    """Lines that call `.act(` or `.act_array(`.  Outside `groups`, points
    are translated only through `CyclicTranslation.translates` and `.image`,
    so the action's fast path serves every consumer."""
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


# The functions of `cli` that check a config against `cli.SCHEMAS`.
VALIDATORS = ("_check", "_check_params", "_validate")


def driver_checks(source: str) -> list[int]:
    """Lines of the functions outside VALIDATORS that raise ConfigError, and
    of those that are not commands (`cmd_*`, `main`) that call `.get` with a
    literal default or name an exit code.  Config rules and defaults live in
    `cli.SCHEMAS`, and the commands map outcomes to exit codes."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name not in VALIDATORS:
            command = fn.name.startswith("cmd_") or fn.name == "main"
            lines.update(n.lineno for n in ast.walk(fn) if _is_driver_check(n)
                         and (not command or isinstance(n, ast.Raise)))
    return sorted(lines)


def test_driver_check_sees_checks():
    assert driver_checks("def _run_x(p):\n    raise ConfigError('x')\n    p.get('a', -1)\n"
                         "    p.get('b')\n    p.get('c', p['d'])\n    return EXIT_OK\n"
                         "def _lengths(h):\n    raise ConfigError('y')\n"
                         "def _validate(p):\n    raise ConfigError('z')\n    return p.get('a', 1)\n"
                         "def cmd_run(a):\n    x = a.get('out', 'reports')\n"
                         "    raise ConfigError(x)\n    return EXIT_OK\n") == [2, 3, 6, 8, 14]


def test_drivers_hold_no_config_checks():
    assert driver_checks((ROOT / "src" / "shiftlab" / "cli.py").read_text()) == []


README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_readme_python_example_runs():
    assert README_BLOCKS, "README.md has no python example"
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})


def _reads(tree) -> set[str]:
    """What `tree` reads or imports: `name` for a name or an import, `.attr`
    for an attribute."""
    loads = [n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return ({n.id for n in loads if isinstance(n, ast.Name)}
            | {"." + n.attr for n in loads if isinstance(n, ast.Attribute)}
            | {n.asname or n.name for n in ast.walk(tree) if isinstance(n, ast.alias)})


def untested_entries(allow, tests) -> list[str]:
    """The `allow` entries that no source in `tests` reads: a `Class.member`
    entry as the attribute `.member`, any other by its bare name or as an
    attribute (`rng._build`)."""
    read = set().union(*(_reads(ast.parse(t)) for t in tests))
    return sorted(n for n in allow
                  if "." + n.rpartition(".")[2] not in read and ("." in n or n not in read))


def test_untested_entry_check_sees_untested_entries():
    tests = ["from m import used\ndef test_x(b):\n    assert used() and b.spare()\n"]
    assert untested_entries({"used": "", "Box.spare": "", "gone": "", "Box.other": ""},
                            tests) == ["Box.other", "gone"]
    # a method entry is read as an attribute, never as a bare name; a
    # function entry either way
    assert untested_entries({"Box.used": "", "spare": ""}, tests) == ["Box.used"]


def _defs(node, prefix=""):
    """(qualified name, first line of its code) of each def under `node`,
    nested ones included; a decorated def's code starts at its first
    decorator."""
    for n in ast.iter_child_nodes(node):
        if isinstance(n, ast.FunctionDef):
            yield prefix + n.name, min(d.lineno for d in [n, *n.decorator_list])
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            yield from _defs(n, f"{prefix}{n.name}.")
        else:
            yield from _defs(n, prefix)


def unreached(modules, run, allow=()) -> list[str]:
    """The defs of `modules` (functions, methods and nested functions,
    private ones and dunders included) that `run()` does not enter, and
    their public classes other than exceptions that it constructs no
    instance of, by qualified name, except those that an `allow` entry
    covers: the def it names and the defs nested in it.  Then each `allow`
    entry that names no def.  A class counts as constructed once an object
    of it is the first argument of an `__init__`, a generated one included,
    or of a def of `modules`; a class argument (`cls`) counts as itself."""
    trees = {m.__file__: (m, ast.parse(Path(m.__file__).read_text())) for m in modules}
    codes, classes = set(), set()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            codes.add((code.co_filename, code.co_firstlineno))
            if code.co_argcount and (code.co_name == "__init__" or code.co_filename in trees):
                first = frame.f_locals[code.co_varnames[0]]
                classes.add(first if isinstance(first, type) else type(first))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    defs = {name: (f, line) for f, (_m, tree) in trees.items() for name, line in _defs(tree)}
    missed = [name for name, code in defs.items() if code not in codes]
    for m, tree in trees.values():
        public = [getattr(m, c.name) for c in tree.body
                  if isinstance(c, ast.ClassDef) and not c.name.startswith("_")]
        missed += [c.__name__ for c in public if not issubclass(c, BaseException)
                   and not any(issubclass(made, c) for made in classes)]
    return (sorted(n for n in missed if not any(n == a or n.startswith(a + ".") for a in allow))
            + [f"allowlisted but missing: {a}" for a in sorted(set(allow) - set(defs))])


TOY = """def main():
    return Box().used()
def unused():
    return Spare()
class Box:
    def used(self):
        return 1
    def spare(self):
        return 2
class Spare:
    pass
class Failure(ValueError):
    pass
"""


def test_reach_check_sees_unreached_defs_and_unbuilt_classes(tmp_path, monkeypatch):
    # Box has no __init__ of its own: its method's `self` shows it was built;
    # an exception class need not be
    (tmp_path / "reach_toy.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    toy = importlib.import_module("reach_toy")
    assert unreached([toy], toy.main) == ["Box.spare", "Spare", "unused"]
    assert unreached([toy], toy.main, {"unused": "", "Box.spare": "", "gone": ""}) == [
        "Spare", "allowlisted but missing: gone"]


# Package defs that the shipped runs below may leave unentered, with the
# reason: each runs or not by the host (which side of the hash kernel's
# switch serves, whether its cache is warm) or by the outcome of a run.
RUNTIME_PATHS = {
    **dict.fromkeys(["color_matrix", "_count_numpy", "_match_counts"],
                    "numpy fallback: counts what the C kernel does not take, or all "
                    "without it"),
    "_build": "compiles the C kernel, on a cold cache only",
    **dict.fromkeys(["_resolve_kernel", "_load_kernel", "_cache_dirs", "_kernel_key",
                     "_cpu_copy", "_declare", "_hash_c", "_count_c", "_plane", "_u64"],
                    "C path: resolves the kernel once per process and runs it where "
                    "it loads"),
    "IneqRecord.to_json": "writes the failing rows of a glll verdict failure",
    "find_log_growth_constant": "computes C for a glll config that omits it",
    "_Parser.error": "ends the command on a usage error",
}


def _shipped_runs(out: Path):
    """The ten shipped configs, `list`, every `describe` and the README
    example, as a user runs them."""
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        assert cli.main(["run", str(cfg), "--out", str(out / cfg.stem)]) == cli.EXIT_OK
    assert cli.main(["list"]) == cli.EXIT_OK
    assert all(cli.main(["describe", kind]) == cli.EXIT_OK for kind in SCHEMAS)
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("kernel", ["resolved", "numpy"])
def test_shipped_runs_enter_every_package_def(kernel, tmp_path, capsys, monkeypatch):
    if kernel == "numpy":
        monkeypatch.setattr(rng, "_kernel", False)
    modules = [importlib.import_module(f"shiftlab.{p.stem}") for p in MODULES]
    assert unreached(modules, lambda: _shipped_runs(tmp_path), RUNTIME_PATHS) == []
    # and each allowlisted path has a reason and a test that reads it
    assert all(reason.strip() for reason in RUNTIME_PATHS.values())
    tests = [p.read_text() for p in TESTS if p.name != "test_source.py"]
    assert untested_entries(RUNTIME_PATHS, tests) == []


def _is_dataclass(decorator) -> bool:
    d = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(d, "id", getattr(d, "attr", None)) == "dataclass"


def unread_fields(sources, readers, allow=()) -> list[str]:
    """Annotated fields of the `@dataclass` classes in `sources`, as
    `Class.field`, that no attribute load in `sources` or `readers` reads
    and that `allow` does not list, then each `allow` entry that names no
    such field or that a load reads.  A load matches a field by name,
    whatever its receiver."""
    trees = [ast.parse(s) for s in sources]
    read = {n.attr for t in trees + [ast.parse(r) for r in readers] for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = {f"{c.name}.{f.target.id}" for t in trees for c in ast.walk(t)
              if isinstance(c, ast.ClassDef) and any(map(_is_dataclass, c.decorator_list))
              for f in c.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
    unread = {f for f in fields if f.rpartition(".")[2] not in read}
    return (sorted(unread - set(allow))
            + [f"allowlisted but missing: {n}" for n in sorted(set(allow) - fields)]
            + [f"allowlisted but read: {n}" for n in sorted(set(allow) & fields - unread)])


def test_unread_field_check_sees_unread_fields():
    source = ("@dataclass(frozen=True)\nclass Box:\n    used: int\n    spare: int\n"
              "    mine: int\n    by_test: int\n"
              "    def twice(self):\n        self.spare = 0\n        return 2 * self.mine\n"
              "class Plain:\n    loose: int\n"
              "def main(b):\n    return b.used\n")
    # a store is not a read, and a class that is not a dataclass has no fields
    assert unread_fields([source], []) == ["Box.by_test", "Box.spare"]
    assert unread_fields([source], ["def test_box(b):\n    assert b.by_test\n"]) == [
        "Box.spare"]
    assert unread_fields([source], [], {"Box.by_test": ""}) == ["Box.spare"]
    assert unread_fields([source], [], {"Box.by_test": "", "Box.used": "", "Plain.loose": "",
                                        "Box.spare": ""}) == [
        "allowlisted but missing: Plain.loose", "allowlisted but read: Box.used"]


# Result fields that nothing but tests reads, with the reason.
READ_BY_TESTS = {
    **dict.fromkeys(["McEstimate.hits", "McEstimate.mean_occurrences"],
                    "exact Monte Carlo statistics that oracle tests compare"),
    **dict.fromkeys(["BadSequenceReport.stages", "StageRecord.n_start"],
                    "the stage schedule that tests check the global interval indexing against"),
}


def test_every_dataclass_field_is_read():
    # the package, the benchmark harness and the README example; a field
    # that only tests read is listed in READ_BY_TESTS
    readers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unread_fields([p.read_text() for p in MODULES], readers + README_BLOCKS,
                         READ_BY_TESTS) == []
    tests = [p.read_text() for p in TESTS if p.name != "test_source.py"]
    assert untested_entries(READ_BY_TESTS, tests) == []


def _defaults(node, prefix=""):
    """(`function.param`, positional index or None, default expression) for
    each parameter default of the function `node`, a method's first argument
    not counted unless it is a staticmethod."""
    a = node.args
    positional = a.posonlyargs + a.args
    skip = int(bool(prefix) and not any(getattr(d, "id", None) == "staticmethod"
                                        for d in node.decorator_list))
    first = len(positional) - len(a.defaults)
    out = [(f"{prefix}{node.name}.{p.arg}", i - skip, a.defaults[i - first])
           for i, p in enumerate(positional) if i >= first]
    return out + [(f"{prefix}{node.name}.{p.arg}", None, d)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _restates(arg, default) -> bool:
    """Whether the argument `arg` is a literal equal to the literal `default`."""
    try:
        a, d = ast.literal_eval(arg), ast.literal_eval(default)
    except (ValueError, TypeError):
        return False
    return type(a) is type(d) and a == d


def _sets(call, param: str, index, default) -> bool:
    """Whether `call` sets `param`, at positional `index` (None for keyword
    only), to anything but a literal equal to its `default`: by keyword, by
    position, or through `*` or `**`."""
    words = {k.arg: k.value for k in call.keywords}
    if None in words:
        return True
    if param in words:
        return not _restates(words[param], default)
    for i, x in enumerate(call.args if index is not None else ()):
        if isinstance(x, ast.Starred):
            return True
        if i == index:
            return not _restates(x, default)
    return False


def unset_defaults(sources, callers, allow=()) -> list[str]:
    """Parameter defaults of the module-level functions and of the methods of
    module-level classes in `sources`, as `function.param` or
    `Class.method.param`, that no call in `callers` sets and that `allow`
    does not list, then each `allow` entry that names no such default or
    that a call sets.  A call matches a function by the name it calls, bare
    or as an attribute, whatever the receiver; a class name calls the
    class's `__init__`.  A literal argument equal to the default does not
    set it."""
    calls = {}
    for source in callers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call):
                calls.setdefault(getattr(n.func, "id", getattr(n.func, "attr", None)),
                                 []).append(n)
    defaults, unset = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                found = [(node.name, d) for d in _defaults(node)]
            elif isinstance(node, ast.ClassDef):
                found = [(node.name if m.name == "__init__" else m.name, d)
                         for m in node.body if isinstance(m, ast.FunctionDef)
                         for d in _defaults(m, node.name + ".")]
            else:
                continue
            for called, (key, index, default) in found:
                defaults.add(key)
                if not any(_sets(c, key.rpartition(".")[2], index, default)
                           for c in calls.get(called, ())):
                    unset.add(key)
    return (sorted(unset - set(allow))
            + [f"allowlisted but missing: {n}" for n in sorted(set(allow) - defaults)]
            + [f"allowlisted but set: {n}" for n in sorted(set(allow) & defaults - unset)])


def test_unset_default_check_sees_unset_defaults():
    source = ("def main(argv=None):\n    return f(1, c=2) + g(*argv) + Box(**{}).m(4)\n"
              "def f(a, b=0, *, c=1, d=2):\n    return a\n"
              "def g(a=0, b=1):\n    return a\n"
              "class Box:\n    def __init__(self, size=1):\n        self.size = size\n"
              "    def m(self, x=0, y=1):\n        return x\n"
              "    @staticmethod\n    def s(x=0):\n        return x\n")
    # by keyword, by position and through * or **; a method's first
    # argument is not counted, and a static method has none
    assert unset_defaults([source], [source]) == [
        "Box.m.y", "Box.s.x", "f.b", "f.d", "main.argv"]
    assert unset_defaults([source], [source, "Box.s(1)\nh(d=3)\n"],
                          {"main.argv": "", "f.b": ""}) == ["Box.m.y", "f.d"]
    # a literal equal to the default restates it and sets nothing
    assert unset_defaults([source], [source, "Box.s(0)\nf(0, 0, d=2)\nBox().m(0, y=1)\n"]) == [
        "Box.m.y", "Box.s.x", "f.b", "f.d", "main.argv"]
    assert unset_defaults([source], [source, "f(0, 0.0, d=x)\nBox().m(0, y=True)\n"]) == [
        "Box.s.x", "main.argv"]
    assert unset_defaults([source], [source], {"main.argv": "", "f.c": "", "f.e": "",
                                                "Box.m.y": "", "Box.s.x": "",
                                                "f.b": "", "f.d": ""}) == [
        "allowlisted but missing: f.e", "allowlisted but set: f.c"]


# Parameter defaults that no library caller sets, with the reason.
DEFAULTS_SET_BY_TESTS = {
    "main.argv": "the CLI entry point reads sys.argv by default",
    **dict.fromkeys(["mc_deviation_prob.chunk", "ergodic_convergence_experiment.chunk"],
                    "tests show that results do not depend on the chunk size"),
}


def test_every_default_is_set_by_a_caller():
    sources = [p.read_text() for p in MODULES]
    assert unset_defaults(sources, sources + README_BLOCKS, DEFAULTS_SET_BY_TESTS) == []
    # and a test still sets every allowlisted default
    tests = [p.read_text() for p in TESTS if p.name != "test_source.py"]
    assert set(DEFAULTS_SET_BY_TESTS) & set(unset_defaults(sources, tests)) == set()


def _optional_keys(params: dict, prefix: str = ""):
    """(dotted key, [default] or []) for each key of a `SCHEMAS` parameter
    table that a config may omit, the keys of nested objects included."""
    for name, (typ, req, _doc, *default) in params.items():
        if req is not True:
            yield prefix + name, default
        obj = typ[0] if isinstance(typ, list) else typ
        if isinstance(obj, dict):
            yield from _optional_keys(obj, f"{prefix}{name}.")


def _given(config, key: str) -> list:
    """The values `config` gives the dotted `key`, one per object of a list
    of objects on its path."""
    name, _, rest = key.partition(".")
    if not isinstance(config, dict) or name not in config:
        return []
    if not rest:
        return [config[name]]
    value = config[name]
    return [v for item in (value if isinstance(value, list) else [value])
            for v in _given(item, rest)]


def unearned_keys(schemas, runs, allow=()) -> list[str]:
    """Optional keys of `schemas`, as `kind.key` with nested keys dotted, that
    no `(kind, config)` of `runs` sets to a value other than the key's
    default and that `allow` does not list, then each `allow` entry that
    names no optional key or that a run sets.  A key with no default is set
    by any value a run gives it."""
    optional, unset = set(), set()
    for kind, schema in schemas.items():
        for key, default in _optional_keys(schema["params"]):
            optional.add(f"{kind}.{key}")
            if not any(v not in default for k, config in runs if k == kind
                       for v in _given(config, key)):
                unset.add(f"{kind}.{key}")
    return (sorted(unset - set(allow))
            + [f"allowlisted but missing: {n}" for n in sorted(set(allow) - optional)]
            + [f"allowlisted but set: {n}" for n in sorted(set(allow) & optional - unset)])


def test_unearned_key_check_sees_unset_keys():
    schemas = {"x": {"params": {
        "n": ("int", True, "required"),
        "cap": ("int", False, "only its default is given", 10),
        "mode": ("str", False, "set", "a"),
        "probe": ("list[int]", False, "no default, never given"),
        "seed": ("int", False, "no default, given"),
        "block": ({"m": ("int", True, ""), "tol": ("number", False, "", 0.5)}, False, ""),
        "items": ([{"w": ("int", False, "", 1)}], True, ""),
    }}}
    # a nested key is set by any object of a list, and a run of another kind sets nothing
    runs = [("x", {"n": 1, "cap": 10, "mode": "b", "seed": 0, "block": {"m": 1, "tol": 0.5},
                   "items": [{"w": 1}, {"w": 2}]}),
            ("y", {"probe": [1], "block": {"tol": 0.1}})]
    assert unearned_keys(schemas, runs) == ["x.block.tol", "x.cap", "x.probe"]
    assert unearned_keys(schemas, runs + [("x", {"block": {"m": 2}})]) == [
        "x.block.tol", "x.cap", "x.probe"]
    assert unearned_keys(schemas, runs, {"x.cap": "", "x.probe": "", "x.block.tol": "",
                                         "x.mode": "", "x.n": "", "x.gone": ""}) == [
        "allowlisted but missing: x.gone", "allowlisted but missing: x.n",
        "allowlisted but set: x.mode"]


# Optional config keys that no shipped run sets, with the reason.
UNSET_BY_RUNS = {
    "moser-tardos.max_steps": "bounds a run that stalls: the default budget is 1000 steps "
                              "per induced event, 100M at M = 100,000, and the contested "
                              "config on the ROADMAP sets it",
    **dict.fromkeys(["moser-tardos.a", "uniform-discrepancy.a"],
                    "the paper's witness exponent"),
}


def _shipped_small() -> dict:
    """`SHIPPED_SMALL` of perfbench/workloads.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return next(ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == ["SHIPPED_SMALL"])


def test_every_optional_key_is_set_by_a_run():
    # the shipped configs, and the benchmark's self-test runs of them
    shipped = {p.stem: json.loads(p.read_text()) for p in (ROOT / "configs").glob("*.json")}
    configs = list(shipped.values()) + [{**shipped[name], **small}
                                        for name, small in _shipped_small().items()]
    runs = [(config["experiment"], config) for config in configs]
    assert unearned_keys(SCHEMAS, runs, UNSET_BY_RUNS) == []
