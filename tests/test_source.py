"""Checks on the source tree and the documentation rather than on results."""

import ast
import json
import re
from pathlib import Path

import pytest

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


def _first_arg(fn) -> str | None:
    args = fn.args.posonlyargs + fn.args.args
    return args[0].arg if args else None


def _reads(node, skip=(), cls=None) -> set[str]:
    """What `node` reads or imports, outside `skip`: `name` for a name or an
    import, `.attr` for an attribute, and `Cls.attr` for an attribute of the
    first argument (`self`, `cls`) of a method of `cls`, the class `node` is
    or the one whose method it is.  A name given as the type argument of
    `isinstance`, alone or in a tuple, is tested for, not read."""
    typed = {id(t) for c in ast.walk(node) if isinstance(c, ast.Call)
             and getattr(c.func, "id", None) == "isinstance" and len(c.args) == 2
             for t in (c.args[1].elts if isinstance(c.args[1], ast.Tuple) else [c.args[1]])}
    out = set()
    todo = [(node, _first_arg(node) if cls and isinstance(node, ast.FunctionDef) else None)]
    while todo:
        n, me = todo.pop()
        if any(n is s for s in skip):
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in typed:
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            mine = me and isinstance(n.value, ast.Name) and n.value.id == me
            out.add(f"{cls}.{n.attr}" if mine else "." + n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
        for child in ast.iter_child_nodes(n):
            method = n is node and isinstance(n, ast.ClassDef) and isinstance(child, ast.FunctionDef)
            todo.append((child, _first_arg(child) if method else me))
    return out


def _definitions(sources) -> tuple[dict, set, dict]:
    """What each top-level definition reads, the names of the public
    functions, classes and methods, and each class's family: itself, its
    bases and its subclasses among `sources`.  A public method is its own
    definition, `Class.method`, and its class does not read its body."""
    reads, public, bases = {}, set(), {}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            reads.setdefault(n.id, set()).update(_reads(node))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                cls = node.name if isinstance(node, ast.ClassDef) else None
                methods = ([m for m in node.body if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")] if cls else [])
                reads.setdefault(node.name, set()).update(_reads(node, methods, cls))
                if not node.name.startswith("_"):
                    public.add(node.name)
                for m in methods:
                    key = f"{node.name}.{m.name}"
                    reads.setdefault(key, set()).update(_reads(m, cls=cls))
                    public.add(key)
                if cls:
                    bases[cls] = {b.id for b in node.bases if isinstance(b, ast.Name)}
    family = {}
    for cls in bases:
        up, todo = set(), [cls]
        while todo:
            for b in bases.get(todo.pop(), ()):
                if b not in up:
                    up.add(b)
                    todo.append(b)
        family.setdefault(cls, set()).update({cls} | up)
        for b in up:
            family.setdefault(b, {b}).add(cls)
    return reads, public, family


def _closure(reads: dict, family: dict, seeds) -> set[str]:
    """Definitions reached from the names in `seeds`: a top-level one when its
    name is read, bare or as an attribute; a method when its class is reached
    and its name is read as an attribute, or through `self` in a method of a
    class of its family.  A plain name never reaches a method."""
    read, reached = set(seeds), set()
    grew = True
    while grew:
        grew = False
        for key in reads.keys() - reached:
            cls, _, name = key.rpartition(".")
            if cls:
                hit = cls in reached and ("." + name in read or any(
                    f"{c}.{name}" in read for c in family[cls]))
            else:
                hit = "." + key in read
            if key in read or hit:
                reached.add(key)
                read |= reads[key]
                grew = True
    return reached


def unreached_names(sources, roots, allow) -> list[str]:
    """Public functions, classes and methods in `sources` that neither the
    names in `roots` nor the `allow` entries reach, then each `allow` entry
    that names no such definition or that `roots` reach without it.  An
    attribute read through `self` reaches only its class's family; any
    other attribute read matches without its receiver's type, so a read
    `x.to_json` reaches the `to_json` of every reached class."""
    reads, public, family = _definitions(sources)
    alone = _closure(reads, family, roots)
    return (sorted(public - _closure(reads, family, set(roots) | set(allow)))
            + [f"allowlisted but missing: {n}" for n in sorted(set(allow) - public)]
            + [f"allowlisted but reached: {n}" for n in sorted(set(allow) & alone)])


def test_reachability_check_sees_unreached_names():
    source = ("def main():\n    return _helper().used()\n"
              "def _helper():\n    return Box()\n"
              "def unused():\n    return Spare()\n"
              "class Box:\n    def used(self):\n        return 1\n"
              "    def spare(self):\n        return 2\n"
              "class Spare:\n    def used(self):\n        return 3\n")
    assert unreached_names([source], {"main"}, {}) == [
        "Box.spare", "Spare", "Spare.used", "unused"]
    # an oracle entry reaches what it reads
    assert unreached_names([source], {"main"}, {"unused": "", "Box.spare": ""}) == []
    assert unreached_names([source], {"main"}, {"unused": "", "Box.spare": "", "Box": "",
                                                "gone": ""}) == [
        "allowlisted but missing: gone", "allowlisted but reached: Box"]
    # a local variable `spare` does not reach Box.spare, and `self.inner` in
    # Box reaches the `inner` of Box and of its subclass, not of Lone
    source = ("def main():\n    spare = Box().used() + Sub().used() + Lone().used()\n"
              "    return spare\n"
              "class Box:\n    def used(self):\n        return self.inner()\n"
              "    def inner(self):\n        return 1\n"
              "    def spare(self):\n        return 2\n"
              "class Sub(Box):\n    def inner(self):\n        return 3\n"
              "class Lone:\n    def used(self):\n        return 4\n"
              "    def inner(self):\n        return 5\n")
    assert unreached_names([source], {"main"}, {}) == ["Box.spare", "Lone.inner"]
    # a class named only as the type argument of isinstance, alone or in a
    # tuple, is not reached: a type test builds nothing
    source = ("def main(x):\n    if isinstance(x, Tested) or isinstance(x, (int, Built)):\n"
              "        return 0\n    return Built()\n"
              "class Tested:\n    pass\n"
              "class Built:\n    pass\n")
    assert unreached_names([source], {"main"}, {}) == ["Tested"]


# Public names that no experiment runs but that tests rely on, with the reason.
REACHED_BY_TESTS = {
    **dict.fromkeys(
        ["occurrences", "empirical_freq", "event_probability_exact", "scb_bound",
         "TowerSystem.level_array", "TapeSpace.symbol"],
        "oracle: a test compares a path the experiments run against it"),
}


def untested_entries(allow, tests) -> list[str]:
    """The `allow` entries that no source in `tests` reads: a function or a
    class by its bare name, a `Class.method` entry as the attribute `.method`."""
    read = set().union(*(_reads(ast.parse(t)) for t in tests))
    return sorted(n for n in allow if "".join(n.rpartition(".")[1:]) not in read)


def test_untested_entry_check_sees_untested_entries():
    tests = ["from m import used\ndef test_x(b):\n    assert used() and b.spare()\n"]
    assert untested_entries({"used": "", "Box.spare": "", "gone": "", "Box.other": ""},
                            tests) == ["Box.other", "gone"]
    # a method entry is read as an attribute, never as a bare name
    assert untested_entries({"Box.used": ""}, tests) == ["Box.used"]


def test_every_public_name_is_reached():
    # the CLI entry point, the experiment drivers and all the README example reads
    roots = {"main", "RUNNERS"}.union(*(_reads(ast.parse(b)) for b in README_BLOCKS))
    sources = [p.read_text() for p in MODULES]
    assert unreached_names(sources, roots, REACHED_BY_TESTS) == []
    # and a test still reads every allowlisted name
    tests = [p.read_text() for p in TESTS if p.name != "test_source.py"]
    assert untested_entries(REACHED_BY_TESTS, tests) == []


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
