"""Every module-level import in `src/` and `tests/` is used, and every
top-level function and class in `src/`, and every method and property
of its classes, is used by the package or the benchmark, not only by
tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def module_imports(path):
    """(line, bound name, whether its statement says ``noqa: F401``) of
    each name a module-level import in `path` binds, and the names the
    module reads."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            found.append((node.lineno, alias.asname or alias.name.split(".")[0], noqa))
    return found, read


def unused_imports(path):
    """(line, name) of each module-level import in `path` whose bound name
    the module never reads, unless its import statement says
    ``noqa: F401``."""
    found, read = module_imports(path)
    return [(line, name) for line, name, noqa in found if not noqa and name not in read]


def noqa_imports(path):
    """(line, name) of each name a module-level import in `path` binds
    under ``noqa: F401``."""
    return [(line, name) for line, name, noqa in module_imports(path)[0] if noqa]


def test_scan_finds_unused_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys  # noqa: F401\nimport os.path as p\n"
                      "from math import (\n    gcd,\n    lcm,\n)\n\n\n"
                      "def f():\n    import json\n    return gcd(p.sep)\n")
    assert unused_imports(module) == [(1, "os"), (4, "lcm")]


def test_scan_finds_noqa_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom math import gcd, lcm  # noqa: F401\n"
                      "from json import (  # noqa: F401\n    dumps,\n)\n")
    assert noqa_imports(module) == [(2, "gcd"), (2, "lcm"), (3, "dumps")]


def test_noqa_imports_are_named_by_the_benchmark():
    """A module of `src/` other than a package `__init__.py` keeps an
    import it never reads (``noqa: F401``) only for the benchmark's tracer,
    which wraps module globals it names as strings: each such name must be
    a string a `perfbench/` file spells, so an import the tracer stops
    naming fails here instead of lingering."""
    named = {node.value for path in sorted((ROOT / "perfbench").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    kept = [(path, line, name) for path in sorted((ROOT / "src").rglob("*.py"))
            if path.name != "__init__.py" for line, name in noqa_imports(path)]
    assert kept, "the scan should see the tracer's imports in mechanism.py"
    unnamed = [f"{path.relative_to(ROOT)}:{line}: {name}"
               for path, line, name in kept if name not in named]
    assert unnamed == []


def test_no_unused_module_level_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for folder in ("src", "tests")
              for path in sorted((ROOT / folder).rglob("*.py"))
              for line, name in unused_imports(path)]
    assert unused == []


def referenced_names(path):
    """Every name `path` reads as a variable or an attribute, or spells as
    a whole string, as the benchmark's tracer names what it wraps."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreferenced_definitions(defining, using):
    """(path, line, name) of each top-level function or class of the
    files `defining` that no file of `using` references."""
    read = set().union(*map(referenced_names, using))
    return [(path, node.lineno, node.name) for path in defining
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


def test_scan_finds_unreferenced_definitions(tmp_path):
    module, user = tmp_path / "module.py", tmp_path / "user.py"
    module.write_text("def used():\n    return helper\n\n\ndef helper():\n    pass\n\n\n"
                      "class Wrapped:\n    pass\n\n\nclass Unused:\n    def used(self):\n"
                      "        pass\n")
    user.write_text("import module\nmodule.used()\nTARGETS = ('Wrapped',)\n")
    assert unreferenced_definitions([module], [module, user]) == [(module, 13, "Unused")]


def test_no_src_definition_only_tests_use():
    package = sorted((ROOT / "src").rglob("*.py"))
    users = package + sorted((ROOT / "perfbench").rglob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path, line, name in unreferenced_definitions(package, users)]
    assert unused == []


def unreferenced_members(defining, using):
    """(path, line, class.member) of each method or property of a
    top-level class of the files `defining`, other than a ``__dunder__``
    the language calls, that no file of `using` reads as an attribute."""
    read = {node.attr for path in using
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    return [(path, member.lineno, f"{node.name}.{member.name}") for path in defining
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)
            for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (member.name.startswith("__") and member.name.endswith("__"))
            and member.name not in read]


def test_scan_finds_unreferenced_members(tmp_path):
    module, user = tmp_path / "module.py", tmp_path / "user.py"
    module.write_text("class Kept:\n    def __init__(self):\n        self.called()\n\n"
                      "    def called(self):\n        pass\n\n"
                      "    @property\n    def read(self):\n        return 1\n\n"
                      "    def named(self):\n        pass\n\n"
                      "    @property\n    def unread(self):\n        return 2\n\n\n"
                      "def named():\n    return Kept().read\n")
    user.write_text("import module\nTARGETS = ('named',)\n")
    assert unreferenced_members([module], [module, user]) == [
        (module, 12, "Kept.named"), (module, 16, "Kept.unread")]


def test_no_src_member_only_tests_use():
    """A method or property of a `src/` class is read as an attribute by
    the package or the benchmark: one kept only for the tests fails here."""
    package = sorted((ROOT / "src").rglob("*.py"))
    users = package + sorted((ROOT / "perfbench").rglob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path, line, name in unreferenced_members(package, users)]
    assert unused == []


CONTAINER_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def _called_name(node):
    """The name a call or decorator spells, without its module prefix."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _holds_state(value):
    return (isinstance(value, (ast.Dict, ast.List, ast.Set,
                               ast.DictComp, ast.ListComp, ast.SetComp))
            or _called_name(value) in CONTAINER_TYPES)


def state_kept_between_calls(path):
    """(line, name) of each module-level name in `path` bound to a dict, a
    list or a set (a display, a comprehension or a call of the type), and
    of each function that a caching decorator wraps: the places a result
    could outlive the call that made it.  Compiled patterns, decoders,
    tuples and frozensets hold no such state."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found += [(node.lineno, node.name) for decorator in node.decorator_list
                      if _called_name(decorator) in CACHE_DECORATORS]
            continue
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            pairs = ([(target, value)] if not (isinstance(target, ast.Tuple)
                                               and isinstance(value, ast.Tuple))
                     else zip(target.elts, value.elts))
            found += [(node.lineno, name.id) for bound, held in pairs if _holds_state(held)
                      for name in ast.walk(bound) if isinstance(name, ast.Name)]
    return found


def test_scan_finds_state_kept_between_calls(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import json, re\nfrom functools import lru_cache\n"
                      "A = {}\nB: list = []\nC = set()\nD = re.compile('x')\n"
                      "E = json.JSONDecoder()\nF = ('a', 'b')\nG = frozenset(F)\n"
                      "H = {k: 0 for k in F}\nI, J = [], ()\n\n\n"
                      "def f():\n    return {}\n\n\n"
                      "@lru_cache(maxsize=None)\ndef g(x):\n    return x\n")
    assert state_kept_between_calls(module) == [
        (3, "A"), (4, "B"), (5, "C"), (10, "H"), (11, "I"), (19, "g")]


def test_parse_keeps_no_state_between_calls():
    """`serialize` reads each document on its own: any memo lives in one
    `parse` call, so a second parse of the same text does all the work
    again and a replayed corpus measures parsing, not lookups."""
    path = ROOT / "src" / "vertiport_auction" / "serialize.py"
    assert state_kept_between_calls(path) == []


def _bound_names(function):
    """Names `function` binds itself: its parameters and the names it
    assigns or defines, not those of functions nested in it."""
    arguments = function.args
    bound = {a.arg for a in (*arguments.posonlyargs, *arguments.args,
                             *arguments.kwonlyargs, arguments.vararg, arguments.kwarg)
             if a is not None}
    pending = list(function.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        pending.extend(ast.iter_child_nodes(node))
    return bound


def _nested_functions(function):
    """The functions defined in `function`'s own body, not deeper."""
    found, pending = [], list(function.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda node: node.lineno)


def closure_cycles(path):
    """(line, dotted name) of each function nested in a function of
    `path` that reaches its own name through the names it and its
    sibling nested functions read: one that calls itself, or two or more
    that call each other.  Each such function's closure holds a cell
    that holds the function, a reference cycle that only the cyclic
    collector frees, with everything the closure holds.  A module-level
    function or a method reads its own name through the module's
    globals, which makes no cycle."""
    found = []
    pending = [(node, node.name) for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    while pending:
        function, dotted = pending.pop()
        nested = _nested_functions(function)
        names = {node.name for node in nested}
        reads = {node.name: {name.id for name in ast.walk(node)
                             if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
                 - _bound_names(node) & names
                 for node in nested}
        for node in nested:
            reached, frontier = set(), set(reads[node.name])
            while frontier:
                reached |= frontier
                frontier = set().union(*(reads[name] for name in frontier)) - reached
            if node.name in reached:
                found.append((node.lineno, f"{dotted}.{node.name}"))
            pending.append((node, f"{dotted}.{node.name}"))
    return sorted(found)


def test_scan_finds_closure_cycles(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("def outer():\n"
                      "    def again(n):\n        return again(n - 1) if n else 0\n"
                      "    def ping(n):\n        return pong(n)\n"
                      "    def pong(n):\n        return ping(n - 1) if n else 0\n"
                      "    def helper():\n        return 1\n"
                      "    def uses_helper():\n        return helper()\n"
                      "    def shadows(again):\n        return again\n"
                      "    def rebinds():\n        rebinds = 1\n        return rebinds\n"
                      "    def holds():\n        def inner():\n            return holds\n"
                      "        return inner\n"
                      "    return again, ping, uses_helper, shadows, rebinds, holds\n\n\n"
                      "def flat(n):\n    return flat(n - 1) if n else 0\n\n\n"
                      "class K:\n    def m(self):\n        return self.m, K\n")
    assert closure_cycles(module) == [
        (2, "outer.again"), (4, "outer.ping"), (6, "outer.pong"), (17, "outer.holds")]


def test_no_nested_function_closes_a_reference_cycle():
    """A call into `src/` frees what it made by reference counting alone:
    no nested function reaches itself through its closure."""
    cycles = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in sorted((ROOT / "src").rglob("*.py"))
              for line, name in closure_cycles(path)]
    assert cycles == []
