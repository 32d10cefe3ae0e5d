"""Every module-level import in `src/` and `tests/` is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) of each module-level import in `path` whose bound name
    the module never reads, unless its import statement says
    ``noqa: F401``."""
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
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append((node.lineno, name))
    return found


def test_scan_finds_unused_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys  # noqa: F401\nimport os.path as p\n"
                      "from math import (\n    gcd,\n    lcm,\n)\n\n\n"
                      "def f():\n    import json\n    return gcd(p.sep)\n")
    assert unused_imports(module) == [(1, "os"), (4, "lcm")]


def test_no_unused_module_level_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for folder in ("src", "tests")
              for path in sorted((ROOT / folder).rglob("*.py"))
              for line, name in unused_imports(path)]
    assert unused == []
