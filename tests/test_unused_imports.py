"""Every name a library module imports is referenced in that module.

No linter ships with the project, so this reads each module's syntax tree:
a name bound by `import` or `from ... import` must appear as a `Name` node
somewhere in the module. An import kept on purpose for other code to read
through the module (a re-export) carries `# noqa: F401` on its lines.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "newsmkl").glob("*.py"))


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports() -> list[str]:
    """`module.name` of each imported name its module never references."""
    unused = []
    for path in LIBRARY:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [f"{path.stem}.{name}" for name in _imported(node) if name not in used]
    return unused


def test_no_library_module_imports_a_name_it_does_not_use():
    assert unused_imports() == []


def test_an_unreferenced_import_is_flagged_unless_marked(tmp_path, monkeypatch):
    module = tmp_path / "lib.py"
    module.write_text("from __future__ import annotations\n\n"
                      "import json\nimport os.path\nfrom math import (ceil,\n    floor)\n"
                      "from re import sub  # noqa: F401\nfrom . import sibling as alias\n\n\n"
                      "def f(x) -> floor:\n    return os.path.join(x)\n")
    monkeypatch.setattr(sys.modules[__name__], "LIBRARY", [module])
    assert unused_imports() == ["lib.json", "lib.ceil", "lib.alias"]
