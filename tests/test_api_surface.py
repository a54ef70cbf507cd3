"""Every public top-level function and class of the library has a user.

A public name must be referenced by code in the library outside its own
definition, in the benchmark (`perfbench/`), or in the acceptance tests
and their oracles. A name that only the other tests call is an API kept
for the tests alone: move it into `tests/oracles.py` or delete it.

References are read from the syntax tree: a `Name` or `Attribute` node
with the name, or a string constant equal to it (the benchmark probe and
`mkl.get_solver` look functions up by name). Comments and docstrings that
mention a name do not count.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "newsmkl").glob("*.py"))
USERS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
         ROOT / "tests" / "oracles.py"]


def _references(nodes) -> set[str]:
    out = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _public_definitions(tree: ast.Module) -> list[ast.AST]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def unused_public_names() -> list[str]:
    """`module.name` of each public top-level definition that no user references."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY}
    used = set()
    for path in USERS:
        used |= _references(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    unused = []
    for path, tree in trees.items():
        for definition in _public_definitions(tree):
            if definition.name in used:
                continue
            own = {id(node) for node in ast.walk(definition)}
            elsewhere = set()
            for other, other_tree in trees.items():
                nodes = ast.walk(other_tree)
                if other == path:
                    nodes = (node for node in nodes if id(node) not in own)
                elsewhere |= _references(nodes)
            if definition.name not in elsewhere:
                unused.append(f"{path.stem}.{definition.name}")
    return unused


def test_every_public_name_has_a_user_beyond_the_unit_tests():
    assert unused_public_names() == []


def test_a_name_only_its_own_body_mentions_is_unused(tmp_path, monkeypatch):
    module = tmp_path / "lib.py"
    module.write_text('def used():\n    return helper()\n\n\n'
                      'def helper():\n    """helper() calls itself."""\n    return helper\n\n\n'
                      'def recursive(n):\n    return recursive(n - 1)  # recursive\n\n\n'
                      'class Lonely:\n    @classmethod\n    def make(cls):\n        return Lonely()\n')
    monkeypatch.setattr(sys.modules[__name__], "LIBRARY", [module])
    monkeypatch.setattr(sys.modules[__name__], "USERS", [])
    assert unused_public_names() == ["lib.used", "lib.recursive", "lib.Lonely"]
