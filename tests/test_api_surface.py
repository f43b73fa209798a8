"""Every top-level function and class of the package has a caller.

A symbol counts as used when a name, an attribute, an imported name or a
string equal to it (a ``getattr``-style lookup, as perfbench's tracer
makes) appears in ``src/sweepnav`` outside its package re-exports, in
``demos/``, in the README's Python blocks or in ``perfbench/``.  A
``cmd_<command>`` counts as used through the subparser of its command,
which ``cli.main`` dispatches by name.  Tests are not callers.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sweepnav"


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _subcommands(tree: ast.AST) -> set[str]:
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser" and node.args
            and isinstance(node.args[0], ast.Constant)}


def _caller_trees() -> list[ast.AST]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees += [ast.parse(block) for block in re.findall(r"^```python\n(.*?)^```", readme,
                                                        re.M | re.S)]
    return trees


def test_every_top_level_definition_has_a_caller():
    trees = _caller_trees()
    used = set().union(*map(_references, trees))
    used |= {f"cmd_{name}" for tree in trees for name in _subcommands(tree)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in used):
                unused.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not unused, "no caller in src/, demos/, README or perfbench/: " + ", ".join(unused)
