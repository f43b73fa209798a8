"""Every top-level function and class of the package, and every public
method of a top-level class, has a caller, and every configuration key
has a reader.

A symbol counts as used when a name, an attribute, an imported name or a
string equal to it (a ``getattr``-style lookup, as perfbench's tracer
makes) appears in ``src/sweepnav`` outside its package re-exports, in
``demos/``, in the README's Python blocks or in ``perfbench/``.  A
``cmd_<command>`` counts as used through its command's entry in
``cli.COMMANDS``, from which ``cli.build_parser`` makes the subparser
that ``cli.main`` dispatches by name.  A module-level ``__getattr__``
or ``__dir__`` (PEP 562) counts as used: the import system calls it.
Tests are not callers.

A key of ``config.DEFAULTS`` counts as read when ``cli.py`` reads it
as a literal ``cfg["<key>"]``, or when it is a field of a section that
a command builds with a literal ``_from_config(cfg, "<prefix>")``.
"""

import ast
import dataclasses
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sweepnav"
# module functions that attribute lookup and dir() call (PEP 562)
MODULE_HOOKS = {"__getattr__", "__dir__"}


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
    """The commands of a module: the literal string keys of its
    top-level ``COMMANDS`` dict, from which ``cli.build_parser`` makes
    one subparser each."""
    return {key.value for node in getattr(tree, "body", [])
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets)
            for key in node.value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)}


def _caller_trees() -> list[ast.AST]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees += [ast.parse(block) for block in re.findall(r"^```python\n(.*?)^```", readme,
                                                        re.M | re.S)]
    return trees


def _definitions(tree: ast.Module):
    """The top-level functions and classes of a module, and the public
    methods (no leading underscore) of its classes, as ``(name, node)``;
    a method is named ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def test_every_top_level_definition_has_a_caller():
    trees = _caller_trees()
    used = set().union(*map(_references, trees))
    used |= {f"cmd_{name}" for tree in trees for name in _subcommands(tree)}
    used |= MODULE_HOOKS
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, node in _definitions(tree):
            if node.name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, "no caller in src/, demos/, README or perfbench/: " + ", ".join(unused)


def test_every_config_key_is_read_by_a_command():
    from sweepnav.config import DEFAULTS, SECTIONS

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)):
            read.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_from_config" and len(node.args) == 2
              and isinstance(node.args[1], ast.Constant)):
            prefix = node.args[1].value
            read |= {f"{prefix}.{f.name}" for f in dataclasses.fields(SECTIONS[prefix])}
    unread = sorted(set(DEFAULTS) - read)
    assert not unread, "no command in cli.py reads: " + ", ".join(unread)
