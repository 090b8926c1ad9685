"""Source hygiene: every module-level import in the package is used, and
every module-level private name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tieralloc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression in
    the module reads (__future__ imports aside)."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_the_checker_flags_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 2: b", "line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _private_names(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Module-level private (single-underscore) names bound by a def, a
    class or an assignment, with the nodes that define them."""
    out: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, []).append(node)
    return out


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each module-level private name that no code in any
    of the modules reads outside the name's own definitions (a read by
    name, an attribute of that name, or an import of it counts)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads: dict[str, list[int]] = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            elif isinstance(n, ast.alias):
                name = n.name
            else:
                continue
            reads.setdefault(name, []).append(id(n))
    dead = []
    for mod, tree in trees.items():
        for name, defs in sorted(_private_names(tree).items()):
            inside = {id(n) for d in defs for n in ast.walk(d)}
            if all(r in inside for r in reads.get(name, ())):
                dead.append(f"{mod}:{name}")
    return dead


def test_the_checker_flags_a_dead_private_name():
    sources = {
        "a": ("_LIMIT = 3\n_unused = 1\n"
              "def _loop(n):\n    return _loop(n - 1) if n else _LIMIT\n"
              "class _Shape:\n    pass\n"
              "def _helper():\n    return 0\n"
              "def public():\n    return _Shape\n"),
        "b": "from .a import _helper\n",
    }
    assert _dead_private_names(sources) == ["a:_loop", "a:_unused"]


def test_package_has_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_names(sources) == []
