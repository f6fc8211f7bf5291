"""Every name a bandcross module exports in __all__ exists in it, every
module-level import of a bandcross module is used, every module-level
private name is referenced somewhere in the package, and the package loads
no scipy.

A stale export otherwise fails only on ``from bandcross.<module> import *``;
an unused import or private helper, left behind when the code that read it
is deleted, fails nothing at all.
"""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import bandcross


def test_every_all_entry_exists():
    modules = [bandcross] + [
        importlib.import_module(f"bandcross.{info.name}")
        for info in pkgutil.iter_modules(bandcross.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of a source file never read as a name.

    A name listed in the module's __all__ counts as used (a re-export);
    ``from __future__`` imports are compiler directives and are skipped.
    """
    tree = ast.parse(path.read_text())
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used and name not in exported]


def test_no_unused_imports():
    sources = sorted(Path(bandcross.__file__).parent.glob("*.py"))
    assert sources
    unused = [entry for path in sources for entry in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``def _x``, ``class _X`` and ``_X = ...`` by line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, reads as attributes, or imports from a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in
             sorted(Path(bandcross.__file__).parent.glob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    defined = [(name, f"{module}:{line} {name}")
               for module, tree in trees.items()
               for name, line in _private_definitions(tree).items()]
    assert defined
    assert [entry for name, entry in defined if name not in referenced] == []


def test_package_and_entry_points_load_no_scipy():
    # a fresh interpreter, since the test oracles load scipy into this one;
    # scipy's import costs each bcl run and benchmark unit about 0.4 s and
    # 50 MB, and numpy does everything the package needs
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(bandcross.__file__).parents[1])
    script = ("import sys, bandcross, bandcross.harness, bandcross.cli; "
              "print(sorted(m for m in sys.modules "
              "if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.splitlines()[-1] == "[]"
