"""The library's public surface, read from the source with ``ast``: every
exported name and every public class member of the engine modules has a
caller outside the tests or a decision that keeps it, no module imports a
name it does not use, every error class is raised, and the README's
Library example runs."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import szilard

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "szilard"
DECISIONS = ROOT / "notes" / "decisions.md"

#: exported names and class members with no caller outside the tests, each
#: kept by the decision entry (a ``## `` heading of notes/decisions.md) that
#: argues for it
KEPT = {
    "uniform_product": "The engine keeps what it runs",
    "sample_indices": "The engine keeps what it runs",
}

#: the modules whose classes' public methods and properties need a reader
ENGINE = ("probdist.py", "entropy.py", "game.py", "compress.py")


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _trees_outside_the_tests() -> list[ast.Module]:
    """``src/szilard``, ``scripts/`` and ``perfbench/``, parsed."""
    trees = list(_modules().values())
    for folder in ("scripts", "perfbench"):
        trees += [ast.parse(p.read_text()) for p in sorted((ROOT / folder).rglob("*.py"))]
    return trees


def _used_outside_the_tests() -> set[str]:
    """Every name read in ``src/szilard``, ``scripts/`` or ``perfbench/``."""
    return set().union(*map(_used_names, _trees_outside_the_tests()))


def _attributes_read_outside_the_tests() -> set[str]:
    """Every attribute read in ``src/szilard``, ``scripts/`` or ``perfbench/``:
    a class member is read as ``obj.member``, so a bare name (a local
    variable that shares its name) does not count."""
    return {
        node.attr
        for tree in _trees_outside_the_tests()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }


def test_every_exported_name_has_a_caller_or_a_decision():
    headings = set(re.findall(r"^## (.+)$", DECISIONS.read_text(), flags=re.MULTILINE))
    for name, heading in KEPT.items():
        assert heading in headings, (name, heading)
    uncalled = sorted(set(szilard.__all__) - _used_outside_the_tests() - set(KEPT))
    assert uncalled == [], f"exported names nothing outside the tests uses: {uncalled}"


def test_every_public_class_member_has_a_reader_or_a_decision():
    modules = _modules()
    members = {
        item.name
        for name in ENGINE
        for node in modules[name].body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    unread = sorted(members - _attributes_read_outside_the_tests() - set(KEPT))
    assert unread == [], f"class members nothing outside the tests reads: {unread}"


def test_no_module_imports_a_name_it_does_not_use():
    for name, tree in _modules().items():
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        unused = sorted(imported - _used_names(tree))
        assert unused == [], f"{name} imports {unused} and never uses them"


def test_every_error_class_is_raised_by_another_module():
    modules = _modules()
    errors = {node.name for node in modules.pop("errors.py").body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= _used_names(exc)
    assert sorted(errors - raised) == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, flags=re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "931.3771955160273"
