"""Static checks of the library modules with the stdlib ``ast`` only:
every loaded name is bound somewhere in its module (or is a builtin), every
imported name is used, every import sits at module level, and every
top-level function, class or assigned name is referenced by name somewhere
in the library or the tests.  Scopes are not told apart,
so a name bound in one function and loaded in another passes; the check
still catches a name that was never imported at all.  ``__init__.py``
re-exports by import and is skipped by the per-module checks.
"""

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idealspin"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node) -> set[str]:
    """Names inside string annotations such as ``"weakref.WeakKeyDictionary"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _scan(path: Path):
    """(bound names, loaded names, {imported name: line})."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, loaded, imported = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.add(name)
                imported.setdefault(name, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
            if node.annotation is not None:
                loaded |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            loaded |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            loaded |= _annotation_names(node.annotation)
    return bound, loaded, imported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_undefined_names(path):
    bound, loaded, _ = _scan(path)
    undefined = sorted(loaded - bound - set(dir(builtins)))
    assert not undefined, f"{path.name}: names loaded but bound nowhere: {undefined}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    _, loaded, imported = _scan(path)
    unused = sorted((line, name) for name, line in imported.items() if name not in loaded)
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


def _top_level_names(tree):
    """Names a module defines at top level: functions, classes and
    assignment targets.  Dunder names such as ``__version__`` are read by
    tools, not by code, and are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for sub in (n for t in targets for n in ast.walk(t)):
                if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                    yield sub.id


def _unreferenced(def_paths, ref_paths):
    """(module, name) of each top-level definition or assignment in
    def_paths whose name no file in ref_paths loads, reads as an attribute,
    or imports."""
    refs = set()
    for path in ref_paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return sorted((path.stem, name) for path in def_paths
                  for name in _top_level_names(ast.parse(path.read_text()))
                  if name not in refs)


def test_every_definition_is_referenced():
    sources = sorted(SRC.glob("*.py"))
    dead = _unreferenced(sources, sources + sorted(TESTS.glob("*.py")))
    assert not dead, f"top-level definitions never referenced: {dead}"


def test_only_fields_imports_roots():
    """Every real-embedding sign decision goes through
    FieldContext.sign_vector, so no module but fields uses the interval and
    Q[x] kernels of roots directly."""
    importers = sorted(
        path.name for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "roots")
    assert importers == ["fields.py"]


# The one import kept inside a function: loading multiprocessing adds about
# 0.9 MB (5%) to the peak RSS of every one-worker run, and only a pool of two
# or more workers uses it.
DEFERRED_IMPORTS = {("cli.py", "multiprocessing")}


def test_no_function_local_imports():
    """Every import of the library sits at module level, where it names the
    module's dependencies once instead of running on each call."""
    local = sorted(
        (path.name, alias.name, node.lineno) for path in SRC.glob("*.py")
        for tree in [ast.parse(path.read_text(), filename=str(path))]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
        for alias in node.names
        if (path.name, alias.name) not in DEFERRED_IMPORTS)
    assert not local, f"imports below module level (module, name, line): {local}"


def test_lint_flags_a_missing_import(tmp_path):
    """The check itself: an undefined exception name and an unused import
    are both reported."""
    bad = tmp_path / "bad.py"
    bad.write_text("from math import gcd\n\ndef f():\n"
                   "    try:\n        return 1\n    except GeneratorNotFound:\n        return 0\n")
    bound, loaded, imported = _scan(bad)
    assert loaded - bound - set(dir(builtins)) == {"GeneratorNotFound"}
    assert [n for n in imported if n not in loaded] == ["gcd"]


def test_lint_flags_an_unreferenced_definition(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("LIMIT = 3\nDEAD_CONST = 4\n__version__ = '1'\n\n\n"
                   "def used():\n    return LIMIT\n\n\ndef dead():\n    return used()\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import used\nDEAD_CONST = 5\n")
    assert _unreferenced([lib], [lib, user]) == [("lib", "DEAD_CONST"), ("lib", "dead")]
