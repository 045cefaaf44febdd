import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pixtext

MODULES = sorted(m.name for m in pkgutil.iter_modules(pixtext.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"pixtext.{name}")
    assert hasattr(module, "__all__"), f"pixtext.{name} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"pixtext.{name}.__all__ lists undefined names {missing}"


SOURCES = sorted(p for p in Path(pixtext.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in `__all__`
    counts as read (it is re-exported)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_check_sees_a_stray_import():
    source = ("from __future__ import annotations\nimport os, json as j\nfrom .a import b, c\n"
              "__all__ = ['c']\nprint(os.sep)\n")
    assert unused_imports(source) == ["b (line 3)", "j (line 2)"]


def parameter_walkers(source: str) -> list[str]:
    """Classes that define their own `parameters` method."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    return sorted(cls.name for cls in classes if any(
        isinstance(f, ast.FunctionDef) and f.name == "parameters" for f in cls.body))


def test_one_module_protocol():
    """Blocks list their parameters through `nn.Module`. Only `TextPath`
    (checkpoint names that are not attribute paths, a gate that is a
    parameter only when learnable) and `DensePredPipeline` (lr groups)
    walk their own."""
    walkers = [f"{path.stem}.{cls}" for path in SOURCES
               for cls in parameter_walkers(path.read_text())]
    assert sorted(walkers) == ["nn.Module", "pipeline.DensePredPipeline", "prompting.TextPath"]


def private_imports(source: str) -> list[str]:
    """Underscore names a module imports from another module."""
    return sorted(f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name.startswith("_") and node.module != "__future__")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_imports(path):
    """A private name has one owner: no module of the package imports one."""
    private = private_imports(path.read_text())
    assert not private, f"{path.name} imports private names {private}"
