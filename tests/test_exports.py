"""Every `sheafcast` name the demos use, and every exported name, exists.

No test runs the demos, so a removed name would break them without any
test failing. The scan reads their imports from the source (an AST walk)
and resolves each one; no demo is executed.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import sheafcast

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _resolve(module: str, name: str):
    """`from module import name`, without the import statement."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def _package_imports(tree):
    """(module, name) per name imported from the package, and the local
    names bound to package modules."""
    imported, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sheafcast":
            for alias in node.names:
                imported.append((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sheafcast":
                    modules[alias.asname or alias.name] = alias.name
    return imported, modules


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_every_package_name_a_demo_uses_exists(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported, modules = _package_imports(tree)
    assert imported or modules, f"{demo.name} imports nothing from sheafcast"
    missing = []
    for module, name in imported:
        try:
            value = _resolve(module, name)
        except ImportError:
            missing.append(f"{module}.{name}")
            continue
        if isinstance(value, types.ModuleType):
            modules[name] = value.__name__
    # attributes read off an imported package module, e.g. `ad.no_grad`
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            owner = importlib.import_module(modules[node.value.id])
            if not hasattr(owner, node.attr):
                missing.append(f"{owner.__name__}.{node.attr}")
    assert not missing, f"{demo.name} uses names sheafcast does not define: {missing}"


def test_every_exported_name_exists():
    missing = [name for name in sheafcast.__all__ if not hasattr(sheafcast, name)]
    assert not missing, missing
    assert len(set(sheafcast.__all__)) == len(sheafcast.__all__)
