"""Every `sheafcast` name the demos use, every name the benchmark's traced
run wraps, and every exported name, exists.

No test runs the demos or the traced benchmark, so a removed or moved name
would break them without any test failing. The scans read the names from
the source (an AST walk) and resolve each one; nothing is executed.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import sheafcast

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
LAYERS = ROOT / "benchmarks" / "layers.py"


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


def _wrapped_attributes(tree):
    """(owner, attribute) per wrap call in `install`, owners resolved to
    package objects. Understands the forms `install` uses: `w = tracer.wrap`,
    owners that are imported modules or attributes of them, loops over a
    tuple of owners, and loops over a module-level dict's `.items()`."""
    constants = {node.targets[0].id: node.value
                 for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and isinstance(node.value, ast.Dict)}
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    env, wrap_names = {}, set()

    def values(expr):
        if isinstance(expr, ast.Constant):
            return [expr.value]
        if isinstance(expr, ast.Name):
            return env[expr.id]
        if isinstance(expr, ast.Attribute):
            return [getattr(owner, expr.attr) for owner in values(expr.value)]
        raise AssertionError(f"unresolvable wrap argument: {ast.unparse(expr)}")

    pairs = []
    for node in ast.walk(install):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                env[alias.asname or alias.name] = [
                    importlib.import_module(f"{node.module}.{alias.name}")]
        elif isinstance(node, ast.Assign) and ast.unparse(node.value) == "tracer.wrap":
            wrap_names.add(node.targets[0].id)
        elif isinstance(node, ast.For):
            if isinstance(node.iter, ast.Tuple):
                env[node.target.id] = [v for elt in node.iter.elts for v in values(elt)]
            else:
                table = ast.literal_eval(constants[node.iter.func.value.id])
                key, value = node.target.elts
                env[key.id], env[value.id] = list(table), list(table.values())
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in wrap_names | {"tracer.wrap"}:
            pairs += [(owner, attr) for owner in values(node.args[0])
                      for attr in values(node.args[1])]
    return pairs


def test_every_attribute_the_traced_benchmark_wraps_exists():
    """`benchmarks/layers.py::install` wraps package functions by the name
    each caller looks them up by; a renamed or moved one crashes the traced
    run at start-up."""
    pairs = _wrapped_attributes(ast.parse(LAYERS.read_text(), filename=str(LAYERS)))
    names = {(getattr(owner, "__name__", owner), attr) for owner, attr in pairs}
    assert ("sheafcast.cli", "simulate") in names and len(names) > 30
    missing = [f"{owner.__name__}.{attr}" for owner, attr in pairs
               if not hasattr(owner, attr)]
    assert not missing, f"layers.py wraps names sheafcast does not define: {missing}"


def test_every_exported_name_exists():
    missing = [name for name in sheafcast.__all__ if not hasattr(sheafcast, name)]
    assert not missing, missing
    assert len(set(sheafcast.__all__)) == len(sheafcast.__all__)


SRC = sorted((ROOT / "src" / "sheafcast").glob("*.py"))


@pytest.mark.parametrize("source", SRC, ids=[p.stem for p in SRC])
def test_every_package_name_a_module_imports_is_used_or_wrapped(source):
    """A name a package module imports from the package at module level is
    read in that module, exported by `__all__`, or wrapped under that
    module by `benchmarks/layers.py::install`, which looks it up there; any
    other is a stray import left behind by a removed caller."""
    module = importlib.import_module(f"sheafcast.{source.stem}".removesuffix(".__init__"))
    wrapped = {attr for owner, attr in
               _wrapped_attributes(ast.parse(LAYERS.read_text(), filename=str(LAYERS)))
               if owner is module}
    tree = ast.parse(source.read_text(), filename=str(source))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(getattr(module, "__all__", ()))
    stray = [name for name in imported if name not in read | wrapped]
    assert not stray, f"{source.name} imports names it neither reads nor has wrapped: {stray}"


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "sheafcast"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "sheafcast" for alias in node.names)


@pytest.mark.parametrize("source", SRC, ids=[p.stem for p in SRC])
def test_no_module_imports_from_the_package_inside_a_function(source):
    """Package imports sit at module level, so a module's header shows every
    package module it depends on, and an import cycle fails at import time
    instead of hiding behind a call."""
    tree = ast.parse(source.read_text(), filename=str(source))
    nested = sorted({node.lineno for func in ast.walk(tree)
                     if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(func) if _is_package_import(node)})
    assert not nested, f"{source.name} imports from the package inside a function, lines {nested}"


_JSON_READERS = ("artifacts", "config")


@pytest.mark.parametrize("source", [p for p in SRC if p.stem not in _JSON_READERS],
                         ids=[p.stem for p in SRC if p.stem not in _JSON_READERS])
def test_only_the_artifact_and_config_readers_decode_json(source):
    """`artifacts.read_manifest` (every pinned artifact and record meta) and
    `config.load_config` are the package's JSON readers, so every JSON it
    reads gets the object, format and schema checks; a second reader would
    index unchecked values."""
    tree = ast.parse(source.read_text(), filename=str(source))
    calls = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"}
                   | {node.lineno for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "json"
                      and {"load", "loads"} & {alias.name for alias in node.names}})
    assert not calls, f"{source.name} decodes JSON itself, lines {calls}"
