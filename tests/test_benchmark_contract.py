"""Benchmark contract: the library names that perfbench/ imports, rebinds or calls still exist.

perfbench/ runs outside this suite, so a src move that drops one of these
names would break ``--trace 1`` or the output checker without a failure
here.  The files are only read and parsed, never imported or edited.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("spans.py", "checks.py", "workloads.py")

# methods that perfbench/checks.py calls on library objects
CALLED = [("pbitqkd.states", "DensityState", "expect"),
          ("pbitqkd.channels", "PauliNoiseModel", "to_json")]


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def library_imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Local name -> (pbitqkd module, name imported from it, or None for the module)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pbitqkd"):
            out.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
        elif isinstance(node, ast.Import):
            out.update((a.asname or a.name, (a.name, None)) for a in node.names
                       if a.name.startswith("pbitqkd"))
    return out


def listed(tree: ast.Module, name: str) -> list[ast.expr]:
    """The entries of the module-level list assigned to ``name``."""
    return next(node.value.elts for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name])


@pytest.mark.parametrize("name", FILES)
def test_every_library_name_perfbench_imports_exists(name):
    imports = library_imports(parse(name))
    assert imports, f"{name} imports nothing from pbitqkd"
    for module, attr in imports.values():
        loaded = importlib.import_module(module)
        assert attr is None or hasattr(loaded, attr), f"{name}: from {module} import {attr}"


def test_every_traced_method_is_defined_on_its_class():
    tree = parse("spans.py")
    imports = library_imports(tree)
    entries = listed(tree, "METHODS")
    assert entries
    for entry in entries:
        _, cls_name, method = entry.elts
        module, attr = imports[cls_name.id]
        cls = getattr(importlib.import_module(module), attr)
        # spans.py reads the method from the class __dict__, so an inherited one would not do
        assert method.value in cls.__dict__, f"{attr}.{method.value}"


@pytest.mark.parametrize("module,cls_name,method", CALLED)
def test_every_method_the_checker_calls_exists(module, cls_name, method):
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(cls.__dict__.get(method)), f"{cls_name}.{method}"


# traced names that no module rebinds, each with why it may stay unresolved
UNTRACED = {
    "joint_outcome_table": "moved to tests/reference.py; the benchmark repair drops its span",
    "pauli_op": "neither protocol nor cli imports it",
}


def test_every_traced_function_resolves_where_perfbench_rebinds_it():
    # spans.py wraps a FUNCTIONS name only where protocol or cli holds it, so a
    # name that neither holds would read 0 on its layer instead of failing
    names = [entry.elts[1].value for entry in listed(parse("spans.py"), "FUNCTIONS")]
    assert set(UNTRACED) <= set(names)
    modules = [importlib.import_module(f"pbitqkd.{mod}") for mod in ("protocol", "cli")]
    unresolved = [name for name in names if name not in UNTRACED
                  and not any(hasattr(module, name) for module in modules)]
    assert unresolved == []
