"""The benchmark's tracer (`bench/tracing.py`) wraps library functions that
its `TARGETS` name, and its workloads (`bench/workloads.py`) call library
functions by module attribute; a refactor that renames one would break the
benchmark without failing this suite.  Both files are read with `ast`, so
neither is imported."""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    """The (module, attr) pairs of `TARGETS`, in order."""
    for node in ast.parse(TRACING.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["TARGETS"]:
            return [tuple(map(ast.literal_eval, entry.elts[:2])) for entry in node.value.elts]
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def test_every_traced_name_resolves():
    targets = _targets()
    assert len(targets) > 20
    for module, attr in targets:
        assert module.startswith("fdecanc."), module
        owner = importlib.import_module(module)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer wraps a method in its class's own namespace, such as
        # `ModelKernel.objective` in `ModelKernel.__dict__`
        names = vars(owner) if classes else dir(owner)
        assert name in names, f"{module}.{attr} does not resolve"
        assert callable(getattr(owner, name)), f"{module}.{attr}"


WORKLOADS = TRACING.with_name("workloads.py")


def _library_uses():
    """What `bench/workloads.py` uses of the package: the modules it imports
    from it by name, and (module, attr, keywords) for each `mod.attr` of
    those modules, with the keyword names of a call to it, and for each name
    it imports from a package module."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fdecanc"):
            for alias in node.names:
                if node.module == "fdecanc":
                    modules[alias.asname or alias.name] = f"fdecanc.{alias.name}"
                else:
                    uses.append((node.module, alias.name, ()))
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called[id(node.func)] = tuple(k.arg for k in node.keywords if k.arg)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            uses.append((modules[node.value.id], node.attr, called.get(id(node), ())))
    return modules, uses


def test_every_library_name_the_workloads_use_resolves():
    modules, uses = _library_uses()
    assert set(modules) == {"cli", "metrics", "models", "optimizer", "sichannel"}
    assert len({attr for _, attr, _ in uses}) > 20
    assert any(keywords for _, _, keywords in uses)
    for module, attr, keywords in uses:
        owner = importlib.import_module(module)
        assert hasattr(owner, attr), f"{module}.{attr} does not resolve"
        params = inspect.signature(getattr(owner, attr)).parameters
        for name in keywords:
            assert name in params, f"{module}.{attr} takes no {name}="
