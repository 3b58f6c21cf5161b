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
    from it by name, and (module, attr, call) for each `mod.attr` of those
    modules and each name it imports from a package module.  `call` is the
    positional count and keyword names of a call to it, or None where the
    use is not a call or the call unpacks `*args` or `**kwargs`."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, names, uses = {}, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fdecanc"):
            for alias in node.names:
                if node.module == "fdecanc":
                    modules[alias.asname or alias.name] = f"fdecanc.{alias.name}"
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
                    uses.append((node.module, alias.name, None))
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            called[id(node.func)] = None if unpacked else (
                len(node.args), tuple(k.arg for k in node.keywords))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            uses.append((modules[node.value.id], node.attr, called.get(id(node))))
        elif isinstance(node, ast.Name) and node.id in names and id(node) in called:
            uses.append((*names[node.id], called[id(node)]))
    return modules, uses


def test_every_library_name_the_workloads_use_resolves():
    modules, uses = _library_uses()
    assert set(modules) == {"cli", "metrics", "models", "optimizer", "sichannel"}
    assert len({attr for _, attr, _ in uses}) > 20
    assert any(call and call[1] for _, _, call in uses)
    for module, attr, _ in uses:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr} does not resolve"


def test_every_library_call_the_workloads_make_binds():
    # a call binds to the signature with placeholder values: a parameter
    # renamed, removed or moved breaks a call that passes it, by name or place
    _, uses = _library_uses()
    calls = [(module, attr, call) for module, attr, call in uses if call is not None]
    assert len(calls) > 20
    for module, attr, (npos, keywords) in calls:
        sig = inspect.signature(getattr(importlib.import_module(module), attr))
        try:
            sig.bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{module}.{attr}{sig}: {exc}") from None
