"""The benchmark's tracer (`bench/tracing.py`) wraps library functions that
its `TARGETS` name; a refactor that renames one would break the benchmark
without failing this suite.  `TARGETS` is read with `ast`, so the tracer is
not imported."""

import ast
import importlib
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
