"""The traced benchmark wraps library functions by name; each must exist.

``bench/spans.py`` lists them in ``ENTRY_POINTS`` as (module, attribute),
with methods written ``Class.method``.  The table is read from the source
with ``ast`` so that nothing under ``bench/`` is imported or written.
"""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def entry_points() -> dict:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no ENTRY_POINTS")


def test_every_bench_entry_point_resolves():
    points = entry_points()
    assert points
    missing = []
    for name, (module, path) in sorted(points.items()):
        owner = importlib.import_module(f"degenskel.{module}")
        if "." in path:
            # methods are looked up in the class dict, where the tracer replaces them
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = hasattr(owner, path)
        if not found:
            missing.append(f"{name}: degenskel.{module}.{path}")
    assert not missing, missing
