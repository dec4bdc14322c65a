import ast
import sys
from pathlib import Path

import degenskel

SRC = Path(__file__).resolve().parent.parent / "src" / "degenskel"


def test_public_names_resolve_once():
    names = degenskel.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(degenskel, n)] == []


def test_imports_are_stdlib_only():
    # the package has no runtime dependencies: every absolute import names
    # a standard-library module (relative imports stay inside the package)
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert len(list(SRC.glob("*.py"))) > 1
    assert outside == []


def test_text_io_names_its_encoding():
    # open, read_text and write_text default to the locale's encoding, which
    # need not be UTF-8 (ASCII in the C locale)
    unnamed = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "read_text", "write_text") and not any(
                k.arg == "encoding" for k in node.keywords
            ):
                unnamed.append(f"{path.name}:{node.lineno}: {name}")
    assert unnamed == []


# the line count of src/degenskel/*.py; growth past it must name its budget
# and raise the cap in the same change
SRC_LINE_CAP = 2447


def test_source_stays_within_its_line_cap():
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py")
    )
    assert lines <= SRC_LINE_CAP
