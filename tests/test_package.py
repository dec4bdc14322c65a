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
