"""Design rules of the package, checked on its source.

Centers are compared with integers (x > s // d above s/d, x < -(-s // d)
below it), so Fraction belongs only to the modules whose public functions
take or return a ratio: arith (center) and classify
(primitivity_lower_bound, extend_primitive_coprime)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "panweird"
FRACTION_MODULES = {"arith.py", "classify.py"}


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_only_arith_and_classify_import_fractions():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    offenders = [
        path.name for path in paths
        if path.name not in FRACTION_MODULES
        and any(name.split(".")[0] == "fractions"
                for name in imported_modules(ast.parse(path.read_text())))
    ]
    assert offenders == []
