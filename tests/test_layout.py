"""Design rules of the package, checked on its source.

Centers are compared with integers (x > s // d above s/d, x < -(-s // d)
below it), so Fraction belongs only to arith, whose center is the one public
function that returns a ratio.

The public Factorization constructor and Factorization.parse test every
base for primality, so the walk and the search, which build one
factorization per node or record, use Factorization._trusted instead.

Every name in panweird.__all__ resolves, once, so `from panweird import *`
works."""

import ast
from pathlib import Path

import panweird

SRC = Path(__file__).resolve().parent.parent / "src" / "panweird"
FRACTION_MODULES = {"arith.py"}
HOT_MODULES = ("enumerate.py", "weird.py")


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_only_arith_imports_fractions():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    offenders = [
        path.name for path in paths
        if path.name not in FRACTION_MODULES
        and any(name.split(".")[0] == "fractions"
                for name in imported_modules(ast.parse(path.read_text())))
    ]
    assert offenders == []


def test_hot_modules_never_build_checked_factorizations():
    offenders = []
    for name in HOT_MODULES:
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "Factorization" or (
                isinstance(func, ast.Attribute) and func.attr == "parse"
                and isinstance(func.value, ast.Name)
                and func.value.id == "Factorization"
            ):
                offenders.append("%s:%d" % (name, node.lineno))
    assert offenders == []


def test_public_names_resolve_once():
    names = panweird.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(panweird, name)] == []
