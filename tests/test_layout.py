"""Design rules of the package, checked on its source.

Centers are compared with integers (x > s // d above s/d, x < -(-s // d)
below it), so Fraction belongs only to arith, whose center is the one public
function that returns a ratio.

The public Factorization constructor and Factorization.parse test every
base for primality, so the walk and the search, which build one
factorization per node or record, use Factorization._trusted instead.

classify.children is the one child step of the walks and the searches, so
no other module extends a node's prime-power sigmas with `sigpps + ...`.

Every name in panweird.__all__ resolves, once, so `from panweird import *`
works.  Every other module-level function, class and constant is named by
some other statement of the package, so no dead entry point lingers."""

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


def test_only_classify_builds_child_nodes():
    def is_sigpps(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "sigpps"

    paths = sorted(SRC.glob("*.py"))
    offenders = [
        "%s:%d" % (path.name, node.lineno) for path in paths if path.name != "classify.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and (is_sigpps(node.left) or is_sigpps(node.right))
    ]
    assert offenders == []


def test_public_names_resolve_once():
    names = panweird.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(panweird, name)] == []


def test_every_module_level_name_is_exported_or_used():
    stmts = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    refs = [{n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom) for a in n.names}
            for _, stmt in stmts]
    unused = []
    for i, (module, stmt) in enumerate(stmts):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        unused += ["%s.%s" % (module, name) for name in defined
                   if not name.startswith("__") and name not in panweird.__all__
                   and not any(name in r for j, r in enumerate(refs) if j != i)]
    assert unused == []
