"""Only quatpoly.eigensolver calls into numpy.linalg.

Every other module reaches LAPACK through that one seam, where a LAPACK
failure becomes NoConvergenceError and exit code 3.  ``np.linalg.norm`` is
the one attribute left free: it is plain arithmetic and cannot fail.
"""

import ast
from pathlib import Path

import quatpoly

PACKAGE = Path(quatpoly.__file__).parent
SEAM = PACKAGE / "eigensolver.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != SEAM)


def _linalg_uses(tree):
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            parent = parents.get(node)
            if not isinstance(parent, ast.Attribute):
                yield node.lineno, ast.unparse(node)
            elif parent.attr != "norm":
                yield node.lineno, ast.unparse(parent)
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "numpy.linalg"
                or node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Import) and any(a.name == "numpy.linalg" for a in node.names):
            yield node.lineno, ast.unparse(node)


def test_numpy_linalg_only_behind_the_seam():
    assert len(MODULES) >= 9
    sites = [f"{path.name}:{line}: {text}" for path in MODULES
             for line, text in _linalg_uses(ast.parse(path.read_text()))]
    assert sites == []


def test_the_guard_sees_each_form():
    tree = ast.parse("a = np.linalg.solve(m, b)\n"
                     "b = np.linalg.norm(v)\n"
                     "c = numpy.linalg.LinAlgError\n"
                     "la = np.linalg\n"
                     "from numpy.linalg import svd\n"
                     "from numpy import linalg\n"
                     "import numpy.linalg\n")
    assert [text for _, text in sorted(_linalg_uses(tree))] == [
        "np.linalg.solve", "numpy.linalg.LinAlgError", "np.linalg",
        "from numpy.linalg import svd", "from numpy import linalg", "import numpy.linalg"]
