"""Every threshold lives in quatpoly.tolerances, and every name there is used.

A module that writes its own small float literal, or a power of two such as
``2.0 ** -960``, has a threshold outside the policy; a policy name no module
reads is dead.
"""

import ast
from pathlib import Path

import quatpoly

PACKAGE = Path(quatpoly.__file__).parent
POLICY = PACKAGE / "tolerances.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p != POLICY)


def _small_literals(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-3):
            yield node.lineno, repr(node.value)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.left, ast.Constant) and node.left.value == 2
              and isinstance(node.right, ast.UnaryOp)
              and isinstance(node.right.op, ast.USub)):
            yield node.lineno, ast.unparse(node)


def test_no_threshold_literal_outside_the_policy():
    assert len(MODULES) >= 9
    sites = [f"{path.name}:{line}: {text}" for path in MODULES
             for line, text in _small_literals(ast.parse(path.read_text()))]
    assert sites == []


def test_the_guard_sees_each_literal_form():
    tree = ast.parse("a = 5e-14\nb = -1e-6 * x\nc = 2.0 ** -960\nd = 1e-3\ne = 0.5")
    assert sorted(text for _, text in _small_literals(tree)) == ["1e-06", "2.0 ** (-960)", "5e-14"]


def test_every_policy_name_is_used():
    names = {target.id for node in ast.parse(POLICY.read_text()).body
             if isinstance(node, ast.Assign) for target in node.targets}
    used = {node.id for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert names and sorted(names - used) == []
