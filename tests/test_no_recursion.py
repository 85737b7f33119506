"""Source rule: no function in the package calls itself.

Call depth in CPython is capped by the recursion limit, so a recursive
walk over arcs, nodes or stages ends in RecursionError on large inputs.
"""

import ast
from pathlib import Path

import relengine


def self_calls(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == func.name
                ):
                    yield func.name, node.lineno


def test_no_function_calls_itself():
    found = []
    package = Path(relengine.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(package)
        found += [f"{where}:{line} {name}" for name, line in self_calls(tree)]
    assert found == []


def test_self_call_detection():
    source = "def outer():\n    def inner(k):\n        return inner(k - 1)\n    return 1\n"
    assert list(self_calls(ast.parse(source))) == [("inner", 3)]
