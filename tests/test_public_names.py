"""Source rule: every public name of the package has a caller outside the tests.

A module-level function or class of ``src/relengine`` whose name does not
start with an underscore is either exported (``relengine.__all__``) or
referenced, as a name, an attribute or an import, somewhere under
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition. A
helper that only the tests call belongs with the tests.
"""

import ast
from pathlib import Path

import relengine

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree, path):
    """(name, owner) for each name, attribute and imported name in a module,
    where owner is (path, name) of the module-level definition it sits in,
    or None."""
    for stmt in tree.body:
        owner = (path, stmt.name) if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name.rpartition(".")[2], owner


def uncalled_public_names(root):
    """module.name of each public definition under root/src/relengine that
    is neither exported nor referenced outside its own definition."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in ("src", "scripts", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
    }
    owners = {}
    for path, tree in trees.items():
        for name, owner in references(tree, path):
            owners.setdefault(name, set()).add(owner)
    found = []
    for path in sorted((root / "src" / "relengine").glob("*.py")):
        for stmt in trees[path].body:
            if (
                isinstance(stmt, DEFINITIONS)
                and not stmt.name.startswith("_")
                and stmt.name not in relengine.__all__
                and not owners.get(stmt.name, set()) - {(path, stmt.name)}
            ):
                found.append(f"{path.stem}.{stmt.name}")
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names(ROOT) == []


def test_uncalled_public_name_detection(tmp_path):
    package = tmp_path / "src" / "relengine"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def lonely():\n    return lonely\n\n"  # its own reference does not count
        "class Helper:\n    pass\n\n"
        "def _private():\n    return 2\n\n"
        "def reliability_qb2():\n    return 3\n"  # exported
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from relengine.mod import used\nimport relengine.mod\nrelengine.mod.Helper()\n"
    )
    assert uncalled_public_names(tmp_path) == ["mod.lonely"]
