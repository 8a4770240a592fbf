"""Properties of the library source itself."""

import ast
import re
from pathlib import Path

import pargal
from pargal import cli


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so a certificate or bug trap
    # guarded by one would silently vanish; they raise AssertionError
    found = []
    for path in sorted(Path(pargal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_library_imports_only_the_standard_library():
    # pyproject.toml declares dependencies = []; numpy and sympy are
    # test-only oracles
    import sys

    found = []
    for path in sorted(Path(pargal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_readme_lists_the_command_table():
    # the README's "Commands:" list, over its line breaks, is cli.HANDLERS
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = re.search(r"Commands: `([^`]*)`", readme).group(1).split()
    assert listed == list(cli.HANDLERS)


def test_every_private_function_and_class_is_used_in_the_library():
    # a private module-level function or class that no library code names
    # is dead code; names, attributes and import aliases count, docstrings
    # do not
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(pargal.__file__).parent.glob("*.py"))}
    private = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert private
    orphans = [f"{module}: {name}" for module, name in private if name not in used]
    assert not orphans, orphans
