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


def library_trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(Path(pargal.__file__).parent.glob("*.py"))}


def names_in(tree):
    """Every name, attribute and import alias that ``tree`` uses; docstrings
    do not count."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_private_function_and_class_is_used_in_the_library():
    # a private module-level function or class that no library code names
    # is dead code, and so is a public function of the partial G-set core
    # that no other library module names
    trees = library_trees()
    private = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    used = set().union(*map(names_in, trees.values()))
    assert private
    orphans = [f"{module}: {name}" for module, name in private if name not in used]
    assert not orphans, orphans
    core = [node.name for node in trees["gset.py"].body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    named = set().union(*(names_in(tree) for module, tree in trees.items() if module != "gset.py"))
    assert core
    orphans = [f"gset.py: {name}" for name in core if name not in named]
    assert not orphans, orphans


def test_the_partial_g_set_core_imports_no_algebra():
    # gset holds plain lists: of pargal it imports the groups alone
    tree = library_trees()["gset.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("pargal")):
            found += [f"{node.module or '.'}:{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.startswith("pargal")]
    assert found == ["groups:FiniteGroup"], found
