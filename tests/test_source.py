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
