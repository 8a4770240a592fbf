"""Properties of the library source itself."""

import ast
from pathlib import Path

import pargal


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so a certificate or bug trap
    # guarded by one would silently vanish; they raise AssertionError
    found = []
    for path in sorted(Path(pargal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
