"""Checks on the package source itself."""

import ast
from pathlib import Path

import mine


def test_no_assert_statements_in_package():
    # Correctness checks must survive `python -O`, which strips asserts.
    found = []
    for path in sorted(Path(mine.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
