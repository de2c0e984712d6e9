"""Source-level rules that the test suite enforces on the package."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "glspaths"


def test_no_assert_statements_in_the_package():
    # invariants must raise typed exceptions: python -O strips asserts
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
