"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import costarena

PACKAGE = Path(costarena.__file__).parent


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_is_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    allowed = sys.stdlib_module_names | {"costarena"}
    outside = {(path.name, name) for path in sources for name in absolute_imports(path)
               if name.partition(".")[0] not in allowed}
    assert not outside
