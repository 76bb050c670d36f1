"""The package imports nothing outside the standard library and reads no
environment variable."""

import ast
import sys
from pathlib import Path

import costarena

PACKAGE = Path(costarena.__file__).parent


#: The ``os`` names that read or write the process environment.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def absolute_imports(path: Path):
    for node in nodes(path):
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


def environment_names(path: Path):
    for node in nodes(path):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (alias.name for alias in node.names if alias.name in ENVIRONMENT)


def test_package_reads_no_environment():
    # every cap is a module constant, so only arguments and files change a result
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = {(path.name, name) for path in sources for name in environment_names(path)}
    assert not found
