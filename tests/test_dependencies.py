"""The package has no runtime dependencies: every import in src/qconnect is
either the standard library or qconnect itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qconnect"


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, absolute module name) of every import in one source file;
    relative imports are qconnect's own and are left out."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module))
    return out


def test_imports_are_stdlib_or_qconnect():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [
        f"{path.name}:{line} imports {name}"
        for path in files
        for line, name in imported_modules(path)
        if name.split(".")[0] != "qconnect"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign
