"""The package and the scripts in tools/ import nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import tgoppa

SRC = Path(tgoppa.__file__).parent
TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_relative_or_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 9
    tools = sorted(TOOLS.glob("*.py"))
    assert TOOLS / "bench_pairs.py" in tools
    foreign = {
        (path.name, name)
        for path in sources + tools
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign, f"non-stdlib imports: {sorted(foreign)}"
