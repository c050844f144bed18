"""The package and the scripts in tools/ import nothing outside the standard library,
and importing the package loads only what every caller needs."""

import ast
import hashlib
import subprocess
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


def test_import_loads_no_sweep_only_modules():
    """``import tgoppa`` in a fresh interpreter leaves hashlib, csv and pathlib unloaded;
    ``trial_seed`` imports hashlib when first called and still gives the stated hash."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tgoppa; "
        "print(sorted({'hashlib', 'csv', 'pathlib'} & set(sys.modules))); "
        "print(tgoppa.trial_seed(101, 7))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    reference = int.from_bytes(hashlib.sha256(b"101:7").digest()[:8], "big")
    assert out.stdout.splitlines() == ["[]", str(reference)]
