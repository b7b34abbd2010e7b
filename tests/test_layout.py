"""The package stands alone: nothing under ``src/repro`` reaches tests."""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def test_package_imports_no_benchmark_or_test_module():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("benchmarks", "tests"):
                    offenders.append(f"{path.relative_to(PACKAGE)}: {name}")
    assert not offenders
