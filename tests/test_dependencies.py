"""The package imports nothing beyond the standard library and the
dependencies pyproject.toml declares: a module that is merely installed
would pass every other test and still break a clean install."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_import_is_stdlib_or_declared():
    import tomllib  # Python 3.11+

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().replace("-", "_") for dep in project["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "hyperbin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    undeclared = sorted(
        (name, module) for name, module in imported
        if module not in sys.stdlib_module_names and module not in declared
    )
    assert undeclared == []
    assert "numpy" in {module for _, module in imported}  # the walk found imports
