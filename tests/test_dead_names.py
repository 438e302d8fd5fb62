"""Every top-level function, class, method and module constant in the package
has a use in the package: code that only the tests call belongs in the tests
(see tests/helpers.py). A use is a name or attribute read anywhere in src/
outside the definition itself, or an import into another module; the
re-exports in __init__.py are the public list, not a use."""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperbin"

# names with no use in src/ that stay on purpose
ALLOWED = {
    "parse_events": "library entry point: builds an EventSet from records in memory",
    "DiscretizedEvents.events_in_step": "read by perfbench/run.py until it counts from occupied_steps",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node


def _uses(path: Path, tree: ast.Module):
    """(name, line) of every read and every import in one module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            yield from ((alias.name, node.lineno) for alias in node.names)


def unused_names() -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    uses = defaultdict(list)  # name -> (path, line) of each use
    for path, tree in trees.items():
        for name, line in _uses(path, tree):
            uses[name].append((path, line))
    unused = []
    for path, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in inside for p, line in uses[name]):
                unused.append(qualname)
    return sorted(unused)


def test_every_definition_has_a_use_in_the_package():
    # an allowed name that gains a use leaves the list too
    assert unused_names() == sorted(ALLOWED)
