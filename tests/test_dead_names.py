"""Every module-level name in the package is used somewhere or exported,
and every name a module imports is used in it."""

import ast
from pathlib import Path

import xmlgram

PACKAGE = Path(xmlgram.__file__).parent


def _defined(stmt: ast.stmt):
    """Names a top-level statement defines: functions, classes, constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(stmt: ast.stmt):
    """Names a statement reads: bare names, attributes, and forward
    references written as string annotations."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_module_level_name_is_used_or_exported():
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements.extend((path.name, stmt) for stmt in tree.body)
    references = [_referenced(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined(stmt):
            if name.startswith("__") or name in xmlgram.__all__:
                continue
            if not any(name in refs for j, refs in enumerate(references) if j != i):
                dead.append(f"{module}: {name}")
    assert dead == []


def _imported(node: ast.AST):
    """Names an import statement binds (``from __future__`` binds none)."""
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return []


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set().union(*(_referenced(stmt) for stmt in tree.body))
        for node in ast.walk(tree):
            unused.extend(f"{path.name}: {name}" for name in _imported(node) if name not in used)
    assert unused == []
