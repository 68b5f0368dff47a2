"""Every public name of the package has a caller outside the tests."""

import ast
from pathlib import Path

import hyperflow

PACKAGE = Path(hyperflow.__file__).parent
ROOT = PACKAGE.parents[1]

def _references(node: ast.AST) -> set[str]:
    """Names, attributes and string constants within ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)  # e.g. the tracer's patch_function(module, "name", ...)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]  # re-exports are no callers
    callers = modules + sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    # the references of each top-level statement, so a definition's own body is left out
    statements = [(path, stmt) for path in callers for stmt in ast.parse(path.read_text()).body]
    refs = [_references(stmt) for _, stmt in statements]
    defined = [
        (k, stmt.name)
        for k, (path, stmt) in enumerate(statements)
        if path in modules
        and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
    ]
    assert defined
    uncalled = [
        f"{statements[k][0].stem}.{name}"
        for k, name in defined
        if not any(name in r for j, r in enumerate(refs) if j != k)
    ]
    assert uncalled == []


def _is_memo(node: ast.AST) -> bool:
    """Whether ``node`` names ``functools.lru_cache`` or ``functools.cache``, called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")) or (
        isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"))


def test_one_memo_holds_what_is_derived_from_a_surface():
    # hypersurface._snapshot keeps every per-surface structure; the RKC
    # coefficients are keyed by the stage count
    memos = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators.update(map(id, node.decorator_list))
                memos += [f"{path.stem}.{node.name}" for d in node.decorator_list if _is_memo(d)]
        memos += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in decorators and _is_memo(node.func)]
    assert sorted(memos) == ["flow_engine._rkc_coefficients", "hypersurface._snapshot"]
