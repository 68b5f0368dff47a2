"""Every error type in the taxonomy is raised somewhere in the package."""

import ast
import inspect
from pathlib import Path

import hyperflow
from hyperflow import errors

BASES = {"HyperflowError", "ConfigError"}  # caught by callers, raised only as subclasses


def _raised_names():
    names = set()
    for path in Path(hyperflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_concrete_error_type_is_raised():
    defined = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HyperflowError) and cls.__module__ == errors.__name__
    }
    assert len(defined) > len(BASES)
    assert sorted(defined - BASES - _raised_names()) == []
