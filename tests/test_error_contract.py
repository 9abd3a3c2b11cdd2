"""The error contract: every error pccorrupt raises for bad input is a ValueError.

The check reads the source (AST only): each `raise Name(...)` in
src/pccorrupt must name a ValueError subclass, or be one of the
programming-error or CLI-control types listed below.
"""

import ast
import builtins
import importlib
from pathlib import Path

import pccorrupt

# (module, exception name) pairs that are not bad-input errors
NOT_INPUT_ERRORS = {
    ("network", "StaleCacheError"),  # an activation cache used with another state
    ("network", "KeyError"),         # an unknown statistic or parameter name
    ("cli", "UsageError"),           # mapped to its own exit code
    ("cli", "SystemExit"),
}


def _raised_names(path: Path):
    """(line, name) of every `raise Name(...)` in the file at `path`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)):
            yield node.lineno, node.exc.func.id


def test_every_raised_input_error_is_a_value_error():
    package = Path(pccorrupt.__file__).parent
    offenders, checked = [], 0
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"pccorrupt.{path.stem}")
        for line, name in _raised_names(path):
            checked += 1
            if (path.stem, name) in NOT_INPUT_ERRORS:
                continue
            cls = getattr(module, name, None) or getattr(builtins, name, None)
            if not (isinstance(cls, type) and issubclass(cls, ValueError)):
                offenders.append(f"{path.name}:{line} raises {name}")
    assert checked > 50  # the walk found the package's raises
    assert offenders == []
