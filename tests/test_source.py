"""Source guards over the package's modules.

The runtime depends on the standard library only, and no check is written as
an `assert` that `python -O` would strip: the one assert form allowed is
`assert <expr> is not None`, which only tells a type checker what the code
above it has already established.
"""

import ast
import sys
from pathlib import Path

import simplegames

SRC = Path(simplegames.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def non_stdlib_imports(tree):
    """The absolute imports of `tree` outside the standard library, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in names if m.split(".")[0] not in sys.stdlib_module_names]
    return found


def strippable_asserts(tree):
    """The lines of every assert in `tree` not of the form `assert <expr> is not None`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assert):
            continue
        test = node.test
        narrows = (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )
        if not narrows:
            found.append(node.lineno)
    return found


def test_guards_flag_what_they_forbid():
    tree = ast.parse(
        "import json, numpy.linalg\nfrom scipy import optimize\nfrom . import lp\n"
        "assert x is not None\nassert x > 0\nassert x is None\nassert f(x) is not None, 'ok'\n"
    )
    assert non_stdlib_imports(tree) == [(1, "numpy.linalg"), (2, "scipy")]
    assert strippable_asserts(tree) == [5, 6]


def test_imports_are_standard_library_only():
    assert MODULES
    found = {p.name: non_stdlib_imports(ast.parse(p.read_text())) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {}


def test_asserts_only_narrow_optionals():
    found = {p.name: strippable_asserts(ast.parse(p.read_text())) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {}
