"""Source guards over the package's modules.

The runtime depends on the standard library only, and no check is written as
an `assert` that `python -O` would strip: the one assert form allowed is
`assert <expr> is not None`, which only tells a type checker what the code
above it has already established.  No module builds 2^n-bit subset tables,
every budget error names a cap that `budgets` documents, and the exact
simplex's pivot loop, the threshold LP's builder, cut loop and certificate
checks work on ints alone.
"""

import ast
import re
import sys
from pathlib import Path

import simplegames
from simplegames import budgets

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


# the iteration caps: module constants beside their loops, not CAPS entries
ITERATION_CAPS = {"pivots", "wolfe_cycles", "cut_rounds"}


def budget_error_names(tree):
    """The string literals that `tree` passes as the name of a BudgetExceededError, with their lines."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "BudgetExceededError":
            continue
        names = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "name"]
        found += [(node.lineno, a.value) for a in names if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return found


def function_scopes(tree):
    """The module-level functions and methods of `tree`, by "f" or "Class.f"."""
    scopes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        scopes.update({f"{cls.name}.{node.name}": node for node in cls.body if isinstance(node, ast.FunctionDef)})
    return scopes


def functions_naming(tree, qualnames, name):
    """The functions of `tree` among `qualnames` that mention `name`, as a variable or an attribute."""
    return [
        qualname
        for qualname, node in function_scopes(tree).items()
        if qualname in qualnames and any(getattr(sub, "id", getattr(sub, "attr", None)) == name for sub in ast.walk(node))
    ]


def test_guards_flag_what_they_forbid():
    tree = ast.parse(
        "import json, numpy.linalg\nfrom scipy import optimize\nfrom . import lp\n"
        "assert x is not None\nassert x > 0\nassert x is None\nassert f(x) is not None, 'ok'\n"
    )
    assert non_stdlib_imports(tree) == [(1, "numpy.linalg"), (2, "scipy")]
    assert strippable_asserts(tree) == [5, 6]
    tree = ast.parse(
        "raise BudgetExceededError('losing', 1, 0)\nraise errors.BudgetExceededError(name='x', value=1, limit=0)\n"
        "raise BudgetExceededError(name, 1, 0)\nraise ValueError('y')\n"
    )
    assert budget_error_names(tree) == [(1, "losing"), (2, "x")]
    tree = ast.parse(
        "def f(x):\n    return Fraction(x)\ndef g(x):\n    return fractions.Fraction\n"
        "def h(x):\n    return x\nclass T:\n    def m(self) -> 'int':\n        return Fraction(1)\n"
    )
    assert functions_naming(tree, {"f", "g", "h", "T.m"}, "Fraction") == ["f", "g", "T.m"]


def test_imports_are_standard_library_only():
    assert MODULES
    found = {p.name: non_stdlib_imports(ast.parse(p.read_text())) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {}


def test_asserts_only_narrow_optionals():
    found = {p.name: strippable_asserts(ast.parse(p.read_text())) for p in MODULES}
    assert {name: f for name, f in found.items() if f} == {}


def test_no_module_builds_subset_tables():
    # every module works on antichains of masks; the 2^n-bit tables live in
    # tests/table_reference.py as the reference for differential tests
    naming = [p.name for p in MODULES if re.search(r"\b(winning_table|absent_tables)\b", p.read_text())]
    assert naming == []
    # `graphs._adj_masks` keeps its cache; the game modules hold no process-wide state
    assert [name for name in ("games.py", "complete.py") if "lru_cache" in (SRC / name).read_text()] == []


def test_budget_errors_name_a_documented_cap():
    # a deleted cap leaves no name behind: each literal is a CAPS key or an
    # iteration cap, which the budgets docstring names and some loop raises
    found = {name for p in MODULES for _, name in budget_error_names(ast.parse(p.read_text()))}
    assert found - set(budgets.CAPS) - ITERATION_CAPS == set()
    assert ITERATION_CAPS <= found
    assert [name for name in sorted(ITERATION_CAPS) if f"``{name}``" not in budgets.__doc__] == []


# the exact simplex's pivot loop: pricing, ratio test, pivots, row updates and warm columns
PIVOT_LOOP = {"_eliminate", "_bounded", "_pivot", "_run_simplex", "_price_out", "_Tableau.add_column"}


def test_pivot_loop_stays_integer():
    # a Fraction inside the loop would make every pivot pay for one per entry;
    # Fractions are built only from the finished solution
    tree = ast.parse((SRC / "lp.py").read_text())
    assert PIVOT_LOOP <= set(function_scopes(tree))
    assert functions_naming(tree, PIVOT_LOOP, "Fraction") == []


# the threshold LP's row builder, its solve and cut rows, the symmetry check
# of its certificate, and the cutting-plane loop that feeds the solve's
# numerators to the oracle over the graph's twin classes
THRESHOLD_INTEGER = {
    "alpha.py": {"ThresholdLP._add_rows", "ThresholdLP.solve", "ThresholdLP.add_losing", "_swaps_keep"},
    "graphs.py": {"alpha_graph", "twin_classes"},
}


def statements_after_checks(node, name):
    """The indices of the statements of `node`'s body that mention `name`,
    and the index of its last statement that raises."""
    def mentions(stmt, wanted):
        return any(getattr(sub, "id", getattr(sub, "attr", None)) == wanted for sub in ast.walk(stmt))

    naming = [i for i, stmt in enumerate(node.body) if mentions(stmt, name)]
    raising = [i for i, stmt in enumerate(node.body) if any(isinstance(sub, ast.Raise) for sub in ast.walk(stmt))]
    return naming, max(raising, default=-1)


def test_threshold_lp_and_cut_loop_stay_integer():
    for name, qualnames in THRESHOLD_INTEGER.items():
        tree = ast.parse((SRC / name).read_text())
        assert qualnames <= set(function_scopes(tree))
        assert functions_naming(tree, qualnames, "Fraction") == []
    # `ThresholdLP.certify` builds the answer's Fractions once, after its last
    # check, and no dual is spread over coalitions any more
    tree = ast.parse((SRC / "alpha.py").read_text())
    naming, last_check = statements_after_checks(function_scopes(tree)["ThresholdLP.certify"], "Fraction")
    assert naming and min(naming) > last_check
    spread = {"lcm", "_add_share", "_sizes"}
    assert {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(tree)} & spread == set()


def test_statements_after_checks_finds_late_fractions():
    tree = ast.parse("def f(x):\n    if x:\n        raise ValueError\n    y = Fraction(x)\n    return y\n"
                     "def g(x):\n    y = Fraction(x)\n    if y:\n        raise ValueError\n")
    scopes = function_scopes(tree)
    assert statements_after_checks(scopes["f"], "Fraction") == ([1], 0)
    assert statements_after_checks(scopes["g"], "Fraction") == ([0], 1)
