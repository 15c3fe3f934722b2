"""What each layer of the harness holds.

`cli.py` parses, loads and prints: the laws, the morphism suite and the
searches it runs are those of `comonads`, and it takes none of the maps
or deciders they are built from.  Every `LawReport` of the package is
built by `reports.law_report`.
"""

import argparse
import ast
from pathlib import Path

from proxkit import cli, comonads

SRC = Path(__file__).resolve().parents[1] / "src" / "proxkit"
DECIDERS = {"certify_finite_collapse", "theta", "rho", "enumerate_proxhoms"}


def imports_from(tree) -> list:
    """(module, name) of each name imported by a `from` import of tree."""
    return [(node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names]


def test_cli_imports_nothing_from_morphisms():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert [name for module, name in imports_from(tree) if module == "morphisms"] == []


def test_cli_imports_none_of_the_deciders():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert {name for _, name in imports_from(tree)} & DECIDERS == set()


def test_search_choices_are_the_search_table():
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    law = next(a for a in sub.choices["search"]._actions if a.dest == "law")
    assert law.choices == tuple(comonads.SEARCHES)


def unchecked_report_callers(tree, where="<module>") -> list:
    """The innermost function around each `LawReport._unchecked` call of
    tree, by name, in source order; "<module>" for a call outside any."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_unchecked" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "LawReport"):
            out.append(where)
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        out += unchecked_report_callers(node, "<lambda>" if isinstance(node, ast.Lambda) else inner)
    return out


def test_checker_finds_each_call_in_its_innermost_function():
    source = ("a = LawReport._unchecked()\n"
              "def f():\n    def g():\n        return LawReport._unchecked()\n"
              "    return LawReport._unchecked(), FiniteMap._unchecked()\n"
              "h = lambda: LawReport._unchecked()\n")
    assert unchecked_report_callers(ast.parse(source)) == ["<module>", "g", "f", "<lambda>"]


def test_law_report_is_the_one_caller_of_the_unchecked_report():
    callers = {(path.name, caller) for path in sorted(SRC.glob("*.py"))
               for caller in unchecked_report_callers(ast.parse(path.read_text()))}
    assert callers == {("reports.py", "law_report")}
