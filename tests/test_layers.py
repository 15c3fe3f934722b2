"""What each layer of the harness holds.

`cli.py` parses, loads and prints: the laws, the morphism suite and the
searches it runs are those of `comonads`, and it takes none of the maps
or deciders they are built from.  Every `LawReport` of the package is
built by `reports.law_report`, and every map of `catalog.py` by
`parse_morphism`, from a document.
"""

import argparse
import ast
from pathlib import Path

from proxkit import cli, comonads

SRC = Path(__file__).resolve().parents[1] / "src" / "proxkit"
DECIDERS = {"certify_finite_collapse", "theta", "rho", "enumerate_proxhoms"}
MAP_BUILDERS = {"FiniteMap", "ChainMap", "Seq.constant", "Seq.affine", "identity_map", "block_map"}


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


def callers(tree, called: set, where="<module>") -> list:
    """The innermost function around each call of tree to a name or
    `Name.attribute` in called, by name, in source order; "<module>" for
    a call outside any."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and dotted(node.func) in called:
            out.append(where)
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        out += callers(node, called, "<lambda>" if isinstance(node, ast.Lambda) else inner)
    return out


def dotted(func) -> str | None:
    """`name` or `Name.attribute` for a call of either form, else None."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def test_checker_finds_each_call_in_its_innermost_function():
    source = ("a = LawReport._unchecked()\n"
              "def f():\n    def g():\n        return LawReport._unchecked()\n"
              "    return LawReport._unchecked(), FiniteMap._unchecked()\n"
              "h = lambda: LawReport._unchecked()\n"
              "m = FiniteMap()\n")
    assert callers(ast.parse(source), {"LawReport._unchecked"}) == [
        "<module>", "g", "f", "<lambda>"]
    assert callers(ast.parse(source), {"FiniteMap"}) == ["<module>"]


def test_law_report_is_the_one_caller_of_the_unchecked_report():
    found = {(path.name, caller) for path in sorted(SRC.glob("*.py"))
             for caller in callers(ast.parse(path.read_text()), {"LawReport._unchecked"})}
    assert found == {("reports.py", "law_report")}


def test_parse_morphism_is_the_one_builder_of_catalog_maps():
    tree = ast.parse((SRC / "catalog.py").read_text())
    assert set(callers(tree, MAP_BUILDERS)) == {"parse_morphism"}
