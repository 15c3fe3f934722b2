"""Import hygiene: every module of proxkit except the package's
``__init__.py``, which re-exports, and every module of the tests uses
each name it imports; and the reference module imports nothing it is
compared with."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "proxkit"
TESTS = ROOT / "tests"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source that no Name
    node reads; `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from a import b as c, d\nc(sys.argv)\n")
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_import(module):
    assert unused_imports((TESTS / module).read_text()) == []


# the modules whose functions the reference is compared with: it may take
# only their data types
COMPARED = ("proxkit.roundideal", "proxkit.morphisms", "proxkit.proximity", "proxkit.comonads")


def test_reference_imports_only_data_types_from_the_code_it_checks():
    tree = ast.parse((TESTS / "reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("proxkit") for a in node.names), a.name
        elif isinstance(node, ast.ImportFrom) and node.module in COMPARED:
            module = importlib.import_module(node.module)
            for a in node.names:
                assert isinstance(getattr(module, a.name), type), (node.module, a.name)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module != "proxkit", node.module
