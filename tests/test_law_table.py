"""The table of object laws, `comonads.LAWS`, is the one place that names
them.

Every law name of the harness is written once as a string literal in
`src/proxkit`: the 16 object laws in the table, and the naturality,
coalgebra and morphism-suite laws that stay outside it.  The table's order
is the order of the golden `laws` records of each instance, and README's
"Laws" list names the same laws in the same order.
"""

import ast
import io
import json
import re
import tokenize
from collections import Counter
from pathlib import Path

from proxkit.comonads import LAWS, SUITES
from test_cli_golden import stdout_file

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "proxkit"
GOLDEN = Path(__file__).with_name("golden")

TABLE = [name for _, name, _ in LAWS]
OUTSIDE = [
    "nat.m", "nat.sigma", "nat.r", "nat.beta", "nat.c", "nat.maxrel-preserved",
    "coalgebra.exists", "coalgebra.counit", "coalgebra.coassoc", "coalgebra.morphism",
    "morphism.valid", "theta-rho.roundtrip", "decomposition", "theta-rho.exhaustive",
    "kleisli.functor",
]


def string_literals(source: str) -> list:
    """The values of the plain string literals of source; f-strings and
    bytes are left out."""
    out = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.STRING:
            prefix = tok.string[:tok.string.index(tok.string[-1])].lower()
            if "f" not in prefix and "b" not in prefix:
                out.append(ast.literal_eval(tok.string))
    return out


def test_the_table_holds_the_sixteen_object_laws_in_two_suites():
    assert len(TABLE) == len(set(TABLE)) == 16
    assert SUITES == ("R", "C")
    assert [suite for suite, _, _ in LAWS] == ["R"] * 6 + ["C"] * 10


def test_each_law_name_is_one_string_literal():
    counts = Counter(s for path in sorted(SRC.glob("*.py"))
                     for s in string_literals(path.read_text()))
    names = TABLE + OUTSIDE
    assert len(names) == len(set(names)) == 31
    assert {name: counts[name] for name in names} == dict.fromkeys(names, 1)


def test_string_literals_skip_formatted_strings():
    source = 'a = "x"\nb = f"{a}y"\nc = b"z"\nd = ("p" \'q\')\ne = "fa"\ng = Rf"{a}"\n'
    assert string_literals(source) == ["x", "p", "q", "fa"]


def test_table_order_is_the_golden_report_order():
    """Per instance of the object laws, the golden `laws` records list the
    laws of the suite in table order, the whole table for `all`."""
    checked = 0
    for g in json.loads((GOLDEN / "index.json").read_text()):
        argv = g["argv"]
        if argv[:2] != ["laws", "--suite"] or argv[2] == "morphisms" or g["exit"] != 0:
            continue
        expected = [law for suite, law, _ in LAWS if argv[2] in (suite, "all")]
        by_instance: dict = {}
        for line in (GOLDEN / stdout_file(argv)).read_text().splitlines():
            rec = json.loads(line)
            if rec["instance"].startswith(("finite:", "chain:")):
                by_instance.setdefault(rec["instance"], []).append(rec["law"])
        assert by_instance, argv
        assert all(laws == expected for laws in by_instance.values()), argv
        checked += 1
    # R and C over the catalog and each of its six instances; all over
    # those and the 15 chain layouts whose top limit is reflexive
    assert checked == 7 + 7 + 7 + 15


def readme_laws() -> list:
    """(suite, name) of each item of README's "Laws" list, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Laws\n", 1)[1].split("\n## ", 1)[0]
    out, suite = [], None
    for line in section.splitlines():
        if m := re.match(r"Suite `(\w+)`", line):
            suite = m[1]
        elif m := re.match(r"- `([^`]+)`", line):
            out.append((suite, m[1]))
    return out


def test_readme_lists_the_table():
    assert readme_laws() == [(suite, name) for suite, name, _ in LAWS]
