"""Golden CLI outputs: exit code and SHA-256 of stdout and stderr for a
fixed command set, checked in as ``cli_golden.json``.

A refactor that must keep every report byte-identical is checked by this
test alone.  After an intended output change, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from proxkit.catalog import CATALOG_NAMES
from proxkit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def chain_docs() -> dict[str, dict]:
    """File name -> chain instance document, k = 1..4 with every subset
    of limits as the reflexive set (those without the top are refused)."""
    out = {}
    for k in range(1, 5):
        for r in range(k + 1):
            for refl in itertools.combinations(range(1, k + 1), r):
                tag = "".join(map(str, refl))
                out[f"k{k}r{tag}.json"] = {"name": f"chain-k{k}-r{tag}",
                                           "builder": "chain", "k": k,
                                           "reflexive": list(refl)}
    return out


def commands() -> list[list[str]]:
    cmds = []
    for name in CATALOG_NAMES:
        cmds += [["validate", name], ["compactify", name],
                 ["compactify", name, "--out", "dot"]]
    for suite in ("R", "C", "morphisms", "all"):
        for inst in (None,) + CATALOG_NAMES:
            cmds.append(["laws", "--suite", suite]
                        + (["--instance", inst] if inst else []))
    # the retired sampling options are refused
    cmds += [["laws", "--samples", "3"], ["laws", "--seed", "0"]]
    for path in chain_docs():
        cmds += [["validate", path], ["compactify", path],
                 ["laws", "--suite", "all", "--instance", path]]
    cmds += [["search", "--law", "collapse", "--max-size", "6"],
             ["search", "--law", "theta-rho", "--max-size", "5"],
             ["search", "--law", "star-vs-compose", "--max-size", "4"]]
    return cmds


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def write_chain_docs(directory) -> None:
    for path, doc in chain_docs().items():
        Path(directory, path).write_text(json.dumps(doc))


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == commands()
    write_chain_docs(tmp_path)
    monkeypatch.chdir(tmp_path)
    mismatched = [g["argv"] for g in golden if run(g["argv"]) != g]
    assert not mismatched, "outputs changed for:\n" + "\n".join(
        " ".join(argv) for argv in mismatched)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        write_chain_docs(d)
        here = os.getcwd()
        os.chdir(d)
        try:
            records = [run(argv) for argv in commands()]
        finally:
            os.chdir(here)
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
