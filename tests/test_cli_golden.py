"""Golden CLI outputs for a fixed command set, checked in as text under
``golden/``: one file per command holding its stdout, named by
`stdout_file`, and ``golden/index.json``, the argv, exit code and stderr
of each command in order.

A refactor that must keep every report byte-identical is checked by this
test alone: it compares bytes.  After an intended output change,
regenerate the files with ``PYTHONPATH=src python tests/test_cli_golden.py``
and review the diff, which shows each changed report line by line.

``cli_golden.json`` keeps the SHA-256 hashes that this file set replaced;
`test_stored_outputs_hash_to_the_retired_golden_hashes` shows that the
text holds the same bytes.  It is not regenerated, so the first intended
output change deletes it with that test.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

from proxkit.catalog import CATALOG_NAMES
from proxkit.cli import main

GOLDEN = Path(__file__).with_name("golden")
INDEX = GOLDEN / "index.json"
HASHES = Path(__file__).with_name("cli_golden.json")


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


# Finite frames as element name -> the set of join-irreducibles below it;
# the order is inclusion of those sets.
FRAMES = {
    "chain4": {"0": "", "p": "p", "q": "pq", "1": "pqr"},
    "diamond": {"0": "", "a": "a", "b": "b", "1": "ab"},
    "cube3": {"{" + ",".join(s) + "}": s
              for r in range(4) for s in itertools.combinations("xyz", r)},
}


def _leq(frame) -> list[tuple[str, str]]:
    below = FRAMES[frame]
    return [(a, b) for a in below for b in below if set(below[a]) <= set(below[b])]


def _finite_doc(name, frame, pairs) -> dict:
    return {"name": name, "builder": "finite", "elements": list(FRAMES[frame]),
            "leq": [list(p) for p in _leq(frame)],
            "proximity": {"pairs": [list(p) for p in pairs]}}


def finite_docs() -> dict[str, dict]:
    """File name -> finite instance document whose relation fails the
    named axiom: each of the three sublattice notes, every other axiom,
    and two seeded random relations on the cube that fail several."""
    def edit(frame, drop=(), add=()):
        return [p for p in _leq(frame) if p not in drop] + list(add)

    specs = {
        "finer": ("diamond", edit("diamond", add=[("a", "b")])),
        "bounds": ("chain4", edit("chain4", drop=[("1", "1")])),
        "meet": ("cube3", edit("cube3", drop=[("{x}", "{x}")])),
        "join": ("cube3", edit("cube3", drop=[("{x,y}", "{x,y}")])),
        "weakening": ("chain4", edit("chain4", drop=[("0", "1")])),
        "interpolation": ("chain4", edit("chain4", drop=[("p", "p"), ("q", "q")])),
        "approximation": ("chain4", edit("chain4", drop=[("p", "p")])),
    }
    rng = random.Random(8)
    cube = list(FRAMES["cube3"])
    bounds = [("{}", "{}"), ("{x,y,z}", "{x,y,z}")]
    specs["random-sub"] = ("cube3", sorted(set(bounds) | {
        p for p in _leq("cube3") if rng.random() < 0.8}))
    specs["random-any"] = ("cube3", sorted(set(bounds) | {
        (a, b) for a in cube for b in cube if rng.random() < 0.5}))
    return {f"fin-{tag}.json": _finite_doc(f"fin-{tag}", frame, pairs)
            for tag, (frame, pairs) in specs.items()}


def instance_docs() -> dict[str, dict]:
    return {**chain_docs(), **finite_docs()}


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
    cmds += [["validate", path] for path in finite_docs()]
    return cmds


def stdout_file(argv) -> str:
    """The name of the golden file holding the stdout of argv."""
    return "_".join(a.lstrip("-") for a in argv) + ".out"


def run(argv) -> tuple[dict, bytes]:
    """The index record of argv (argv, exit code, stderr) and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return ({"argv": list(argv), "exit": code, "stderr": err.getvalue()},
            out.getvalue().encode())


def write_instance_docs(directory) -> None:
    for path, doc in instance_docs().items():
        Path(directory, path).write_text(json.dumps(doc))


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    index = json.loads(INDEX.read_text())
    assert [g["argv"] for g in index] == commands()
    write_instance_docs(tmp_path)
    monkeypatch.chdir(tmp_path)
    mismatched = [g["argv"] for g in index
                  if run(g["argv"]) != (g, (GOLDEN / stdout_file(g["argv"])).read_bytes())]
    assert not mismatched, "outputs changed for:\n" + "\n".join(
        " ".join(argv) for argv in mismatched)


def test_golden_files_are_one_per_command():
    names = [stdout_file(argv) for argv in commands()]
    assert len({n.casefold() for n in names}) == len(names)
    assert sorted(p.name for p in GOLDEN.glob("*.out")) == sorted(names)


def test_stored_outputs_hash_to_the_retired_golden_hashes():
    index = json.loads(INDEX.read_text())
    hashes = json.loads(HASHES.read_text())
    assert [g["argv"] for g in hashes] == [g["argv"] for g in index]
    for g, h in zip(index, hashes):
        stdout = (GOLDEN / stdout_file(g["argv"])).read_bytes()
        assert (g["exit"], hashlib.sha256(stdout).hexdigest(),
                hashlib.sha256(g["stderr"].encode()).hexdigest()) == (
            h["exit"], h["stdout"], h["stderr"]), g["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        write_instance_docs(d)
        here = os.getcwd()
        os.chdir(d)
        try:
            results = [run(argv) for argv in commands()]
        finally:
            os.chdir(here)
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    for record, stdout in results:
        (GOLDEN / stdout_file(record["argv"])).write_bytes(stdout)
    INDEX.write_text("[\n" + ",\n".join(json.dumps(r) for r, _ in results) + "\n]\n")
    print(f"wrote {len(results)} commands to {GOLDEN}", file=sys.stderr)
