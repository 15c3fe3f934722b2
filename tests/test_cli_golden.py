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
import random
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


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def write_instance_docs(directory) -> None:
    for path, doc in instance_docs().items():
        Path(directory, path).write_text(json.dumps(doc))


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == commands()
    write_instance_docs(tmp_path)
    monkeypatch.chdir(tmp_path)
    mismatched = [g["argv"] for g in golden if run(g["argv"]) != g]
    assert not mismatched, "outputs changed for:\n" + "\n".join(
        " ".join(argv) for argv in mismatched)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        write_instance_docs(d)
        here = os.getcwd()
        os.chdir(d)
        try:
            records = [run(argv) for argv in commands()]
        finally:
            os.chdir(here)
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
