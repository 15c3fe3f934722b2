"""Seeded instance documents through the command line.

Every document, well formed or not, must end `validate`, `compactify` and
`laws --suite all` in exit 0, 1 or 2, with nothing escaping `cli.main`.
Exit 2 prints one `error:` line and nothing on stdout, and exit 0 prints
nothing on stderr.  Tier-1 runs the first 1,000 seeds; a longer range runs
as a script:

    PYTHONPATH=src python tests/test_fuzz.py 1000 51000
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from proxkit.cli import main

# Chain k is drawn up to 6 and products nest at most 3 deep.  Nothing
# bounds a chain's k before the work, so a document with k = 10**30 runs
# until it is killed, and a deep product is the raw-text test's case.
MAX_K = 6
MAX_DEPTH = 3

BUILDERS = ("finite", "downsets", "topology", "product", "chain")
NAMES = ("a", "b", "c", "d", "0", "1")
JUNK = (None, True, False, 0, -1, 2, 1.5, "", "x", "leq", [], {}, [1], ["a"],
        [["a"]], [["a", "b", "c"]], {"a": 1}, {"pairs": 3})
COMMANDS = (["validate"], ["compactify"], ["laws", "--suite", "all", "--instance"])


def _names(rng: random.Random, most: int) -> list:
    """Up to `most` names, now and then repeated or not a name."""
    out = rng.sample(NAMES, rng.randint(rng.random() >= 0.05, most))
    if out and rng.random() < 0.03:
        out.append(rng.choice(out))
    if rng.random() < 0.03:
        out.append(rng.choice(JUNK))
    return out


def _pairs(rng: random.Random, names: list) -> list:
    """Pairs drawn from names, now and then naming another or not a pair."""
    pool = [x for x in names if isinstance(x, str)] or ["a"]
    out = [[rng.choice(pool), rng.choice(pool)] for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.03:
        out.append([rng.choice(pool), "zz"])
    if rng.random() < 0.03:
        out.append(rng.choice(JUNK))
    return out


def _fields(rng: random.Random, builder, depth: int) -> dict:
    if builder == "chain":
        k = rng.randint(rng.random() >= 0.05, MAX_K)
        refl = rng.sample(range(1, k), rng.randint(0, max(k - 1, 0)))
        refl += [k] if rng.random() < 0.9 else [rng.choice([-1, 0, k + 1])]
        if rng.random() < 0.03:
            refl.append(refl[0])
        fields = {"k": k, "reflexive": refl}
        if rng.random() < 0.2:
            fields["names"] = [f"B{rng.randint(0, k)}" for _ in range(rng.randint(0, k + 1))]
        return fields
    if builder in ("finite", "downsets"):
        elements = _names(rng, 4)
        fields = {"elements": elements, "leq": _pairs(rng, elements)}
        if rng.random() < 0.3:
            fields["proximity"] = rng.choice(["leq", {"pairs": _pairs(rng, elements)}])
        return fields
    if builder == "topology":
        points = _names(rng, 3)
        pool = [p for p in points if isinstance(p, str)]
        opens = [[], pool] + [rng.sample(pool, rng.randint(0, len(pool)))
                              for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.03:
            opens.append(["zz"])
        return {"points": points, "opens": rng.sample(opens, len(opens))}
    if builder == "product":
        return {side: document(rng, depth + 1) if depth < MAX_DEPTH
                else {"builder": "finite", "elements": ["0"]} for side in ("left", "right")}
    return {}


def document(rng: random.Random, depth: int = 0):
    """One instance document of any builder, with now and then a missing
    field, a junk value, an unknown builder or no object at all."""
    if rng.random() < 0.02:
        return rng.choice(JUNK)
    builder = rng.choice(BUILDERS) if rng.random() < 0.97 else rng.choice(JUNK + ("mystery",))
    doc = {"builder": builder, **_fields(rng, builder, depth)}
    if rng.random() < 0.3:
        doc["name"] = rng.choice(["inst", "chain-k1", ""])
    for key in list(doc):
        r = rng.random()
        if r < 0.03:
            del doc[key]
        elif r < 0.06:
            doc[key] = rng.choice(JUNK)
    return doc


def check_seeds(seeds, path: Path) -> None:
    """Drive the three commands over the document of each seed, written
    to path, and assert the exit-code promise."""
    for seed in seeds:
        doc = document(random.Random(seed))
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            argv = [*command, str(path)]
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv)
            except Exception as exc:
                raise AssertionError(f"seed {seed}, {command[0]}: {doc!r}") from exc
            out, err = out.getvalue(), err.getvalue()
            where = f"seed {seed}, {command[0]}: exit {rc}, {err!r}"
            assert rc in (0, 1, 2), where
            if rc == 2:
                assert out == "" and err.startswith("error: "), where
                assert len(err.splitlines()) == 1, where
            if rc == 0:
                assert err == "", where


def test_cli_exit_codes_on_seeded_documents(tmp_path):
    check_seeds(range(1_000), tmp_path / "doc.json")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        check_seeds(range(int(sys.argv[1]), int(sys.argv[2])), Path(tmp) / "doc.json")
