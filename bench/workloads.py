"""The three workloads: seeded inputs, command lists and output checks.

A workload is a fixed list of ``proxkit`` command lines, run in whole
rounds.  ``write_inputs`` makes the seeded instance files (the program sees
only these files); ``commands`` pairs each command line with a check of
its stdout.  A check returns the number of verdict records the command
printed and raises ``CheckFailed`` when the output contradicts a value
computed in ``oracle`` or a theorem of the paper.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

WORKLOADS = ("catalog-laws", "chain-scale", "finite-search")
CATALOG_NAMES = ("two", "chain3", "diamond", "cube3", "chain-k1", "chain-k2")
CHAIN_BLOCKS = (1, 2, 3, 4, 5, 6)
FINITE_CHAIN_SIZES = (8, 11, 14)
CUBE_DIMS = (1, 2, 3, 4)
# downset lattices of random posets: (points, lattice size, compactify?)
POSET_LATTICES = ((5, 12, True), (5, 14, True), (6, 20, False), (6, 24, False))
# the largest frame the round-ideal enumeration accepts
# (FINITE_IDEAL_ENUM_LIMIT in roundideal.py)
IDEAL_ENUM_LIMIT = 14
KNOWN_FAULT_TOO_LARGE = "round-ideal enumeration limited to 14 elements"

AXIOMS = ("finer-than-leq", "sublattice", "weakening", "interpolation",
          "approximation")
HOLDS = ("pass", "verified-symbolically")
# the laws that `laws --suite all` decides on every instance
SUITE_LAWS = frozenset({
    "R.counit.left", "R.counit.right", "R.coassoc", "R.idempotent",
    "sub.comult", "sub.counit",
    "C.counit.left", "C.counit.right", "C.coassoc", "C.comult.nonprincipal",
    "C.kz", "adj.c-eps", "adj.eps-betakappa", "C.doubled-membership",
    "maxrel.agreement", "maxrel.contains-wb",
})


class CheckFailed(Exception):
    """The program's output contradicts an expected value."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Instance:
    """One instance document and the argument that names it on the command
    line (a catalog name or a file path)."""

    arg: str
    doc: dict


@dataclass
class Command:
    argv: list[str]
    check: Callable[[str], int]
    # stderr text of a fault the program is known to have on this command;
    # exit 2 with this text counts as a failed operation, not a wrong answer
    known_fault: str | None = None

    @property
    def label(self) -> str:
        """The command line with instance files shown by base name."""
        return " ".join(os.path.basename(a) for a in self.argv)


# -- facts about instances, computed from their documents ---------------------


@dataclass
class FiniteFacts:
    names: list[str]
    leq: set
    describe: str
    join_irreducibles: tuple

    @property
    def n(self) -> int:
        return len(self.names)


def finite_facts(doc: dict) -> FiniteFacts:
    if doc["builder"] == "downsets":
        pts = list(doc["elements"])
        pairs = [tuple(p) for p in doc.get("leq", [])]
        masks = oracle.downsets(pts, pairs)
        names = oracle.downset_names(pts, pairs)
        leq = {(names[i], names[j]) for i, a in enumerate(masks)
               for j, b in enumerate(masks) if a & b == a}
    elif doc["builder"] == "finite":
        names = list(doc["elements"])
        leq = oracle.leq_closure(names, [tuple(p) for p in doc.get("leq", [])])
    else:
        raise ValueError(f"not a finite builder: {doc['builder']!r}")
    order = oracle.canonical_order(names, leq)
    return FiniteFacts(names, leq, "finite:" + ",".join(order),
                       _join_irreducibles(names, leq))


def _join_irreducibles(names, leq):
    """Elements with exactly one lower cover, with the induced order."""
    def lower_covers(b):
        below = [a for a in names if a != b and (a, b) in leq]
        return [a for a in below
                if not any(c != a and (a, c) in leq for c in below)]

    pts = [b for b in names if len(lower_covers(b)) == 1]
    return pts, [(a, b) for a in pts for b in pts if a != b and (a, b) in leq]


def _chain_reflexive(doc: dict) -> frozenset:
    return frozenset(int(i) for i in doc.get("reflexive", []))


# -- checks -------------------------------------------------------------------


def _one_doc(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from exc


def _records(out: str) -> list[dict]:
    try:
        return [json.loads(line) for line in out.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON lines: {exc}") from exc


def check_validate(name: str, collapse: bool) -> Callable[[str], int]:
    """Every axiom holds; ``collapse`` is whether the relation is the order."""
    def check(out: str) -> int:
        doc = _one_doc(out)
        _require(doc.get("instance") == name, f"instance {doc.get('instance')!r}")
        axioms = doc.get("axioms", {})
        _require(set(axioms) == set(AXIOMS), f"axioms {sorted(axioms)}")
        for ax, v in axioms.items():
            _require(v.get("status") in HOLDS, f"{ax}: {v}")
        _require(doc.get("ok") is True, "ok is not true")
        _require(doc.get("collapse") is collapse, f"collapse {doc.get('collapse')!r}")
        return 1
    return check


def check_compactify_finite(name: str, facts: FiniteFacts) -> Callable[[str], int]:
    """Round ideals of a finite proximity are the principal downsets (the
    collapse theorem), and way-below on a finite frame is its order."""
    comparable = len(facts.leq)

    def check(out: str) -> int:
        doc = _one_doc(out)
        _require(doc.get("instance") == name, f"instance {doc.get('instance')!r}")
        classes = doc.get("classification", [])
        _require(len(classes) == facts.n,
                 f"{len(classes)} ideal classes, expected {facts.n}")
        xs = []
        for c in classes:
            el = c.get("element", "")
            _require(el.startswith("dn(") and el.endswith(")"),
                     f"ideal {el!r} is not a principal downset")
            x = el[3:-1]
            _require(c.get("sigma") == x, f"join of {el} is {c.get('sigma')!r}")
            xs.append(x)
        _require(sorted(xs) == sorted(facts.names), "ideals do not cover the frame")
        wb = doc.get("way_below_on_representatives", [])
        mx = {tuple(p) for p in doc.get("max_rel_on_representatives", [])}
        _require(len(wb) == comparable,
                 f"{len(wb)} way-below pairs, expected {comparable}")
        _require(all(tuple(p) in mx for p in wb), "max relation misses a way-below pair")
        return 1
    return check


def check_compactify_chain(name: str, k: int, refl) -> Callable[[str], int]:
    expected = oracle.chain_classification(k, refl)
    r, n_wb, n_mx = oracle.chain_rep_pair_counts(k, refl)

    def check(out: str) -> int:
        doc = _one_doc(out)
        _require(doc.get("instance") == name, f"instance {doc.get('instance')!r}")
        got = [(c.get("kind"), c.get("ideal")) for c in doc.get("classification", [])]
        _require(got == expected, f"classification {got}")
        _require(len(doc.get("representatives", [])) == r, "representative count")
        wb = [tuple(p) for p in doc.get("way_below_on_representatives", [])]
        mx = {tuple(p) for p in doc.get("max_rel_on_representatives", [])}
        _require(len(wb) == n_wb, f"{len(wb)} way-below pairs, expected {n_wb}")
        _require(len(mx) == n_mx, f"{len(mx)} max-relation pairs, expected {n_mx}")
        _require(all(p in mx for p in wb), "max relation misses a way-below pair")
        return 1
    return check


def check_laws(instances: list[str], exhaustive: dict[str, int]) -> Callable[[str], int]:
    """Every law report passes (the paper proves each law for these
    instances), each instance gets the whole suite once, and each
    exhaustive theta/rho pair counts the lattice homomorphisms."""
    def check(out: str) -> int:
        reports = _records(out)
        for rep in reports:
            _require(rep.get("verdict") == "pass",
                     f"{rep.get('law')} on {rep.get('instance')} fails")
        for inst in instances:
            laws = [rep["law"] for rep in reports if rep.get("instance") == inst]
            _require(sorted(laws) == sorted(SUITE_LAWS),
                     f"{inst}: laws {sorted(laws)}")
        got = {rep["instance"]: rep.get("samples") for rep in reports
               if rep.get("law") == "theta-rho.exhaustive"}
        _require(got == exhaustive, f"exhaustive theta/rho {got}, expected {exhaustive}")
        return len(reports)
    return check


def check_search_collapse(max_size: int) -> Callable[[str], int]:
    """Only the order survives, after all 2^(c-2) candidate relations:
    the sub-relations of the c comparable pairs that keep (0,0), (1,1)."""
    names = oracle.search_frame_names(max_size)
    samples = {nm: 2 ** (oracle.search_frame_comparable(nm) - 2) for nm in names}

    def check(out: str) -> int:
        recs = _records(out)
        got = {rec.get("frame"): rec for rec in recs}
        _require(len(got) == len(recs) and set(got) == set(names),
                 f"frames {[rec.get('frame') for rec in recs]}")
        for nm, rec in got.items():
            _require(rec.get("verdict") == "pass", f"{nm}: {rec.get('verdict')}")
            _require(rec.get("samples") == samples[nm],
                     f"{nm}: {rec.get('samples')} candidates, expected {samples[nm]}")
        return len(recs)
    return check


def check_search_theta_rho(max_size: int) -> Callable[[str], int]:
    """theta/rho round-trips every homomorphism; on finite frames those are
    the bounded lattice homomorphisms, counted by Birkhoff duality."""
    names = [nm for nm in oracle.search_frame_names(max_size)
             if oracle.search_frame_size(nm) <= 4]
    homs = {f"{a}->{b}": oracle.lattice_homs(oracle.search_frame_poset(a),
                                             oracle.search_frame_poset(b))
            for a in names for b in names}

    def check(out: str) -> int:
        recs = _records(out)
        got = {rec.get("pair"): rec for rec in recs}
        _require(len(got) == len(recs) and set(got) == set(homs),
                 f"pairs {[rec.get('pair') for rec in recs]}")
        for pair, rec in got.items():
            _require(rec.get("failures") == 0, f"{pair}: {rec.get('failures')} failures")
            _require(rec.get("homs") == homs[pair],
                     f"{pair}: {rec.get('homs')} homs, expected {homs[pair]}")
        return len(recs)
    return check


def check_search_star(out: str) -> int:
    """On finite frames every proximity homomorphism preserves joins, so
    star-composition equals composition: no witness exists."""
    recs = _records(out)
    _require(len(recs) == 1 and recs[0].get("result") == "no finite witness",
             f"records {recs}")
    return 1


# -- inputs -------------------------------------------------------------------


def _write(workdir: str, doc: dict) -> Instance:
    path = os.path.join(workdir, doc["name"] + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return Instance(path, doc)


def _catalog(root: str) -> list[Instance]:
    out = []
    for name in CATALOG_NAMES:
        with open(os.path.join(root, "src", "proxkit", "data", name + ".json")) as fh:
            out.append(Instance(name, json.load(fh)))
    return out


def _chain_docs(rng: random.Random) -> list[dict]:
    """omega*k + k chains with k//2 + 1 reflexive limits, the top among
    them, the others drawn at random.  A fixed count keeps the cost of an
    instance independent of the seed."""
    docs = []
    for k in CHAIN_BLOCKS:
        refl = {k} | set(rng.sample(range(1, k), k // 2))
        docs.append({"name": f"chain-w{k}", "builder": "chain", "k": k,
                     "reflexive": sorted(refl)})
    return docs


def _random_poset(rng: random.Random, points: int, lattice_size: int):
    """A random poset on `points` points whose downset lattice has exactly
    `lattice_size` elements, by rejection."""
    names = [f"q{i}" for i in sorted(rng.sample(range(100), points))]
    while True:
        pairs = [(names[i], names[j]) for i in range(points)
                 for j in range(i + 1, points) if rng.random() < 0.3]
        if len(oracle.downsets(names, pairs)) == lattice_size:
            return names, pairs


def _finite_docs(rng: random.Random) -> list[tuple[dict, bool]]:
    """(document, compactify?) for chains with shuffled, seeded names,
    the cubes, and downset lattices of random posets."""
    out = []
    for n in FINITE_CHAIN_SIZES:
        names = [f"e{i:03d}" for i in sorted(rng.sample(range(1000), n))]
        covers = [list(p) for p in zip(names, names[1:])]
        shuffled = names[:]
        rng.shuffle(shuffled)
        rng.shuffle(covers)
        out.append(({"name": f"chain{n}", "builder": "finite",
                     "elements": shuffled, "leq": covers}, True))
    for k in CUBE_DIMS:
        # the cubes are fixed: compactify of cube4 meets the program's
        # 14-element cap, which must not depend on the seed
        out.append(({"name": f"cube{k}", "builder": "downsets",
                     "elements": [f"x{i}" for i in range(k)], "leq": []}, True))
    for points, size, compactify in POSET_LATTICES:
        names, pairs = _random_poset(rng, points, size)
        out.append(({"name": f"poset{size}", "builder": "downsets",
                     "elements": names, "leq": [list(p) for p in pairs]},
                    compactify))
    return out


def write_inputs(workload: str, seed: int, workdir: str, root: str) -> list:
    """Make the workload's inputs from its seed and write the instance
    files into `workdir`.  Returns what `commands` needs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog-laws":
        return _catalog(root)
    if workload == "chain-scale":
        return [_write(workdir, d) for d in _chain_docs(rng)]
    if workload == "finite-search":
        return [(_write(workdir, d), c) for d, c in _finite_docs(rng)]
    raise ValueError(f"unknown workload {workload!r}")


def _validate_compactify(inst: Instance, compactify: bool = True) -> list[Command]:
    doc, name = inst.doc, inst.doc["name"]
    if doc["builder"] == "chain":
        refl = _chain_reflexive(doc)
        k = int(doc["k"])
        return [
            Command(["validate", inst.arg],
                    check_validate(name, refl == set(range(1, k + 1)))),
            Command(["compactify", inst.arg], check_compactify_chain(name, k, refl)),
        ]
    facts = finite_facts(doc)
    out = [Command(["validate", inst.arg], check_validate(name, True))]
    if compactify:
        fault = KNOWN_FAULT_TOO_LARGE if facts.n > IDEAL_ENUM_LIMIT else None
        out.append(Command(["compactify", inst.arg],
                           check_compactify_finite(name, facts), known_fault=fault))
    return out


def _describe(doc: dict) -> str:
    if doc["builder"] == "chain":
        return oracle.chain_describe(int(doc["k"]), _chain_reflexive(doc))
    return finite_facts(doc).describe


def commands(workload: str, inputs: list) -> list[Command]:
    """The workload's command list, one round, in order."""
    if workload == "catalog-laws":
        small = {inst.arg: finite_facts(inst.doc) for inst in inputs
                 if inst.doc["builder"] != "chain"}
        small = {k: v for k, v in small.items() if v.n <= 4}
        exhaustive = {f"{a}->{b}": oracle.lattice_homs(fa.join_irreducibles,
                                                       fb.join_irreducibles)
                      for a, fa in small.items() for b, fb in small.items()}
        cmds = [Command(["laws", "--suite", "all"],
                        check_laws([_describe(i.doc) for i in inputs], exhaustive))]
        for inst in inputs:
            cmds += _validate_compactify(inst)
        return cmds
    if workload == "chain-scale":
        cmds = []
        for inst in inputs:
            cmds += _validate_compactify(inst)
            cmds.append(Command(["laws", "--suite", "all", "--instance", inst.arg],
                                check_laws([_describe(inst.doc)], {})))
        return cmds
    if workload == "finite-search":
        cmds = [
            Command(["search", "--law", "collapse", "--max-size", "5"],
                    check_search_collapse(5)),
            Command(["search", "--law", "theta-rho", "--max-size", "4"],
                    check_search_theta_rho(4)),
            Command(["search", "--law", "star-vs-compose", "--max-size", "4"],
                    check_search_star),
        ]
        for inst, compactify in inputs:
            cmds += _validate_compactify(inst, compactify)
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
