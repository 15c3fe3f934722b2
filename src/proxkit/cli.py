"""Command-line front end.

Subcommands: validate, compactify, laws, search.  Exit codes: 0 all
checks pass, 1 a mathematical violation was found, 2 usage or input
error.  Reports are deterministic: nothing is sampled, so the same
command prints the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .catalog import catalog_instances, catalog_morphisms, load_instance
from .chain import OMEGA, ChainLikeFrame, El
from .comonads import SEARCHES, SUITES, _reps, check_laws, morphism_laws
from .errors import InvalidParameter, ProxkitError
from .finite import dot_quoted, hasse_dot
from .proximity import FiniteProximity, validate_proximity
from .reports import LawReport, document, line
from .roundideal import rframe


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and kept for
    the process: it holds no input, so every call may share it."""
    parser = argparse.ArgumentParser(
        prog="proxkit",
        description="proximity frames, their stable compactifications, "
                    "and the comonad law suite",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check the proximity axioms of an instance")
    p.add_argument("file", help="catalog name or instance JSON file")

    p = sub.add_parser("compactify", help="compute the frame of round ideals")
    p.add_argument("file", help="catalog name or instance JSON file")
    p.add_argument("--out", choices=("json", "dot"), default="json")

    p = sub.add_parser("laws", help="run law suites over instances")
    p.add_argument("--suite", choices=(*SUITES, "morphisms", "all"), default="all")
    p.add_argument("--instance", default=None,
                   help="catalog name or instance JSON file (default: whole catalog)")

    p = sub.add_parser("search", help="exhaustive counterexample search on "
                                      "generated finite frames")
    p.add_argument("--law", choices=tuple(SEARCHES), required=True)
    p.add_argument("--max-size", type=int, default=5)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.cmd == "validate":
            return cmd_validate(args.file)
        if args.cmd == "compactify":
            return cmd_compactify(args.file, args.out)
        if args.cmd == "laws":
            return cmd_laws(args.suite, args.instance)
        return cmd_search(args.law, args.max_size)
    # load_instance reports a file it cannot read as a ProxkitError; an
    # OSError here is a write to a closed stdout
    except (ProxkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_validate(path: str) -> int:
    name, prox = load_instance(path)
    report = validate_proximity(prox)
    print(document(dict(report.to_json(), instance=name)))
    return 0 if report.ok else 1


def cmd_compactify(path: str, out: str) -> int:
    name, prox = load_instance(path)
    report = validate_proximity(prox)
    if not report.ok:
        print(f"error: instance fails the proximity axioms", file=sys.stderr)
        return 1
    rfd = rframe(prox)
    if out == "dot":
        print(_compact_dot(name, rfd), end="")
        return 0
    print(document(_compact_json(name, prox, rfd)))
    return 0


def _compact_json(name, prox, rfd) -> dict:
    doc = {"instance": name}
    reps = _reps(rfd, pairs=True)
    labels = [rfd.wb.label(e) for e in reps]
    if isinstance(prox, FiniteProximity):
        doc["classification"] = [
            {"element": rfd.wb.label(i), "ideal": repr(rfd.ideals[i]),
             "sigma": prox.label(rfd.joins[i])}
            for i in reps
        ]
    else:
        classes = []
        for seg, ideal, top in zip(rfd.frame.segments, rfd.ideals, rfd.joins):
            if seg.kind == OMEGA:
                base = prox.frame.segments[ideal.a.seg].label
                shown, join = f"Prin({base}.n)", f"{base}.n"
            else:
                shown, join = repr(ideal), prox.label(top)
            classes.append({"segment": seg.label, "kind": seg.kind,
                            "ideal": shown, "sigma": join})
        doc["classification"] = classes
        doc["representatives"] = labels
    # the labels are distinct, so pairs scanned in label order come out
    # sorted as the report lists them
    order = sorted(range(len(reps)), key=labels.__getitem__)

    def pairs(rel) -> list:
        rows = rel.rows_on(reps, reps)
        return [[labels[p], labels[q]] for p in order for q in order if rows[p] >> q & 1]

    # a finite maxp is wb itself: one list under both keys, which
    # `document` writes once
    wb = doc["way_below_on_representatives"] = pairs(rfd.wb)
    doc["max_rel_on_representatives"] = wb if rfd.maxp is rfd.wb else pairs(rfd.maxp)
    return doc


def _compact_dot(name: str, rfd) -> str:
    if not isinstance(rfd.frame, ChainLikeFrame):
        return hasse_dot(rfd.frame, title=f"compactify:{name}")
    frame = rfd.frame
    lines = [f"digraph {dot_quoted('compactify:' + name)} {{", "  rankdir=BT;"]
    nodes: list[str] = []
    for i, s in enumerate(frame.segments):
        if s.kind == OMEGA:
            for n in range(3):
                nid = f"n{i}_{n}"
                lines.append(f"  {nid} [label={dot_quoted(frame.label(El(i, n)))}];")
                nodes.append(nid)
            nid = f"n{i}_more"
            lines.append(f'  {nid} [label="..." shape=none];')
            nodes.append(nid)
        else:
            nid = f"n{i}_0"
            lines.append(f"  {nid} [label={dot_quoted(frame.label(El(i, 0)))}];")
            nodes.append(nid)
    for a, b in zip(nodes, nodes[1:]):
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_laws(suite: str, instance: str | None) -> int:
    insts = catalog_instances() if instance is None else dict([load_instance(instance)])
    if not all(validate_proximity(prox).ok for prox in insts.values()):
        print("error: instance fails the proximity axioms", file=sys.stderr)
        return 1
    # one ideal frame per proximity, built on first use: each carries the
    # levels of its R and C towers, and all of them end with this run
    rfd_of = functools.cache(rframe)

    reports: list[LawReport] = []
    for name in SUITES:
        if suite in (name, "all"):
            for prox in insts.values():
                reports += check_laws(rfd_of(prox), name)
    if suite in ("morphisms", "all"):
        reports += morphism_laws(catalog_morphisms(), insts, rfd_of)
    for r in reports:
        print(r.dumps())
    return 0 if all(r.ok for r in reports) else 1


def cmd_search(law: str, max_size: int) -> int:
    if max_size < 2:
        raise InvalidParameter("--max-size must be at least 2")
    failures = 0
    for record, failed in SEARCHES[law](max_size):
        print(line(record))
        failures += failed
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
