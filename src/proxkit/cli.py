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
from .comonads import (
    _reps,
    adjunction_checks,
    comonad_laws,
    doubled_membership_lemma,
    kleisli_lift,
    kz_check,
    max_proximity_agreement,
    maxrel_contains_wb,
    subcomonad_check,
)
from .errors import InvalidParameter, ProxkitError
from .finite import build_finite_frame, dot_quoted, downset_frame, hasse_dot
from .morphisms import (
    _composite,
    _star_table,
    compose,
    enumerate_proxhoms,
    kappa_map,
    rho,
    rmap_map,
    sigma_map,
    star_compose,
    theta,
    validate_pframemap,
    validate_proxhom,
)
from .proximity import (
    FiniteProximity,
    certify_finite_collapse,
    order_proximity,
    validate_proximity,
)
from .reports import LawReport, document, law_fail, law_pass, line
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
    p.add_argument("--suite", choices=("R", "C", "morphisms", "all"), default="all")
    p.add_argument("--instance", default=None,
                   help="catalog name or instance JSON file (default: whole catalog)")

    p = sub.add_parser("search", help="exhaustive counterexample search on "
                                      "generated finite frames")
    p.add_argument("--law", choices=("collapse", "theta-rho", "star-vs-compose"),
                   required=True)
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
    doc = report.to_json()
    doc["instance"] = name
    print(document(doc))
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
    if instance is None:
        insts = catalog_instances()
    else:
        insts = dict([load_instance(instance)])
    if not all(validate_proximity(prox).ok for prox in insts.values()):
        print("error: instance fails the proximity axioms", file=sys.stderr)
        return 1
    # one ideal frame per proximity, built on first use: each carries the
    # levels of its R and C towers, and all of them end with this run
    rfd_of = functools.cache(rframe)

    reports: list[LawReport] = []
    if suite in ("R", "all"):
        for prox in insts.values():
            rfd = rfd_of(prox)
            reports += comonad_laws("R", rfd)
            reports += subcomonad_check(rfd)
    if suite in ("C", "all"):
        for prox in insts.values():
            rfd = rfd_of(prox)
            reports += comonad_laws("C", rfd)
            reports.append(kz_check(rfd))
            reports += adjunction_checks(rfd)
            reports.append(doubled_membership_lemma(rfd))
            reports.append(max_proximity_agreement(rfd))
            reports.append(maxrel_contains_wb(rfd))
    if suite in ("morphisms", "all"):
        reports += _morphism_suite(insts, rfd_of)
    for r in reports:
        print(r.dumps())
    return 0 if all(r.ok for r in reports) else 1


def _morphism_suite(insts, ideal_frame_of) -> list[LawReport]:
    out: list[LawReport] = []
    morphs = {k: v for k, v in catalog_morphisms().items()
              if any(v.src == p for p in insts.values())}
    # per valid morphism f: theta(f), its co-Kleisli lift R(theta f) . r,
    # and whether f is a frame map, each built once for every pair below
    thetas, lifts, frame_maps = {}, {}, {}
    for name, f in morphs.items():
        inst = f"morphism:{name}"
        if not validate_proxhom(f).ok:
            out.append(law_fail("morphism.valid", inst))
            continue
        rfd = ideal_frame_of(f.src)
        th = theta(f, rfd)
        ok = validate_pframemap(th).ok and rho(th, rfd) == f
        out.append(law_pass("theta-rho.roundtrip", inst) if ok
                   else law_fail("theta-rho.roundtrip", inst))
        dst_rfd = ideal_frame_of(f.dst)
        decomp = compose(sigma_map(dst_rfd),
                         compose(rmap_map(f, rfd, dst_rfd), kappa_map(rfd)))
        out.append(law_pass("decomposition", inst) if decomp == f
                   else law_fail("decomposition", inst))
        thetas[name] = th
        lifts[name] = kleisli_lift(th, rfd, dst_rfd)
        frame_maps[name] = validate_pframemap(f).ok
    # exhaustive theta/rho on small finite catalog frames
    small = {k: v for k, v in insts.items()
             if isinstance(v, FiniteProximity) and v.frame.n <= 4}
    for ns, ps in small.items():
        for nd, pd in small.items():
            count, failures = _theta_rho_counts(ps, pd, ideal_frame_of(ps))
            out.append(_count_law("theta-rho.exhaustive", f"{ns}->{nd}",
                                  count, failures))
    # star-composition laws across composable catalog pairs: theta(g * f)
    # is theta(g) after the lift of theta(f)
    for n1, f in morphs.items():
        for n2, g in morphs.items():
            if f.dst != g.src:
                continue
            inst = f"{n2}*{n1}"
            invalid = [n for n in dict.fromkeys((n1, n2)) if n not in thetas]
            if invalid:
                out.append(law_fail("kleisli.functor", inst,
                                    note="invalid factor: " + ", ".join(invalid)))
                continue
            sc = star_compose(g, f)
            ok = validate_proxhom(sc).ok
            if frame_maps[n2]:
                ok = ok and sc == compose(g, f)
            ok = ok and theta(sc, ideal_frame_of(f.src)) == compose(thetas[n2], lifts[n1])
            out.append(law_pass("kleisli.functor", inst) if ok
                       else law_fail("kleisli.functor", inst))
    return out


def _theta_rho_counts(ps, pd, rfd) -> tuple[int, int]:
    """The proximity homomorphisms ps -> pd, counted, and how many of them
    rho(theta(f)) does not give back; rfd is the ideal frame of ps."""
    homs = enumerate_proxhoms(ps, pd)
    return len(homs), sum(rho(theta(f, rfd), rfd) != f for f in homs)


def _count_law(law, inst, count, failures) -> LawReport:
    if failures:
        return law_fail(law, inst, samples=count, note=f"{failures} failures")
    return law_pass(law, inst, samples=count)


# -- search -------------------------------------------------------------------

SEARCH_PAIR_LIMIT = 4


def _generated_frames(max_size: int):
    """Small finite frames: total orders, Boolean cubes, and the downsets
    of the two-point-under-one poset."""
    out = [(f"order{n}", _order_frame(n)) for n in range(2, max_size + 1)]
    k = 1
    while 2 ** k <= max_size:
        out.append((f"cube{k}", _cube_frame(k)))
        k += 1
    if max_size >= 5:
        out.append(("vee", _vee_frame()))
    return out


# each generated frame is built once per process: frames are immutable,
# and the tables they cache depend on nothing but the frame

@functools.cache
def _order_frame(n: int):
    names = [f"c{i}" for i in range(n)]
    return build_finite_frame(names, list(zip(names, names[1:])))


@functools.cache
def _cube_frame(k: int):
    return downset_frame([f"x{i}" for i in range(k)], [])


@functools.cache
def _vee_frame():
    return downset_frame(["a", "b", "c"], [("a", "c"), ("b", "c")])


def cmd_search(law: str, max_size: int) -> int:
    if max_size < 2:
        raise InvalidParameter("--max-size must be at least 2")
    frames = _generated_frames(max_size)
    failures = 0
    if law == "collapse":
        for name, frame in frames:
            report = certify_finite_collapse(frame)
            doc = report.to_json()
            doc["frame"] = name
            print(line(doc))
            failures += 0 if report.ok else 1
        return 0 if failures == 0 else 1
    # pairs of frames are searched only up to SEARCH_PAIR_LIMIT elements,
    # and each larger frame gets a skip record.  enumerate_proxhoms prunes
    # depth-first, but star-vs-compose pairs every homomorphism with every
    # endomorphism of its target: 0.14, 0.22 and 1.6 s of process time,
    # start-up included, on one Xeon core at limits 5, 6 and 7.  One work
    # budget for all the searches, counting the work done, is meant to
    # replace the limit.
    small = []
    for name, frame in frames:
        if frame.n > SEARCH_PAIR_LIMIT:
            print(line({"frame": name,
                        "skipped": f"over {SEARCH_PAIR_LIMIT} elements"}))
        else:
            small.append((name, order_proximity(frame)))
    if law == "theta-rho":
        for ns, ps in small:
            rfd = rframe(ps)
            for nd, pd in small:
                count, bad = _theta_rho_counts(ps, pd, rfd)
                print(line({"pair": f"{ns}->{nd}", "homs": count,
                            "failures": bad}))
                failures += bad
        return 0 if failures == 0 else 1
    # star-vs-compose: on finite frames the order is the only proximity,
    # so every valid homomorphism preserves joins and the compositions
    # agree; the genuine witness needs the two-block chain instance.  Each
    # ordered pair is enumerated once, and a target's endomorphisms are
    # its diagonal entry.  Both maps run from f's source to g's target,
    # so they agree when their tables do: the star table is read off the
    # plain composite table, and no map is built for either.
    homs = {(ns, nd): enumerate_proxhoms(ps, pd) for ns, ps in small for nd, pd in small}
    for ns, _ in small:
        for nd, _ in small:
            for f in homs[ns, nd]:
                for g in homs[nd, nd]:
                    composite = _composite(g, f)
                    if _star_table(g, f, composite) != composite:
                        failures += 1
                        print(line({"witness": [repr(f), repr(g)]}))
    if failures == 0:
        print(line({
            "result": "no finite witness",
            "note": "finite proximities collapse to the order, making every "
                    "homomorphism join-preserving; see the chain-k2 catalog "
                    "morphisms k2-f, k2-g for the infinite witness",
        }))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
