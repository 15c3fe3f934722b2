"""The objects proxkit decides, computed from the paper's definitions.

Everything here is brute force: over every subset of a finite frame, and
on a chain over a window, the first `depth` points of each omega block
and every point segment.  The module shares no code with the code it is
compared with: from `proxkit` it imports only data types, the frame
builders of `finite` and `chain` and the report constructors, and
nothing from `comonads` (`tests/test_imports.py` checks this).  Maps built by proxkit are
compared point by point, at every point of a window that reaches two
points past the largest horizon of the maps involved; past it every rule
is a constant or n -> El(seg, a*n + b), so two tail points fix it.

The input generators of the differential tests live here too.
"""

import random
from functools import cache
from itertools import combinations, permutations, product

from proxkit.chain import OMEGA, POINT, ChainLikeFrame, El, Segment, build_chain_frame
from proxkit.errors import InvalidParameter, NotATopology, TooLarge
from proxkit.finite import FINITE_FRAME_LIMIT, FiniteFrame, build_finite_frame, downset_frame
from proxkit.morphisms import FiniteMap
from proxkit.proximity import ChainProximity, FiniteProximity
from proxkit.reports import FAIL, PASS, AxiomReport, Verdict, law_report
from proxkit.roundideal import BelowLim, Prin

DEPTH = 3  # window points past the horizon of every map in play


def points(frame, depth=DEPTH) -> list:
    """Every element of a finite frame; on a chain the window of the first
    `depth` points of each omega block and every point, in chain order."""
    if isinstance(frame, FiniteFrame):
        return list(frame.elements())
    return [El(i, n) for i, s in enumerate(frame.segments)
            for n in range(depth if s.kind == OMEGA else 1)]


def depth_for(*maps) -> int:
    """A window depth that passes the horizon of every chain map by DEPTH."""
    return DEPTH + max((m + 1 for f in maps if not isinstance(f, FiniteMap)
                        for rule in f.rules for m, _ in rule.exceptions), default=0)


def join(frame, xs):
    out = frame.bot
    for x in xs:
        out = frame.join(out, x)
    return out


# -- ideals -------------------------------------------------------------------


def members(ideal) -> int:
    """The mask of the members of an ideal of a finite frame: the b under
    its generator."""
    f = ideal.prox.frame
    return sum(1 << b for b in f.elements() if f.leq(b, ideal.a))


def principal(p, mask):
    """The ideal of p whose members are the elements in mask, after
    asserting that they are the downset of their join x, as the finite
    collapse theorem says every round ideal of a finite frame is."""
    f = p.frame
    x = join(f, [b for b in f.elements() if mask >> b & 1])
    assert mask == sum(1 << b for b in f.elements() if f.leq(b, x)), (p, mask)
    return Prin(p, x)


def contains(ideal, b) -> bool:
    if isinstance(ideal.prox, FiniteProximity):
        return bool(members(ideal) >> b & 1)
    return b <= ideal.a if isinstance(ideal, Prin) else b < ideal.lim


def sup(ideal):
    """sigma: the join of the members.  A chain ideal is everything under
    its top, with the top when principal; a limit is the supremum of what
    lies under it."""
    if isinstance(ideal.prox, FiniteProximity):
        f = ideal.prox.frame
        return join(f, [b for b in f.elements() if contains(ideal, b)])
    return ideal.a if isinstance(ideal, Prin) else ideal.lim


def subset(i, j) -> bool:
    if isinstance(i.prox, FiniteProximity):
        return not members(i) & ~members(j)
    return _top(i) <= _top(j)


def _top(ideal):
    return (ideal.a, 1) if isinstance(ideal, Prin) else (ideal.lim, 0)


def approximants(p, a):
    """kappa(a): the b with b rel a."""
    if isinstance(p, FiniteProximity):
        return principal(p, column(p, a))
    return Prin(p, a) if p.rel(a, a) else BelowLim(p, a)


def column(p: FiniteProximity, a) -> int:
    """The mask of the b with b rel a."""
    return sum(1 << b for b in p.frame.elements() if p.rel(b, a))


def way_below_set(p, a):
    """alpha(a): the b way below a.  A directed set of a finite lattice has
    a greatest element, so there b << a iff b <= a; on a chain too, except
    that a limit, the supremum of what lies under it, is not way below
    itself."""
    f = p.frame
    if isinstance(p, FiniteProximity):
        return principal(p, sum(1 << b for b in f.elements() if f.leq(b, a)))
    return BelowLim(p, a) if f.is_limit(a) else Prin(p, a)


def way_below(i, j) -> bool:
    """i << j among round ideals: a member of j bounds i.  j is a downset,
    so it holds such a member iff it holds the join of i."""
    return contains(j, sup(i))


def as_ideal_of(ideal, p):
    """The same set of elements as an ideal of the proximity p."""
    if isinstance(p, FiniteProximity):
        return principal(p, members(ideal))
    return Prin(p, ideal.a) if isinstance(ideal, Prin) else BelowLim(p, ideal.lim)


@cache
def ideal_frame(p: FiniteProximity):
    """(frame, masks): the round ideals of a finite relation, the downsets
    holding 0 that are closed under joins and in which every member
    relates to a member, as the frame of their inclusion order; masks[i]
    is the ideal of element i.  An ideal is named dn(x) when it is the
    downset of its join x, else by its members."""
    f, n = p.frame, p.frame.n
    down = [sum(1 << b for b in range(n) if f.leq(b, a)) for a in range(n)]

    def is_round_ideal(m):
        mem = [a for a in range(n) if m >> a & 1]
        return (m >> f.bot & 1 and all(not down[a] & ~m for a in mem)
                and all(m >> f.join(a, b) & 1 for a in mem for b in mem)
                and all(any(p.rel(a, b) for b in mem) for a in mem))

    masks = [m for m in range(1 << n) if is_round_ideal(m)]
    names = []
    for m in masks:
        x = join(f, [a for a in range(n) if m >> a & 1])
        names.append(f"dn({f.names[x]})" if m == down[x] else
                     "{" + ",".join(f.names[a] for a in range(n) if m >> a & 1) + "}")
    frame = build_finite_frame(names, [(a, b) for a, ma in zip(names, masks)
                                       for b, mb in zip(names, masks) if not ma & ~mb])
    return frame, tuple(masks[names.index(x)] for x in frame.names)


@cache
def codec(p, frame, depth=DEPTH) -> dict:
    """{x: the round ideal of p that the point x of `frame`, the frame of
    round ideals of p, stands for}: the points of frame, in order, against
    the round ideals of p in inclusion order.  A chain's downsets are the
    principal ones and those strictly under a limit; the principal downset
    of a is round iff a rel a, and one under a limit is round, each member
    relating to its successor."""
    if isinstance(p, FiniteProximity):
        assert frame == ideal_frame(p)[0], "not the frame of round ideals"
        ideals = [principal(p, m) for m in ideal_frame(p)[1]]
    else:
        ideals = [Prin(p, a) for a in points(p.frame, depth) if p.rel(a, a)]
        ideals = sorted(ideals + [BelowLim(p, lim) for lim in p.frame.limits()], key=_top)
    return dict(zip(points(frame, depth), ideals, strict=True))


def element(p, frame, ideal):
    """The point of `frame`, the frame of round ideals of p, that stands
    for `ideal`; None if there is none."""
    depth = 1 if isinstance(p, FiniteProximity) else _top(ideal)[0].n + 1
    for x, i in codec(p, frame, max(depth, DEPTH)).items():
        if i == ideal:
            return x
    return None


# -- maps ---------------------------------------------------------------------


def block_sup(f, seg: int, depth: int):
    """(supremum of f over the omega block seg, attained?), from f at the
    window's points; a rule that still climbs at the window's last two
    points is affine and climbs to the limit over its block."""
    vals = [f.apply(El(seg, n)) for n in range(depth)]
    if vals[-1] != vals[-2]:
        return El(vals[-1].seg + 1, 0), False
    return join(f.dst.frame, vals), True


def image(f, ideal, depth):
    """R(f)(I): the c related to f(b) for some member b of I.  f is
    monotone, so on a chain the images of a principal ideal are bounded by
    that of its top."""
    dst = f.dst
    if isinstance(ideal.prox, FiniteProximity):
        mask = 0
        for b in ideal.prox.frame.elements():
            if contains(ideal, b):
                mask |= column(dst, f.apply(b))
        return principal(dst, mask)
    if isinstance(ideal, Prin):
        return approximants(dst, f.apply(ideal.a))
    top, attained = block_sup(f, ideal.lim.seg - 1, depth)
    return approximants(dst, top) if attained else BelowLim(dst, top)


def theta(f, ideal, depth):
    """theta(f)(I): the join of R(f)(I)."""
    return sup(image(f, ideal, depth))


def star_compose(g, f) -> FiniteMap:
    """(g * f)(a): the join of g(f(b)) over the b related to a."""
    src, dst = f.src, g.dst
    return FiniteMap(src, dst, tuple(
        join(dst.frame, [g.apply(f.apply(b)) for b in src.frame.elements() if src.rel(b, a)])
        for a in src.frame.elements()))


def way_below_in(frame, a, b) -> bool:
    """a << b: every directed set whose join is at least b has a member at
    least a.  A directed set of a finite lattice has a greatest element, so
    there a << b iff a <= b; on a chain too, except that a limit, the join
    of what lies under it, is not way below itself."""
    if isinstance(frame, FiniteFrame):
        return frame.leq(a, b)
    return frame.leq(a, b) and not (a == b and frame.is_limit(a))


def proper(f) -> bool:
    """Whether f(a) << f(b) for every a << b: over every element of a
    finite source, and over the window points of a chain."""
    src, dst, v = f.src.frame, f.dst.frame, f.apply
    els = points(src, depth_for(f))
    return all(way_below_in(dst, v(a), v(b))
               for a in els for b in els if way_below_in(src, a, b))


# -- validators ---------------------------------------------------------------


AXIOMS = ("finer-than-leq", "sublattice", "weakening", "interpolation", "approximation")


def report(axioms, last=False, collapse=None) -> AxiomReport:
    """The report of [(axiom, violations)]: each axiom fails with the
    witness and note of its first violation (its last, if `last`)."""
    verdicts = []
    for axiom, found in axioms:
        w = None
        for w in found:
            if not last:
                break
        verdicts.append((axiom, Verdict(PASS) if w is None else Verdict(FAIL, *w)))
    return AxiomReport(tuple(verdicts), collapse=collapse)


def proximity_violations(p, depth=DEPTH) -> list:
    """[(axiom, violations)]: the proximity axioms, each a lazy loop over
    its quantifiers that yields (witness, note) in row-major order.  The
    loops run on positions in the window, which is closed under meets and
    joins, with the relation, order and lattice tables read once."""
    f, els = p.frame, points(p.frame, depth)
    ix, pos = range(len(els)), {x: i for i, x in enumerate(els)}
    rel, leq = ([[r(x, y) for y in els] for x in els] for r in (p.rel, f.leq))
    meet, join_ = ([[pos[op(x, y)] for y in els] for x in els] for op in (f.meet, f.join))
    pairs = [(a, b) for a in ix for b in ix if rel[a][b]]

    def lab(*xs):
        return tuple(p.label(els[x]) for x in xs)

    def sublattice():
        for x in (pos[f.bot], pos[f.top]):
            if not rel[x][x]:
                yield lab(x, x), "bounds missing from the relation"
                return
        for (a, b), (c, d) in combinations(pairs, 2):
            for op, note in ((meet, "meet closure"), (join_, "join closure")):
                if not rel[op[a][c]][op[b][d]]:
                    yield lab(a, b, c, d), note
                    break

    return [
        ("finer-than-leq", ((lab(a, b), "pair not below the order")
                            for a, b in pairs if not leq[a][b])),
        ("sublattice", sublattice()),
        ("weakening", ((lab(a, b, c, d), "") for b, c in pairs for a in ix if leq[a][b]
                       for d in ix if leq[c][d] and not rel[a][d])),
        ("interpolation", ((lab(a, b), "") for a, b in pairs
                           if not any(rel[a][c] and rel[c][b] for c in ix))),
        ("approximation", (((p.label(a), p.label(j)), "join of approximants differs")
                           for a in els for j in [approximant_join(p, a)] if j != a)),
    ]


def approximant_join(p, a):
    """The join of the b with b rel a, for any relation p: over the column
    of a finite relation, whose ideal need not be principal unless p is a
    proximity."""
    if isinstance(p, FiniteProximity):
        return join(p.frame, [b for b in p.frame.elements() if p.rel(b, a)])
    return sup(approximants(p, a))


def proximity_report(p, depth=DEPTH) -> AxiomReport:
    els = points(p.frame, depth)
    collapse = all(p.rel(a, b) == p.frame.leq(a, b) for a in els for b in els)
    return report(proximity_violations(p, depth), collapse=collapse)


def hom_violations(f: FiniteMap, frame_map: bool) -> list:
    """[(axiom, violations)]: the axioms of a proximity homomorphism, or
    with frame_map of a frame map preserving the relation, on a finite
    source, each a lazy loop that yields (witness, note) in row-major
    order."""
    src, dst, sf, df = f.src, f.dst, f.src.frame, f.dst.frame
    els, v, name, lab = list(sf.elements()), f.apply, sf.names.__getitem__, dst.label
    pairs = [(a, b) for a in els for b in els if src.rel(a, b)]

    def failing(op, dop, note):
        return (((name(a), name(b)), note) for a in els for b in els
                if v(op(a, b)) != dop(v(a), v(b)))

    def bound(x, y, note):
        return (((name(x), lab(v(x))), note) for _ in [0] if v(x) != y)

    axioms = [("meet-hom", failing(sf.meet, df.meet, "meets not preserved")),
              ("zero", bound(sf.bot, df.bot, "bottom not preserved")),
              ("top", bound(sf.top, df.top, "top not preserved"))]
    if frame_map:
        return axioms + [
            ("join-hom", failing(sf.join, df.join, "joins not preserved")),
            ("preserves-rel", (((name(a), name(b)), "relation not preserved")
                               for a, b in pairs if not dst.rel(v(a), v(b))))]
    return axioms + [
        ("join-subadditive", (((name(a1), name(b1), name(a2), name(b2)),
                               "joint subadditivity fails")
                              for (a1, b1), (a2, b2) in product(pairs, repeat=2)
                              if not dst.rel(v(sf.join(a1, a2)), df.join(v(b1), v(b2))))),
        ("value-approximation", (((name(a), lab(j)), "approximation of values fails")
                                 for a in els
                                 for j in [join(df, [v(b) for b in els if src.rel(b, a)])]
                                 if j != v(a)))]


def proxhoms(src: FiniteProximity, dst: FiniteProximity) -> list[FiniteMap]:
    """Every table of m**n, in the order of its code sum(f(i) * m**i),
    that passes the homomorphism axioms."""
    n, m = src.frame.n, dst.frame.n
    tables = (tuple(code // m ** i % m for i in range(n)) for code in range(m ** n))
    return [f for f in (FiniteMap(src, dst, t) for t in tables)
            if not any(next(found, None) for _, found in hom_violations(f, False))]


def join_irreducibles(frame: FiniteFrame) -> list:
    """The x other than the bottom that are the join of no two elements
    both different from x."""
    els = list(frame.elements())
    return [x for x in els if x != frame.bot
            and not any(frame.join(a, b) == x for a in els for b in els if x not in (a, b))]


def lattice_hom_count(src: FiniteFrame, dst: FiniteFrame) -> int:
    """The bounded lattice homomorphisms src -> dst between two finite
    distributive lattices, counted by Birkhoff duality: the order-preserving
    maps from the join-irreducibles of dst to those of src."""
    js, jd = join_irreducibles(src), join_irreducibles(dst)
    below = [(i, j) for i, x in enumerate(jd) for j, y in enumerate(jd) if dst.leq(x, y)]
    return sum(all(src.leq(h[i], h[j]) for i, j in below)
               for h in product(js, repeat=len(jd)))


def free_pairs(f: FiniteFrame) -> list:
    """The pairs of leq other than (0, 0) and (1, 1)."""
    return [(a, b) for a in f.elements() for b in f.elements()
            if f.leq(a, b) and (a, b) not in ((f.bot, f.bot), (f.top, f.top))]


def candidate(f: FiniteFrame, free, bits: int) -> FiniteProximity:
    """The relation of the free pairs that bits selects, with (0, 0) and
    (1, 1)."""
    chosen = {(f.bot, f.bot), (f.top, f.top)} | {p for i, p in enumerate(free) if bits >> i & 1}
    return FiniteProximity(f, tuple(sum(1 << b for b in f.elements() if (a, b) in chosen)
                                    for a in f.elements()))


def certify_collapse(frame: FiniteFrame, axioms=AXIOMS):
    """The collapse certificate: every sub-relation of leq with both bound
    pairs, in increasing mask order, put to the axioms; it fails at the
    first survivor other than the order."""
    def holds(p):
        return not any(next(found, None) for axiom, found in proximity_violations(p)
                       if axiom in axioms)

    instance = f"finite:{','.join(frame.names)}"
    free = free_pairs(frame)
    samples = 1 << len(free)
    for bits in range(samples):
        cand = candidate(frame, free, bits)
        if cand.rows != frame.up and holds(cand):
            return law_report("collapse", instance, False, samples=samples,
                              note="non-order proximity found", witness=tuple(
                                  (frame.names[a], frame.names[b]) for a, b in cand.pairs()))
    if not holds(FiniteProximity(frame, frame.up)):
        return law_report("collapse", instance, False, samples=samples,
                          note="the order itself did not survive")
    return law_report("collapse", instance, True, samples=samples,
                      note="only the order satisfies the axioms")


# -- the per-class laws, point by point ----------------------------------------


def maxrel_agreement(rfd, depth=DEPTH):
    """The pairs (x, y) of the ideal frame's points, row-major, at which
    rfd.maxp and the two definitions of the maximal proximity do not all
    agree: I_x, I_y related iff I_x is inside I_y and their joins are
    related, iff I_x is inside I_y and way below the approximants of the
    join of I_y."""
    base, ideals = rfd.base, codec(rfd.base, rfd.frame, depth)
    tops = {x: sup(i) for x, i in ideals.items()}
    kappas = {y: approximants(base, top) for y, top in tops.items()}
    for (x, i), (y, j) in product(ideals.items(), repeat=2):
        inside = subset(i, j)
        by_joins = inside and base.rel(tops[x], tops[y])
        by_wb = inside and way_below(i, kappas[y])
        if not by_joins == by_wb == rfd.maxp.rel(x, y):
            yield x, y


def maxrel_contains_wb(rfd, depth=DEPTH):
    """The pairs, row-major, that rfd.wb relates and rfd.maxp does not."""
    els = points(rfd.frame, depth)
    yield from ((x, y) for x in els for y in els
                if rfd.wb.rel(x, y) and not rfd.maxp.rel(x, y))


def doubled_membership(rfd, depth=DEPTH, contains=contains):
    """The pairs (jbar, ibar), row-major over the doubled frame's points
    and the ideal frame's, at which the join of eps(J) lies in I but no
    kbar that eps(J) is maxp-below has its join in I, or the other way
    round; eps(J) is the join of J, a round ideal of the doubled frame's
    own base, which is rfd.maxp unless a test replaced that."""
    ideals = codec(rfd.base, rfd.frame, depth)
    joins = {k: sup(K) for k, K in ideals.items()}
    # landing[i]: the kbar whose join lies in I
    landing = {i: {k for k in ideals if contains(I, joins[k])} for i, I in ideals.items()}
    for jbar, J in codec(rfd.cc.base, rfd.cc.frame, depth).items():
        ej = sup(J)
        above = {k for k in ideals if rfd.maxp.rel(ej, k)}
        for ibar, held in landing.items():
            if (ej in held) != (not above.isdisjoint(held)):
                yield jbar, ibar


def class_laws(rfd, c, eps, ceps, bk, depth) -> dict:
    """{law: holds} for the per-class laws at every point of the window:
    the comultiplication c, the counit eps of the doubled frame, its
    functor image ceps and beta-after-kappa bk of the doubled frame."""
    C, CC = points(rfd.frame, depth), points(rfd.cc.frame, depth)
    leq, leq2 = rfd.frame.leq, rfd.cc.frame.leq
    return {
        "C.kz": all(leq(eps.apply(y), ceps.apply(y)) for y in CC),
        "adj.c-eps": (all(leq(x, eps.apply(c.apply(x))) for x in C)
                      and all(leq2(c.apply(eps.apply(y)), y) for y in CC)),
        "adj.eps-betakappa": (all(leq2(y, bk.apply(eps.apply(y))) for y in CC)
                              and all(leq(eps.apply(bk.apply(x)), x) for x in C)),
        "C.doubled-membership": next(doubled_membership(rfd, depth), None) is None,
        "maxrel.agreement": next(maxrel_agreement(rfd, depth), None) is None,
        "maxrel.contains-wb": next(maxrel_contains_wb(rfd, depth), None) is None,
    }


# -- inputs ---------------------------------------------------------------------


def chains(sizes, prefix="chain") -> list:
    names = [f"c{i}" for i in range(max(sizes))]
    return [(f"{prefix}{n}", build_finite_frame(names[:n], list(zip(names, names[1:n]))))
            for n in sizes]


def cubes(dims) -> list:
    return [(f"cube{k}", downset_frame([f"x{i}" for i in range(k)], [])) for k in dims]


def vee():
    """The five downsets of two points under a third."""
    return "vee", downset_frame(["a", "b", "c"], [("a", "c"), ("b", "c")])


def diamond(a="a", b="b") -> FiniteFrame:
    """Two atoms a and b between 0 and 1.  With b = "a!" it flips a tie:
    "a" sorts before "a!", but "dn(a!)" before "dn(a)"."""
    return build_finite_frame(["0", a, b, "1"], [("0", a), ("0", b), (a, "1"), (b, "1")])


def sub_relation(frame, rng, keep=0.6) -> FiniteProximity:
    """A random sub-relation of leq, not validated."""
    return FiniteProximity(frame, tuple(
        sum(1 << b for b in frame.elements() if frame.leq(a, b) and rng.random() < keep)
        for a in frame.elements()))


def small_proximities() -> list:
    """Frames of up to 4 elements, each with its order, the empty relation
    and two random sub-relations."""
    rng = random.Random(7)
    out = []
    for name, f in chains(range(1, 5)) + cubes((1, 2)):
        out += [(name, FiniteProximity(f, f.up)), (f"{name}:empty", FiniteProximity(f, (0,) * f.n)),
                (f"{name}:r1", sub_relation(f, rng)), (f"{name}:r2", sub_relation(f, rng))]
    return out


def posets(max_points) -> list:
    """One poset of each isomorphism class with at most max_points points,
    as (names, strict pairs).  Every poset has a labelling with i < j for
    each pair (i, j), so the transitive sets of such pairs reach every
    class; each class is given by its least sorted pair list over all
    relabellings."""
    out = []
    for n in range(max_points + 1):
        names = [f"p{i}" for i in range(n)]
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            rel = {pq for k, pq in enumerate(pairs) if bits >> k & 1}
            if any((a, c) not in rel for a, b in rel for b2, c in rel if b == b2):
                continue
            key = min(tuple(sorted((s[a], s[b]) for a, b in rel))
                      for s in permutations(range(n)))
            if key not in seen:
                seen.add(key)
                out.append((names, [(names[a], names[b]) for a, b in key]))
    return out


def downset_lattices(max_points) -> list:
    """The downset lattice of each poset of `posets(max_points)`: by
    Birkhoff's theorem every finite distributive lattice whose poset of
    join-irreducibles has at most max_points points, once each."""
    return [downset_frame(names, pairs) for names, pairs in posets(max_points)]


def layouts(max_segments):
    """Every chain frame of at most max_segments omega or point segments,
    the last a point."""
    for n in range(1, max_segments + 1):
        for kinds in product((OMEGA, POINT), repeat=n - 1):
            yield ChainLikeFrame(tuple(
                Segment(kind, f"s{i}") for i, kind in enumerate(kinds + (POINT,))))


def reflexive_subsets(frame):
    """The chain proximity of every set of reflexive limits."""
    lims = frame.limits()
    for r in range(len(lims) + 1):
        for chosen in combinations(lims, r):
            yield ChainProximity(frame, frozenset(chosen))


def chain_instances(k) -> list:
    """k blocks with the top alone, the odd limits and the top, and every
    limit reflexive."""
    frame = build_chain_frame(k)
    lims = frame.limits()
    sets = {frozenset({k}), frozenset(range(1, k + 1, 2)) | {k}, frozenset(range(1, k + 1))}
    return [ChainProximity(frame, frozenset(lims[i - 1] for i in r))
            for r in sorted(sets, key=sorted)]


def open_set_frame(points, opens) -> FiniteFrame:
    """The frame of open sets of a finite topology, from each open's
    bitset over all the points, with the checks in the order the builder
    makes them: duplicate points, each open's members in turn, the number
    of distinct opens, the bounds, and then the first pair of opens, in
    the order of their bitsets, whose union or intersection is missing."""
    dups = sorted(p for p in set(points) if points.count(p) > 1)
    if dups:
        raise InvalidParameter("duplicate point ids: " + ", ".join(map(repr, dups)))
    masks = set()
    for o in opens:
        unknown = [p for p in o if p not in points]
        if unknown:
            raise NotATopology(unknown[0], "membership")
        masks.add(sum(1 << points.index(p) for p in set(o)))
    if len(masks) > FINITE_FRAME_LIMIT:
        raise TooLarge(f"finite frames are limited to {FINITE_FRAME_LIMIT} elements")
    masks = sorted(masks)
    if 0 not in masks or (1 << len(points)) - 1 not in masks:
        raise NotATopology(("empty set", "whole space"), "bounds")

    def name(m):
        return "{" + ",".join(sorted(p for i, p in enumerate(points) if m >> i & 1)) + "}"

    for a, b in combinations(masks, 2):
        if a | b not in masks:
            raise NotATopology((name(a), name(b)), "union")
        if a & b not in masks:
            raise NotATopology((name(a), name(b)), "intersection")
    return build_finite_frame([name(m) for m in masks],
                              [(name(a), name(b)) for a in masks for b in masks if a & ~b == 0])


def topologies(rng: random.Random, count: int) -> list:
    """Seeded (points, opens) documents: the opens of random preorders on
    up to 7 points, listed in any order with repeats, and now and then
    with an open dropped or added, a point repeated or an unlisted point;
    the point names include a comma, so two opens can share a name."""
    out = []
    for _ in range(count):
        points = rng.sample(["p", "q", "r", "s", "t", "u", "v", "p,q"], rng.randint(0, 7))
        n = len(points)
        # the up-closed sets of a random reflexive relation's closure; with
        # no pairs, 7 points have 128 of them
        density = rng.choice([0.0, 0.1, 0.3])
        up = [1 << i | sum(1 << j for j in range(n) if rng.random() < density)
              for i in range(n)]
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        masks = [m for m in range(1 << n)
                 if all(up[i] & ~m == 0 for i in range(n) if m >> i & 1)]
        opens = [rng.sample([p for i, p in enumerate(points) if m >> i & 1],
                            bin(m).count("1")) for m in masks]
        opens += rng.sample(opens, rng.randint(0, len(opens)))
        rng.shuffle(opens)
        r = rng.random()
        if r < 0.2 and len(opens) > 1:
            opens.pop(rng.randrange(len(opens)))
        elif r < 0.4:
            opens.append(rng.sample(points, rng.randint(0, n)))
        elif r < 0.45:
            points = points + points[:1]
        elif r < 0.5:
            opens.insert(rng.randint(0, len(opens)), ["z"])
        out.append((points, opens))
    return out
