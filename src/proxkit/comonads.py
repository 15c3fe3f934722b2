"""The two comonads on proximity frames and the whole law harness.

The ideal-frame construction carries two proximities: the way-below
relation `RFrameData.wb` and the maximal proximity `RFrameData.maxp`
(inclusion refined by relating the joins).  Re-tagging the carrier
between them is the natural map beta.  Both comultiplications turn out
to be the left adjoint of the join map: r is alpha for the way-below
structure, and the membership rule "join of K lies in I" makes c
exactly alpha for the maximal structure.
Identities between maps are decided by normal-form equality of
represented morphisms.  The pointwise inequalities and the membership
lemmas are decided per element class: on a chain instance each map they
apply is a `chain.Seq` per segment, and the exceptions plus one tail point
per omega block (two for a law over pairs) decide them for every element;
see `_reps`.

The three pair laws (the two maximal-relation checks and the doubled
membership lemma) are decided on int bitmask rows over the
representatives, which the ideal frame builds for its kind: bit q of
row p says how the pair (p, q) compares.  A law fails at the lowest set
bit b of its first nonzero "bad" row a, and reports the a * n + b + 1
pairs that a row-major scan would have checked by then as `samples`; a
pass reports all of them.

The 16 object laws are the rows (suite, name, decider) of `LAWS`, in
report order, and `check_laws` runs one suite or one law of them.  A
decider takes the instance's RFrameData and returns the outcome (ok,
witness, samples, note) that `reports.law_report` turns into a
LawReport.  It looks the structure maps up as module globals when it
runs, so a map replaced in this module is the one the laws apply.  Deciders climb the two
comonads' towers through the `rr` and `cc` properties, so each ideal
frame is built once and shared by all the laws that hold the same
RFrameData.  The structure maps (sigma, kappa, alpha, r, c, epsilon,
beta) are kept on the RFrameData they are built from, in the same way,
and so is `_adjunction`, the outcomes of the one scan that decides both
laws of the adjoint chain.  `morphism_laws` is the morphism suite, and
`SEARCHES` the exhaustive searches over `finite.search_frames`.
"""

from __future__ import annotations

from .chain import Seq, _check_sorted
from .errors import InvalidParameter, NotComposable, NotStablyCompact
from .finite import search_frames
from .morphisms import (
    ChainMap,
    FiniteMap,
    Morphism,
    _composite,
    _star_table,
    alpha_map,
    block_map,
    compose,
    enumerate_proxhoms,
    identity_map,
    is_proper,
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
    Proximity,
    _collapse_pairs,
    _low,
    certify_finite_collapse,
    describe_instance,
    order_proximity,
)
from .reports import LawReport, law_report
from .roundideal import (
    BelowLim,
    RFrameData,
    dir_sup,
    ideal_frame,
    is_stably_compact,
    kept_on_rframe,
    retag,
    rframe,
)


# -- representatives ----------------------------------------------------------


def _reps(rfd: RFrameData, maps=(), pairs: bool = False) -> list:
    """Elements of rfd's frame on which a law applying `maps` is decided
    exactly, in order: `class_representatives` at depth h + 1 (h + 2 for
    a law over pairs), h the largest `horizon` of the maps: every element
    of a finite frame, and on a chain the first h + 1 (or h + 2) points of
    each omega block and each point segment.

    Every tail of the maps the laws apply (alpha, kappa, sigma, the
    counits and their functor images) is a constant on a point segment or
    n -> El(seg, n).  So past h every compared value moves in lockstep
    with n, and a comparison depends only on the element classes and, for
    two points of one block, on how their indices compare: index h covers
    a pointwise law, and h, h + 1 give i < j, i = j and i > j for pairs.
    Pair-law rows on a chain bisect this list, so its order is checked here.
    """
    h = max((m.horizon() for m in maps), default=0)
    return _check_sorted(rfd.frame.class_representatives(h + 1 + pairs), "representatives")


# -- natural transformation components, as represented morphisms ------------


def retag_map(f: Morphism, new_src: Proximity, new_dst: Proximity) -> Morphism:
    """Same carrier map between re-tagged proximities."""
    if f.src.frame != new_src.frame or f.dst.frame != new_dst.frame:
        raise NotComposable("re-tag must keep both carrier frames")
    if isinstance(f, FiniteMap):
        return FiniteMap._unchecked(new_src, new_dst, f.table)
    return ChainMap._unchecked(new_src, new_dst, f.rules)


@kept_on_rframe
def beta_map(rfd: RFrameData) -> Morphism:
    """Carrier identity from the way-below structure to the maximal one."""
    return retag_map(identity_map(rfd.wb), rfd.wb, rfd.maxp)


@kept_on_rframe
def epsilon_map(rfd: RFrameData) -> Morphism:
    """Counit of the maximal-structure comonad; satisfies epsilon after
    beta = sigma."""
    return retag_map(sigma_map(rfd), rfd.maxp, rfd.base)


@kept_on_rframe
def r_map(rfd: RFrameData) -> Morphism:
    """I -> its way-below ideal of ideals: alpha on the ideal frame."""
    return alpha_map(rfd.rr)


@kept_on_rframe
def c_map(rfd: RFrameData) -> Morphism:
    """Ibar -> {Kbar : join of K in I}: alpha for the maximal structure,
    landing in the ideal frame of the maximal proximity (re-tagged)."""
    return retag_map(alpha_map(rfd.cc), rfd.maxp, rfd.cc.maxp)


def m_map(rfd: RFrameData, jfd: RFrameData) -> Morphism:
    """Inclusion of round ideals into all ideals (carrier-preserving);
    jfd is the frame of all ideals, `ideal_frame(rfd.base.frame)`."""
    return block_map(rfd.wb, jfd.wb,
                     lambda e: jfd.el_of(retag(rfd.ideal_of(e), jfd.base)))


def cmap_of(f: Morphism, src_rfd: RFrameData, dst_rfd: RFrameData) -> Morphism:
    """Functor action of the maximal-structure comonad: the ideal-functor
    action re-tagged on both ends.  src_rfd/dst_rfd are the ideal frames
    of f's source and target."""
    rf = rmap_map(f, src_rfd, dst_rfd)
    return retag_map(rf, src_rfd.maxp, dst_rfd.maxp)


def kleisli_lift(u: Morphism, rfd_L: RFrameData, rfd_M: RFrameData) -> Morphism:
    """The lift Ru . r: R(L) -> R(M) of u: R(L) -> M, which every co-Kleisli
    composite v after u applies before v."""
    if u.src != rfd_L.wb or u.dst != rfd_M.base:
        raise NotComposable("expected u: R(L) -> M")
    return compose(rmap_map(u, rfd_L.rr, rfd_M), r_map(rfd_L))


def kleisli_compose(v: Morphism, u: Morphism,
                    rfd_L: RFrameData, rfd_M: RFrameData) -> Morphism:
    """v after u in the co-Kleisli sense: v . Ru . r."""
    if u.src != rfd_L.wb or v.src != rfd_M.wb or u.dst != rfd_M.base:
        raise NotComposable("expected u: R(L) -> M and v: R(M) -> N")
    return compose(v, kleisli_lift(u, rfd_L, rfd_M))


def coalgebra_structure(rfd: RFrameData) -> Morphism:
    """The canonical coalgebra beta after alpha on a stably compact
    instance, the base of rfd."""
    if not is_stably_compact(rfd.base):
        raise NotStablyCompact("coalgebras exist only over stably compact instances")
    return retag_map(alpha_map(rfd), rfd.base, rfd.maxp)


# -- reports -----------------------------------------------------------------


def _equal(lhs: Morphism, rhs: Morphism) -> tuple:
    """The outcome of the identity lhs = rhs of two maps, decided by
    normal-form equality; a failure names both maps."""
    if lhs == rhs:
        return True, None, 0, "normal-form equality"
    return False, (repr(lhs), repr(rhs)), 0, ""


# -- coalgebras ----------------------------------------------------------------


def coalgebra_laws(rfd: RFrameData) -> list[LawReport]:
    prox = rfd.base
    inst = describe_instance(prox)
    exists = is_stably_compact(prox)
    reports = [law_report("coalgebra.exists", inst, exists,
                       note="" if exists else "instance is not stably compact")]
    if not exists:
        return reports
    struct = coalgebra_structure(rfd)
    return reports + [
        law_report("coalgebra.counit", inst,
                *_equal(compose(epsilon_map(rfd), struct), identity_map(prox))),
        law_report("coalgebra.coassoc", inst,
                *_equal(compose(c_map(rfd), struct),
                        compose(cmap_of(struct, rfd, rfd.cc), struct))),
    ]


def check_coalgebra_morphism(f: Morphism, src_rfd: RFrameData,
                             dst_rfd: RFrameData) -> LawReport:
    """The structure square commutes exactly when f preserves way-below;
    src_rfd and dst_rfd are the ideal frames of f's source and target."""
    inst = _arrow(f)
    witness = None
    if not (is_stably_compact(f.src) and is_stably_compact(f.dst)):
        ok, note = False, "both instances must be stably compact"
    elif not validate_pframemap(f).ok:
        ok, note = False, "map does not preserve the proximities"
    else:
        lhs = compose(rmap_map(f, src_rfd, dst_rfd), alpha_map(src_rfd))
        rhs = compose(alpha_map(dst_rfd), f)
        square, proper = lhs == rhs, is_proper(f)
        ok, witness = square == proper, (repr(lhs), repr(rhs))
        note = f"square={'holds' if square else 'fails'}; proper={proper}"
    return law_report("coalgebra.morphism", inst, ok, witness, note=note)


def _arrow(f: Morphism) -> str:
    """The instance field of a law about f: "source -> target"."""
    return f"{describe_instance(f.src)} -> {describe_instance(f.dst)}"


# -- naturality squares ------------------------------------------------------


def naturality_suite(f: Morphism, rfd_L: RFrameData,
                     rfd_M: RFrameData) -> list[LawReport]:
    """The five squares, each run when f belongs to the right class;
    rfd_L and rfd_M are the ideal frames of f's source and target."""
    inst = _arrow(f)
    rf = rmap_map(f, rfd_L, rfd_M)
    out: list[LawReport] = []

    if validate_proxhom(f).ok:
        jfd_L = ideal_frame(f.src.frame)
        jfd_M = ideal_frame(f.dst.frame)
        jf = rmap_map(retag_map(f, jfd_L.base, jfd_M.base), jfd_L, jfd_M)
        out.append(law_report("nat.m", inst, *_equal(
            compose(jf, m_map(rfd_L, jfd_L)),
            compose(m_map(rfd_M, jfd_M), rf))))

    if validate_pframemap(f).ok:
        cf = retag_map(rf, rfd_L.maxp, rfd_M.maxp)
        ccf = cmap_of(cf, rfd_L.cc, rfd_M.cc)
        for name, lhs, rhs in (
                ("nat.sigma", compose(f, sigma_map(rfd_L)), compose(sigma_map(rfd_M), rf)),
                ("nat.r", compose(rmap_map(rf, rfd_L.rr, rfd_M.rr), r_map(rfd_L)),
                 compose(r_map(rfd_M), rf)),
                ("nat.beta", compose(cf, beta_map(rfd_L)), compose(beta_map(rfd_M), rf)),
                ("nat.c", compose(ccf, c_map(rfd_L)), compose(c_map(rfd_M), cf))):
            out.append(law_report(name, inst, *_equal(lhs, rhs)))
        # the functor image respects the maximal structure
        out.append(law_report("nat.maxrel-preserved", inst, validate_pframemap(cf).ok))
    return out


# -- the object laws -----------------------------------------------------------


def _sub_comult(rfd: RFrameData) -> tuple:
    """The way-below comonad includes into the maximal one: the
    comultiplications match through doubled beta after r."""
    beta = beta_map(rfd)
    lhs = compose(c_map(rfd), beta)
    rbeta = rmap_map(beta, rfd.rr, rfd.cc)
    return _equal(lhs, compose(retag_map(rbeta, rbeta.src, rfd.cc.maxp), r_map(rfd)))


def _nonprincipal_comult(rfd: RFrameData) -> tuple:
    """At a limit of the ideal frame, the comultiplication value is the
    non-principal directed union of the principal classes below it.  An
    ideal frame without limits has no omega block, as its base has none,
    so the instance is finite."""
    maxp, ccfd, c = rfd.maxp, rfd.cc, c_map(rfd)
    limits = rfd.frame.limits()
    if not limits:
        return True, None, 0, "no limit classes on a finite instance"
    for samples, b in enumerate(limits, 1):
        got = ccfd.ideal_of(c.apply(b))
        expected = BelowLim(maxp, b)
        if got != expected:
            return False, (repr(got), repr(expected)), samples, ""
        # the same ideal as an explicit directed union of principals
        union = dir_sup(maxp, Seq.affine(b.seg - 1, 1, 0))
        if union != expected:
            return False, (repr(union), repr(expected)), samples, ""
    return True, None, len(limits), ""


def _kz(rfd: RFrameData) -> tuple:
    """Lax idempotence: the counit at the doubled instance sits below the
    functor image of the counit, pointwise."""
    ccfd = rfd.cc
    eps_CL, ceps = epsilon_map(ccfd), cmap_of(epsilon_map(rfd), ccfd, rfd)
    reps = _reps(ccfd, (eps_CL, ceps))
    for samples, x in enumerate(reps, 1):
        if not rfd.frame.leq(eps_CL.apply(x), ceps.apply(x)):
            return False, (repr(x),), samples, ""
    return True, None, len(reps), ""


@kept_on_rframe
def _adjunction(rfd: RFrameData) -> tuple:
    """The outcomes of the two adjunctions of the chain c -| eps -| beta
    kappa, pointwise, from one scan that builds c, the doubled counit,
    beta after the doubled kappa and the representatives of both frames
    once.  Each fails at its last failing element, and both count every
    check of the scan."""
    ccfd = rfd.cc
    c, eps_CL = c_map(rfd), epsilon_map(ccfd)
    bk = retag_map(kappa_map(ccfd), rfd.maxp, ccfd.maxp)
    leq_C, leq_CC = rfd.frame.leq, ccfd.frame.leq
    reps_C, reps_CC = _reps(rfd, (c, eps_CL, bk)), _reps(ccfd, (c, eps_CL, bk))
    w1 = w2 = None
    for x in reps_C:
        # unit/counit of c -| eps: x <= eps(c(x)) (equality) and c(eps(y)) <= y
        if not leq_C(x, eps_CL.apply(c.apply(x))):
            w1 = (repr(x),)
    for y in reps_CC:
        if not leq_CC(c.apply(eps_CL.apply(y)), y):
            w1 = (repr(y),)
        # eps -| beta kappa: y <= bk(eps(y))
        if not leq_CC(y, bk.apply(eps_CL.apply(y))):
            w2 = (repr(y),)
    for x in reps_C:
        if not leq_C(eps_CL.apply(bk.apply(x)), x):
            w2 = (repr(x),)
    samples = 2 * len(reps_C) + len(reps_CC)
    return (w1 is None, w1, samples, ""), (w2 is None, w2, samples, "")


def _doubled_membership(rfd: RFrameData) -> tuple:
    """For a doubled ideal J: the counit of the counit lands in I exactly
    when some intermediate class dominates eps(J) and lands in I."""
    maxp, ccfd = rfd.maxp, rfd.cc
    eps_CL = epsilon_map(ccfd)
    # The existential over kbar runs over reps_C only, and loses nothing.
    # If the join of ej lies in I, a witness is ej itself when ej is
    # reflexive for maxp; otherwise ej is a non-reflexive limit below the
    # top, and its successor works: it is the first point of the next
    # segment, and its join is the successor of a non-reflexive member of
    # I, which I contains because it is round.  eps_CL has no exceptions
    # and sends index n of a block to index n, so ej of a representative
    # is a representative, and so is the first point of a segment.  The
    # converse needs no witness: ej maxp-below kbar puts the join of ej
    # under that of kbar.
    reps_C = _reps(rfd, (eps_CL,), pairs=True)
    reps_CC = _reps(ccfd, (eps_CL,), pairs=True)
    ideals = [rfd.ideal_of(i) for i in reps_C]
    joins = rfd.joins_on(reps_C)
    ejs = [eps_CL.apply(j) for j in reps_CC]  # elements of the ideal frame
    # row u over the ibar: does the join of ej lie in I?
    lhs = rfd.holder_rows([rfd.join_of(ej) for ej in ejs], ideals, joins)
    # landing[k]: the ibar whose I holds the join of kbar; above[u]: the
    # kbar that ej is maxp-below.  The right side of row u is the union
    # of landing[k] over the k in above[u].
    landing = rfd.holder_rows(joins, ideals, joins)
    rhs = rfd.union_over(landing, maxp.rows_on(ejs, reps_C))
    bad = [x ^ y for x, y in zip(lhs, rhs)]
    return _first_bad(bad, len(reps_C),
                      lambda u, t: (repr(reps_CC[u]), repr(ideals[t])))


def _maxrel_agreement(rfd: RFrameData) -> tuple:
    """The two definitions of the maximal proximity agree: relating the
    joins is the same as being way below the approximant ideal of the
    other join."""
    reps = _reps(rfd, (sigma_map(rfd), kappa_map(rfd)), pairs=True)
    ideals = [rfd.ideal_of(r) for r in reps]
    tops = rfd.joins_on(reps)
    sub = rfd.inclusion_rows(reps, ideals)
    rel = rfd.base.rows_on(tops, tops)
    by_joins = [s & r for s, r in zip(sub, rel)]
    by_wb = [s & r for s, r in zip(sub, rfd.way_below_kappa_rows(ideals, tops, rel))]
    tagged = rfd.maxp.rows_on(reps, reps)
    bad = [(j ^ t) | (w ^ t) for j, w, t in zip(by_joins, by_wb, tagged)]
    return _first_bad(bad, len(reps), lambda a, b: (repr(ideals[a]), repr(ideals[b])))


def _maxrel_contains_wb(rfd: RFrameData) -> tuple:
    """Way-below implies the maximal relation on every pair of ideals."""
    reps = _reps(rfd, pairs=True)
    bad = [w & ~m for w, m in zip(rfd.wb.rows_on(reps, reps),
                                  rfd.maxp.rows_on(reps, reps))]
    return _first_bad(bad, len(reps), lambda a, b: (repr(reps[a]), repr(reps[b])))


def _first_bad(bad: list[int], n: int, witness) -> tuple:
    """Pass, or fail at the first set bit of the rows `bad` in row-major
    order: bit b of row a marks a failing pair, witness(a, b) names it,
    and a pair scan over a, then b, would have stopped there after
    a * n + b + 1 checks."""
    for a, row in enumerate(bad):
        if row:
            b = _low(row)
            return False, witness(a, b), a * n + b + 1, ""
    return True, None, len(bad) * n, ""


# (suite, name, decider) of each object law, in report order; README's
# "Laws" lists them in the paper's terms
LAWS = (
    ("R", "R.counit.left",
     lambda rfd: _equal(compose(sigma_map(rfd.rr), r_map(rfd)), identity_map(rfd.wb))),
    ("R", "R.counit.right",
     lambda rfd: _equal(compose(rmap_map(sigma_map(rfd), rfd.rr, rfd), r_map(rfd)),
                        identity_map(rfd.wb))),
    ("R", "R.coassoc",
     lambda rfd: _equal(compose(r_map(rfd.rr), r_map(rfd)),
                        compose(rmap_map(r_map(rfd), rfd.rr, rfd.rr.rr), r_map(rfd)))),
    ("R", "R.idempotent",
     lambda rfd: _equal(compose(r_map(rfd), sigma_map(rfd.rr)), identity_map(rfd.rr.wb))),
    ("R", "sub.comult", _sub_comult),
    ("R", "sub.counit",
     lambda rfd: _equal(compose(epsilon_map(rfd), beta_map(rfd)), sigma_map(rfd))),
    ("C", "C.counit.left",
     lambda rfd: _equal(compose(epsilon_map(rfd.cc), c_map(rfd)), identity_map(rfd.maxp))),
    ("C", "C.counit.right",
     lambda rfd: _equal(compose(cmap_of(epsilon_map(rfd), rfd.cc, rfd), c_map(rfd)),
                        identity_map(rfd.maxp))),
    ("C", "C.coassoc",
     lambda rfd: _equal(compose(c_map(rfd.cc), c_map(rfd)),
                        compose(cmap_of(c_map(rfd), rfd.cc, rfd.cc.cc), c_map(rfd)))),
    ("C", "C.comult.nonprincipal", _nonprincipal_comult),
    ("C", "C.kz", _kz),
    ("C", "adj.c-eps", lambda rfd: _adjunction(rfd)[0]),
    ("C", "adj.eps-betakappa", lambda rfd: _adjunction(rfd)[1]),
    ("C", "C.doubled-membership", _doubled_membership),
    ("C", "maxrel.agreement", _maxrel_agreement),
    ("C", "maxrel.contains-wb", _maxrel_contains_wb),
)
SUITES = tuple(dict.fromkeys(suite for suite, _, _ in LAWS))


def check_laws(rfd: RFrameData, select: str) -> list[LawReport]:
    """The reports of the object laws that `select` names, a suite of
    `SUITES` or one law, on the instance whose ideal frame is rfd, in
    table order."""
    rows = [(name, decide) for suite, name, decide in LAWS if select in (suite, name)]
    if not rows:
        raise InvalidParameter(f"no object law or suite is named {select!r}")
    inst = describe_instance(rfd.base)
    return [law_report(name, inst, *decide(rfd)) for name, decide in rows]


# -- the morphism suite --------------------------------------------------------


def morphism_laws(morphs: dict, insts: dict, rfd_of) -> list[LawReport]:
    """The morphism suite over the maps of `morphs` out of the instances
    `insts`, by name; rfd_of(p) is the ideal frame of the proximity p."""
    out: list[LawReport] = []
    morphs = {k: v for k, v in morphs.items() if any(v.src == p for p in insts.values())}
    # per valid morphism f: theta(f), its co-Kleisli lift R(theta f) . r,
    # and whether f is a frame map, each built once for every pair below
    thetas, lifts, frame_maps = {}, {}, {}
    for name, f in morphs.items():
        inst = f"morphism:{name}"
        if not validate_proxhom(f).ok:
            out.append(law_report("morphism.valid", inst, False))
            continue
        rfd = rfd_of(f.src)
        th = theta(f, rfd)
        ok = validate_pframemap(th).ok and rho(th, rfd) == f
        out.append(law_report("theta-rho.roundtrip", inst, ok))
        dst_rfd = rfd_of(f.dst)
        decomp = compose(sigma_map(dst_rfd), compose(rmap_map(f, rfd, dst_rfd), kappa_map(rfd)))
        out.append(law_report("decomposition", inst, decomp == f))
        thetas[name] = th
        lifts[name] = kleisli_lift(th, rfd, dst_rfd)
        frame_maps[name] = validate_pframemap(f).ok
    # exhaustive theta/rho on small finite instances
    small = {k: v for k, v in insts.items()
             if isinstance(v, FiniteProximity) and v.frame.n <= SEARCH_PAIR_LIMIT}
    for ns, ps in small.items():
        for nd, pd in small.items():
            count, failures = _theta_rho_counts(ps, pd, rfd_of(ps))
            out.append(law_report("theta-rho.exhaustive", f"{ns}->{nd}", not failures,
                                  samples=count, note=f"{failures} failures" if failures else ""))
    # star-composition laws across composable pairs: theta(g * f) is
    # theta(g) after the lift of theta(f)
    for n1, f in morphs.items():
        for n2, g in morphs.items():
            if f.dst != g.src:
                continue
            inst = f"{n2}*{n1}"
            invalid = [n for n in dict.fromkeys((n1, n2)) if n not in thetas]
            if invalid:
                ok, note = False, "invalid factor: " + ", ".join(invalid)
            else:
                sc = star_compose(g, f)
                ok, note = validate_proxhom(sc).ok, ""
                if frame_maps[n2]:
                    ok = ok and sc == compose(g, f)
                ok = ok and theta(sc, rfd_of(f.src)) == compose(thetas[n2], lifts[n1])
            out.append(law_report("kleisli.functor", inst, ok, note=note))
    return out


def _theta_rho_counts(ps, pd, rfd) -> tuple[int, int]:
    """The proximity homomorphisms ps -> pd, counted, and how many of them
    rho(theta(f)) does not give back; rfd is the ideal frame of ps."""
    homs = enumerate_proxhoms(ps, pd)
    return len(homs), sum(rho(theta(f, rfd), rfd) != f for f in homs)


# -- the exhaustive searches ---------------------------------------------------

# theta/rho is enumerated on pairs of frames of at most SEARCH_PAIR_LIMIT
# elements.  star-vs-compose pairs each homomorphism with each endomorphism
# of its target: 0.14, 0.22 and 1.6 s of process time, start-up included,
# on one Xeon core at limits 5, 6 and 7.
SEARCH_PAIR_LIMIT = 4


def _collapse_search(max_size: int):
    """The collapse certificate of each search frame, once the budget has
    passed every frame, so that it refuses a search before any record."""
    frames = search_frames(max_size)
    for _, frame in frames:
        _collapse_pairs(frame)
    for name, frame in frames:
        report = certify_finite_collapse(frame)
        yield dict(report.to_json(), frame=name), not report.ok


def _pair_frames(max_size: int):
    """Yield a skip record for each search frame over SEARCH_PAIR_LIMIT
    elements; return the others, by name, with their order proximities."""
    small = []
    for name, frame in search_frames(max_size):
        if frame.n > SEARCH_PAIR_LIMIT:
            yield {"frame": name, "skipped": f"over {SEARCH_PAIR_LIMIT} elements"}, False
        else:
            small.append((name, order_proximity(frame)))
    return small


def _theta_rho_search(max_size: int):
    """rho(theta(f)) against f on each ordered pair of small frames."""
    small = yield from _pair_frames(max_size)
    for ns, ps in small:
        rfd = rframe(ps)
        for nd, pd in small:
            count, bad = _theta_rho_counts(ps, pd, rfd)
            yield {"pair": f"{ns}->{nd}", "homs": count, "failures": bad}, bad > 0


def _star_vs_compose_search(max_size: int):
    """g * f against g . f, by their tables, for each homomorphism f between
    small frames and each endomorphism g of its target.  On finite frames
    the order is the only proximity, so they always agree; the genuine
    witness needs the two-block chain instance."""
    small = yield from _pair_frames(max_size)
    homs = {(ns, nd): enumerate_proxhoms(ps, pd) for ns, ps in small for nd, pd in small}
    found = False
    for (_, nd), fs in homs.items():
        for f in fs:
            for g in homs[nd, nd]:
                composite = _composite(g, f)
                if _star_table(g, f, composite) != composite:
                    found = True
                    yield {"witness": [repr(f), repr(g)]}, True
    if not found:
        yield {"result": "no finite witness",
               "note": "finite proximities collapse to the order, making every "
                       "homomorphism join-preserving; see the chain-k2 catalog "
                       "morphisms k2-f, k2-g for the infinite witness"}, False


# each search by its --law name: a generator of (record, failed) over the
# search frames of at most max_size elements, yielding each record found
SEARCHES = {"collapse": _collapse_search, "theta-rho": _theta_rho_search,
            "star-vs-compose": _star_vs_compose_search}
