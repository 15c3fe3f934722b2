"""The two comonads on proximity frames and their law harness.

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

Every law takes the instance's RFrameData and climbs the two comonads'
towers through its `rr` and `cc` properties, so each ideal frame is built
once and shared by all the laws that hold the same RFrameData.  The
structure maps (sigma, kappa, alpha, r, c, epsilon, beta) are kept on the
RFrameData they are built from, in the same way.
"""

from __future__ import annotations

from .chain import Seq, _check_sorted
from .errors import NotComposable, NotStablyCompact
from .morphisms import (
    ChainMap,
    FiniteMap,
    Morphism,
    alpha_map,
    block_map,
    compose,
    identity_map,
    is_proper,
    kappa_map,
    rmap_map,
    sigma_map,
    validate_pframemap,
    validate_proxhom,
)
from .proximity import FiniteProximity, Proximity, _low
from .reports import LawReport, law_fail, law_pass
from .roundideal import (
    BelowLim,
    RFrameData,
    dir_sup,
    ideal_frame,
    is_stably_compact,
    kept_on_rframe,
    retag,
)


def describe_instance(prox: Proximity) -> str:
    if isinstance(prox, FiniteProximity):
        return "finite:" + ",".join(prox.frame.names)
    segs = ",".join(s.label for s in prox.frame.segments)
    refl = sorted(prox.frame.label(e) for e in prox.reflexive_limits)
    return f"chain:[{segs}],R=[{','.join(refl)}]"


# -- the maximal proximity --------------------------------------------------


def max_proximity_agreement(rfd: RFrameData) -> LawReport:
    """The two definitions of the maximal proximity agree: relating the
    joins is the same as being way below the approximant ideal of the
    other join."""
    base = rfd.base
    reps = _reps(rfd, (sigma_map(rfd), kappa_map(rfd)), pairs=True)
    ideals = [rfd.ideal_of(r) for r in reps]
    tops = rfd.joins_on(reps)
    sub = rfd.inclusion_rows(reps, ideals)
    rel = base.rows_on(tops, tops)
    by_joins = [s & r for s, r in zip(sub, rel)]
    by_wb = [s & r for s, r in zip(sub, rfd.way_below_kappa_rows(ideals, tops, rel))]
    tagged = rfd.maxp.rows_on(reps, reps)
    bad = [(j ^ t) | (w ^ t) for j, w, t in zip(by_joins, by_wb, tagged)]
    return _pair_law("maxrel.agreement", describe_instance(base), bad, len(reps),
                     lambda a, b: (repr(ideals[a]), repr(ideals[b])))


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


# -- law harness -------------------------------------------------------------


def _law(name: str, instance: str, ok: bool, witness=None, samples=0) -> LawReport:
    if ok:
        return law_pass(name, instance, samples=samples)
    return law_fail(name, instance, witness=witness, samples=samples)


def _map_eq_law(name, instance, lhs, rhs) -> LawReport:
    if lhs == rhs:
        return law_pass(name, instance, note="normal-form equality")
    return law_fail(name, instance, witness=(repr(lhs), repr(rhs)))


def comonad_laws(which: str, rfd: RFrameData) -> list[LawReport]:
    """Counit and comultiplication laws, by exact morphism equality."""
    inst = describe_instance(rfd.base)
    if which == "R":
        rrfd = rfd.rr
        r = r_map(rfd)
        ide = identity_map(rfd.wb)
        return [
            _map_eq_law("R.counit.left", inst,
                        compose(sigma_map(rrfd), r), ide),
            _map_eq_law("R.counit.right", inst,
                        compose(rmap_map(sigma_map(rfd), rrfd, rfd), r), ide),
            _map_eq_law("R.coassoc", inst,
                        compose(r_map(rrfd), r),
                        compose(rmap_map(r, rrfd, rrfd.rr), r)),
            _map_eq_law("R.idempotent", inst,
                        compose(r, sigma_map(rrfd)), identity_map(rrfd.wb)),
        ]
    if which == "C":
        ccfd = rfd.cc
        c = c_map(rfd)
        ide = identity_map(rfd.maxp)
        return [
            _map_eq_law("C.counit.left", inst,
                        compose(epsilon_map(ccfd), c), ide),
            _map_eq_law("C.counit.right", inst,
                        compose(cmap_of(epsilon_map(rfd), ccfd, rfd), c), ide),
            _map_eq_law("C.coassoc", inst,
                        compose(c_map(ccfd), c),
                        compose(cmap_of(c, ccfd, ccfd.cc), c)),
            _nonprincipal_comult(rfd, c),
        ]
    raise NotComposable(f"unknown comonad selector {which!r}")


def _nonprincipal_comult(rfd: RFrameData, c: Morphism) -> LawReport:
    """At a limit of the ideal frame, the comultiplication value is the
    non-principal directed union of the principal classes below it.  An
    ideal frame without limits has no omega block, as its base has none,
    so the instance is finite."""
    maxp, ccfd = rfd.maxp, rfd.cc
    inst = describe_instance(rfd.base)
    limits = rfd.frame.limits()
    if not limits:
        return law_pass("C.comult.nonprincipal", inst,
                        note="no limit classes on a finite instance")
    for samples, b in enumerate(limits, 1):
        got = ccfd.ideal_of(c.apply(b))
        expected = BelowLim(maxp, b)
        if got != expected:
            return law_fail("C.comult.nonprincipal", inst,
                            witness=(repr(got), repr(expected)), samples=samples)
        # the same ideal as an explicit directed union of principals
        union = dir_sup(maxp, Seq.affine(b.seg - 1, 1, 0))
        if union != expected:
            return law_fail("C.comult.nonprincipal", inst,
                            witness=(repr(union), repr(expected)), samples=samples)
    return law_pass("C.comult.nonprincipal", inst, samples=len(limits))


def coalgebra_laws(rfd: RFrameData) -> list[LawReport]:
    prox = rfd.base
    inst = describe_instance(prox)
    if not is_stably_compact(prox):
        return [law_fail("coalgebra.exists", inst,
                         note="instance is not stably compact")]
    struct = coalgebra_structure(rfd)
    return [
        law_pass("coalgebra.exists", inst),
        _map_eq_law("coalgebra.counit", inst,
                    compose(epsilon_map(rfd), struct), identity_map(prox)),
        _map_eq_law("coalgebra.coassoc", inst,
                    compose(c_map(rfd), struct),
                    compose(cmap_of(struct, rfd, rfd.cc), struct)),
    ]


def check_coalgebra_morphism(f: Morphism, src_rfd: RFrameData,
                             dst_rfd: RFrameData) -> LawReport:
    """The structure square commutes exactly when f preserves way-below;
    src_rfd and dst_rfd are the ideal frames of f's source and target."""
    inst = f"{describe_instance(f.src)} -> {describe_instance(f.dst)}"
    if not (is_stably_compact(f.src) and is_stably_compact(f.dst)):
        return law_fail("coalgebra.morphism", inst,
                        note="both instances must be stably compact")
    if not validate_pframemap(f).ok:
        return law_fail("coalgebra.morphism", inst,
                        note="map does not preserve the proximities")
    lhs = compose(rmap_map(f, src_rfd, dst_rfd), alpha_map(src_rfd))
    rhs = compose(alpha_map(dst_rfd), f)
    square = lhs == rhs
    proper = is_proper(f)
    note = f"square={'holds' if square else 'fails'}; proper={proper}"
    if square == proper:
        return law_pass("coalgebra.morphism", inst, note=note)
    return law_fail("coalgebra.morphism", inst,
                    witness=(repr(lhs), repr(rhs)), note=note)


def kz_check(rfd: RFrameData) -> LawReport:
    """Lax-idempotence inequality: the counit at the doubled instance sits
    below the functor image of the counit, pointwise."""
    inst = describe_instance(rfd.base)
    ccfd = rfd.cc
    eps_CL = epsilon_map(ccfd)
    ceps = cmap_of(epsilon_map(rfd), ccfd, rfd)
    leq = rfd.frame.leq
    samples = 0
    for x in _reps(ccfd, (eps_CL, ceps)):
        samples += 1
        if not leq(eps_CL.apply(x), ceps.apply(x)):
            return law_fail("C.kz", inst, witness=(repr(x),), samples=samples)
    return law_pass("C.kz", inst, samples=samples)


def subcomonad_check(rfd: RFrameData) -> list[LawReport]:
    """The way-below comonad includes into the maximal one: the counits
    agree through beta and the comultiplications match through doubled
    beta after r."""
    inst = describe_instance(rfd.base)
    beta = beta_map(rfd)
    lhs = compose(c_map(rfd), beta)
    rbeta = rmap_map(beta, rfd.rr, rfd.cc)
    rhs = compose(retag_map(rbeta, rbeta.src, rfd.cc.maxp), r_map(rfd))
    return [
        _map_eq_law("sub.comult", inst, lhs, rhs),
        _map_eq_law("sub.counit", inst,
                    compose(epsilon_map(rfd), beta), sigma_map(rfd)),
    ]


# -- naturality squares ------------------------------------------------------


def naturality_suite(f: Morphism, rfd_L: RFrameData,
                     rfd_M: RFrameData) -> list[LawReport]:
    """The five squares, each run when f belongs to the right class;
    rfd_L and rfd_M are the ideal frames of f's source and target."""
    inst = f"{describe_instance(f.src)} -> {describe_instance(f.dst)}"
    rf = rmap_map(f, rfd_L, rfd_M)
    out: list[LawReport] = []

    if validate_proxhom(f).ok:
        jfd_L = ideal_frame(f.src.frame)
        jfd_M = ideal_frame(f.dst.frame)
        jf = rmap_map(retag_map(f, jfd_L.base, jfd_M.base), jfd_L, jfd_M)
        out.append(_map_eq_law(
            "nat.m", inst,
            compose(jf, m_map(rfd_L, jfd_L)),
            compose(m_map(rfd_M, jfd_M), rf)))

    if validate_pframemap(f).ok:
        out.append(_map_eq_law(
            "nat.sigma", inst,
            compose(f, sigma_map(rfd_L)),
            compose(sigma_map(rfd_M), rf)))
        out.append(_map_eq_law(
            "nat.r", inst,
            compose(rmap_map(rf, rfd_L.rr, rfd_M.rr), r_map(rfd_L)),
            compose(r_map(rfd_M), rf)))
        cf = retag_map(rf, rfd_L.maxp, rfd_M.maxp)
        out.append(_map_eq_law(
            "nat.beta", inst,
            compose(cf, beta_map(rfd_L)),
            compose(beta_map(rfd_M), rf)))
        ccf = cmap_of(cf, rfd_L.cc, rfd_M.cc)
        out.append(_map_eq_law(
            "nat.c", inst,
            compose(ccf, c_map(rfd_L)),
            compose(c_map(rfd_M), cf)))
        # the functor image respects the maximal structure
        out.append(_law(
            "nat.maxrel-preserved", inst,
            validate_pframemap(cf).ok))
    return out


# -- adjunction and membership lemmas ----------------------------------------


def adjunction_checks(rfd: RFrameData) -> list[LawReport]:
    """Pointwise inequalities for the adjoint chain: comultiplication,
    the doubled counit, and beta-after-kappa."""
    inst = describe_instance(rfd.base)
    ccfd = rfd.cc
    c = c_map(rfd)
    eps_CL = epsilon_map(ccfd)
    bk = retag_map(kappa_map(ccfd), rfd.maxp, ccfd.maxp)
    frame_C = rfd.frame
    frame_CC = ccfd.frame
    reps_C = _reps(rfd, (c, eps_CL, bk))
    reps_CC = _reps(ccfd, (c, eps_CL, bk))
    samples = 0
    ok1 = ok2 = True
    w1 = w2 = None
    for x in reps_C:
        samples += 1
        # unit/counit of c -| eps: x <= eps(c(x)) (equality) and c(eps(y)) <= y
        if not frame_C.leq(x, eps_CL.apply(c.apply(x))):
            ok1, w1 = False, (repr(x),)
    for y in reps_CC:
        samples += 1
        if not frame_CC.leq(c.apply(eps_CL.apply(y)), y):
            ok1, w1 = False, (repr(y),)
        # eps -| beta kappa: y <= bk(eps(y))
        if not frame_CC.leq(y, bk.apply(eps_CL.apply(y))):
            ok2, w2 = False, (repr(y),)
    for x in reps_C:
        samples += 1
        if not frame_C.leq(eps_CL.apply(bk.apply(x)), x):
            ok2, w2 = False, (repr(x),)
    return [_law("adj.c-eps", inst, ok1, witness=w1, samples=samples),
            _law("adj.eps-betakappa", inst, ok2, witness=w2, samples=samples)]


def doubled_membership_lemma(rfd: RFrameData) -> LawReport:
    """For a doubled ideal J: the counit of the counit lands in I exactly
    when some intermediate class dominates eps(J) and lands in I."""
    inst = describe_instance(rfd.base)
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
    return _pair_law("C.doubled-membership", inst, bad, len(reps_C),
                     lambda u, t: (repr(reps_CC[u]), repr(ideals[t])))


def maxrel_contains_wb(rfd: RFrameData) -> LawReport:
    """Way-below implies the maximal relation on every pair of ideals."""
    reps = _reps(rfd, pairs=True)
    bad = [w & ~m for w, m in zip(rfd.wb.rows_on(reps, reps),
                                  rfd.maxp.rows_on(reps, reps))]
    return _pair_law("maxrel.contains-wb", describe_instance(rfd.base), bad,
                     len(reps), lambda a, b: (repr(reps[a]), repr(reps[b])))


# -- rows over representatives -------------------------------------------------


def _pair_law(name: str, instance: str, bad: list[int], n: int,
              witness) -> LawReport:
    """Pass, or fail at the first set bit of the rows `bad` in row-major
    order: bit b of row a marks a failing pair, witness(a, b) names it,
    and a pair scan over a, then b, would have stopped there after
    a * n + b + 1 checks."""
    for a, row in enumerate(bad):
        if row:
            b = _low(row)
            return law_fail(name, instance, witness=witness(a, b),
                            samples=a * n + b + 1)
    return law_pass(name, instance, samples=len(bad) * n)
