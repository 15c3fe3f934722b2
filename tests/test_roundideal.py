import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from proxkit.catalog import catalog_instances, catalog_morphisms, load_instance
from proxkit.chain import El, Seq, build_chain_frame, lim, succ
from proxkit.errors import (
    InvalidParameter,
    NotDirected,
    NotStablyCompact,
    TooLarge,
    UnsupportedRepresentation,
)
from proxkit.finite import downset_frame
from proxkit import roundideal
from proxkit.morphisms import alpha_map, rmap_map
from proxkit.proximity import FiniteProximity, _approximation, chain_proximity, order_proximity
from proxkit.reports import FAIL, PASS, Verdict
from proxkit.roundideal import (
    BelowLim,
    Prin,
    dir_sup,
    ideal_frame,
    is_stably_compact,
    kappa,
    member,
    retag,
    rframe,
    sigma,
    subideal,
    way_below_ideals,
)


def k2(reflexive=(2,)):
    f = build_chain_frame(2)
    return chain_proximity(f, set(reflexive))


# -- the finite case against the reference -------------------------------------


def test_finite_rframe_matches_brute_enumeration():
    for name in ("two", "chain3", "diamond", "cube3"):
        _, prox = load_instance(name)
        rfd = rframe(prox)
        assert sorted(map(_members, rfd.ideals)) == sorted(ref.ideal_frame(prox)[1]), name


def _members(ideal):
    """The mask of the b that `member` puts in a round ideal of a finite frame."""
    return sum(1 << b for b in ideal.prox.frame.elements() if member(b, ideal))


def _rframe_tables(prox, rfd=None):
    """The frame of rframe(prox) and the member mask of each element's
    ideal; its way-below relation is the frame's order, every ideal being
    compact."""
    rfd = rfd or rframe(prox)
    assert rfd.base is prox and rfd.wb == FiniteProximity(rfd.frame, rfd.frame.up)
    return rfd.frame, tuple(map(_members, rfd.ideals))


GENERATED = dict(ref.chains(range(1, 13), "order") + ref.cubes((1, 2, 3)) + [ref.vee()])
ORACLE_FRAMES = GENERATED | {k: v.frame for k, v in catalog_instances().items()
                             if isinstance(v, FiniteProximity)} | {
    "poset": downset_frame(list("pqrs"), [("p", "q"), ("p", "r")]),
    "flip": ref.diamond("a", "a!")}


@pytest.mark.parametrize("name,frame", ORACLE_FRAMES.items(), ids=list(ORACLE_FRAMES))
def test_finite_rframe_matches_full_mask_scan(name, frame):
    # the order against the reference; the empty relation and random
    # sub-relations of leq are no proximity unless they are the order, by
    # the finite collapse theorem, and rframe refuses them at once
    rng = random.Random(name)
    proxes = [order_proximity(frame), FiniteProximity(frame, (0,) * frame.n)]
    for _ in range(3 if frame.n <= 8 else 1):
        proxes.append(ref.sub_relation(frame, rng, keep=0.7))
    for prox in proxes:
        if prox.is_order:
            assert _rframe_tables(prox) == ref.ideal_frame(prox), name
        else:
            with pytest.raises(UnsupportedRepresentation, match="finite collapse theorem"):
                rframe(prox)


def test_renamed_tower_matches_full_mask_scan(monkeypatch):
    # every level of the tower over an order is the base frame renamed,
    # unless the renaming flips a tie of the canonical order; then the
    # frame is built from the masks, as the reference builds it
    built = []
    ring_of_sets = roundideal._ring_of_sets

    def recording(names, masks):
        built.append(names)
        return ring_of_sets(names, masks)

    monkeypatch.setattr(roundideal, "_ring_of_sets", recording)
    frames = GENERATED | {"flip": ref.diamond("a", "a!")}
    rebuilt = {}
    for name, frame in frames.items():
        built.clear()
        prox = order_proximity(frame)
        for _ in range(3):
            rfd = rframe(prox)
            assert _rframe_tables(prox, rfd) == ref.ideal_frame(prox), (name, prox.frame.names)
            prox = rfd.wb
        rebuilt[name] = len(built)
    # the flipping diamond falls back once, at its first level; its ideal
    # frame names dn(a!) first and renames safely from then on
    assert rebuilt == dict.fromkeys(frames, 0) | {"flip": 1}
    assert rframe(order_proximity(frames["flip"])).frame.names[1:3] == ("dn(a!)", "dn(a)")
    # a renamed frame keeps the tables its base has built
    base = ref.diamond()
    tables = base.meet_t, base.join_t
    renamed = rframe(order_proximity(base)).frame
    assert renamed.meet_t is tables[0] and renamed.join_t is tables[1]


def test_finite_towers_are_the_order_at_every_level():
    # the collapse theorem at work: on the downset lattice of each poset
    # with at most 4 points that the size cap lets through (all but the
    # 16-element cube4), the way-below and maximal proximities of each
    # level of both towers are the order, and each level's ideals are the
    # principal downsets of its base, each once
    lattices = [f for f in ref.downset_lattices(4) if f.n <= 14]
    assert len(lattices) == 24
    for frame in lattices:
        rfd = rframe(order_proximity(frame))
        for level in (rfd, rfd.rr, rfd.rr.rr, rfd.cc, rfd.cc.cc):
            assert level.wb.is_order and level.maxp.is_order, frame
            down = level.base.frame.down
            assert sorted(level.joins) == list(level.base.frame.elements()), frame
            assert list(map(_members, level.ideals)) == [down[j] for j in level.joins], frame


def test_finite_maxp_is_wb_and_both_definitions_agree_with_it():
    # the collapse theorem as a shortcut: on every level of the finite
    # towers of the finite catalog and of the downset lattices the size
    # cap lets through, maxp is wb itself and cc is rr, and the
    # reference's pair scan finds both definitions of the maximal
    # proximity equal to it
    protos = [p for p in catalog_instances().values() if isinstance(p, FiniteProximity)]
    protos += [order_proximity(f) for f in ref.downset_lattices(4) if f.n <= 14]
    levels = 0
    for prox in protos:
        rfd = rframe(prox)
        for level in (rfd, rfd.rr, rfd.cc, rfd.rr.rr, rfd.cc.cc):
            assert level.maxp is level.wb and level.cc is level.rr, prox.frame
            assert list(ref.maxrel_agreement(level)) == [], prox.frame
            levels += 1
    assert levels == 5 * (4 + 24)


def test_ideal_frame_of_diamond_is_diamond_again():
    prox = order_proximity(ref.diamond())
    rfd = ideal_frame(prox.frame)
    assert rfd.frame.n == 4
    # sigma is an order isomorphism onto the original frame
    f = prox.frame
    sig = {e: sigma(rfd.ideal_of(e)) for e in rfd.frame.elements()}
    assert sorted(sig.values()) == sorted(f.elements())
    for x in rfd.frame.elements():
        for y in rfd.frame.elements():
            assert rfd.frame.leq(x, y) == f.leq(sig[x], sig[y])


def test_finite_enum_size_cap():
    cube4 = downset_frame(list("wxyz"), [])
    with pytest.raises(TooLarge):
        rframe(order_proximity(cube4))
    # the collapse gate comes first: any other relation is refused as such
    with pytest.raises(UnsupportedRepresentation, match="finite collapse theorem"):
        rframe(FiniteProximity(cube4, (0,) * cube4.n))


# -- canonical forms on chains ----------------------------------------------


def test_prin_requires_reflexive_element():
    p = k2()
    L1, L2 = lim(p.frame, 1), lim(p.frame, 2)
    assert isinstance(Prin(p, L2), Prin)
    with pytest.raises(UnsupportedRepresentation):
        Prin(p, L1)
    with pytest.raises(UnsupportedRepresentation):
        BelowLim(p, succ(p.frame, 0, 3))


def test_kappa_case_split_on_chain():
    p = k2()
    L1, L2, s = lim(p.frame, 1), lim(p.frame, 2), succ(p.frame, 0, 4)
    assert kappa(p, L1) == BelowLim(p, L1)
    assert kappa(p, L2) == Prin(p, L2)
    assert kappa(p, s) == Prin(p, s)
    assert sigma(kappa(p, L1)) == L1  # join recovers the element either way
    assert sigma(kappa(p, L2)) == L2


def test_kappa_on_finite_frame_is_approximant_set():
    prox = order_proximity(ref.diamond())
    f = prox.frame
    i = kappa(prox, f.index("a"))
    assert [b for b in f.elements() if member(b, i)] == sorted(
        [f.bot, f.index("a")]
    )
    assert sigma(i) == f.index("a")


@pytest.mark.parametrize("code", [-1, True, 7])
def test_kappa_on_a_finite_frame_refuses_a_code_that_is_not_an_element(code):
    # as the chain kappa does; -1 and True index the carrier's tuples
    prox = catalog_instances()["diamond"]
    with pytest.raises(InvalidParameter, match=f"^{code!r} is not an element of this frame$"):
        kappa(prox, code)


def test_kappa_refuses_a_finite_relation_other_than_the_order():
    # its approximant sets need not be principal, and no round ideal of a
    # finite frame is kept as anything else
    frame = ref.diamond()
    a = frame.index("a")
    for rows in ((0,) * frame.n, tuple(r & ~(1 << a) if x == a else r
                                       for x, r in enumerate(frame.up))):
        with pytest.raises(UnsupportedRepresentation, match="finite collapse theorem"):
            kappa(FiniteProximity(frame, rows), frame.top)


def test_membership_and_inclusion_probes():
    p = k2()
    f = p.frame
    L1, L2 = lim(f, 1), lim(f, 2)
    window = [succ(f, 0, n) for n in range(6)] + [L1] + [
        succ(f, 1, n) for n in range(6)
    ] + [L2]
    ideals = [Prin(p, succ(f, 0, 3)), BelowLim(p, L1), Prin(p, succ(f, 1, 2)),
              BelowLim(p, L2), Prin(p, L2)]
    for i in ideals:
        for b in window:
            if isinstance(i, Prin):
                assert member(b, i) == f.leq(b, i.a)
            else:
                assert member(b, i) == (b < i.lim)
        for j in ideals:
            # inclusion is decided by membership of a generating set
            expect = all(not member(b, i) or member(b, j) for b in window)
            assert subideal(i, j) == expect, (i, j)


def _frame_lattice(rfd, x, y):
    """The join and the meet of two round ideals in their ideal frame,
    as ideals."""
    a, b = rfd.el_of(x), rfd.el_of(y)
    return rfd.ideal_of(rfd.frame.join(a, b)), rfd.ideal_of(rfd.frame.meet(a, b))


def test_lattice_of_chain_ideals():
    p = k2()
    f = p.frame
    rfd = rframe(p)
    a, b = Prin(p, succ(f, 0, 2)), Prin(p, succ(f, 0, 5))
    assert _frame_lattice(rfd, a, b) == (b, a)
    B1 = BelowLim(p, lim(f, 1))
    assert _frame_lattice(rfd, a, B1) == (B1, a)
    assert _frame_lattice(rfd, B1, Prin(p, lim(f, 2)))[0] == Prin(p, lim(f, 2))


def test_finite_ideal_join_closes_under_joins():
    prox = order_proximity(ref.diamond())
    f = prox.frame
    rfd = rframe(prox)
    da, db = Prin(prox, f.index("a")), Prin(prox, f.index("b"))
    j, m = _frame_lattice(rfd, da, db)
    assert member(f.top, j)  # a v b = 1 must be swept in
    assert _members(j) == f.down[f.top] and j == Prin(prox, f.top)
    assert _members(m) == f.down[f.bot] and m == Prin(prox, f.bot)
    # least above both and greatest below both, among all round ideals,
    # and the frame order on codes is inclusion
    ideals = [rfd.ideal_of(e) for e in rfd.frame.elements()]
    for z in ideals:
        if subideal(da, z) and subideal(db, z):
            assert subideal(j, z)
        if subideal(z, da) and subideal(z, db):
            assert subideal(z, m)
        for w in ideals:
            assert rfd.frame.leq(rfd.el_of(z), rfd.el_of(w)) == subideal(z, w)


def _mask_join(frame, mask):
    """The join in frame of the elements whose bits mask sets, taken over
    the whole carrier in index order."""
    j = frame.bot
    for b in frame.elements():
        if mask >> b & 1:
            j = frame.join(j, b)
    return j


def _approximation_by_mask_joins(p):
    """The approximation verdict of p: it fails at the first element that
    the join of its column, the join of its approximants, misses."""
    names = p.frame.names
    for a, col in enumerate(p.cols):
        j = _mask_join(p.frame, col)
        if j != a:
            return Verdict(FAIL, (names[a], names[j]), "join of approximants differs")
    return Verdict(PASS)


def test_kept_joins_and_sups_are_the_joins_they_stand_for():
    """RFrameData.joins is sigma of each kept ideal, join_of is sigma of
    ideal_of, and the approximation check reads the join of each column
    of the relation, on every catalog instance and the first two levels
    of both of its towers."""
    levels = 0
    for prox in catalog_instances().values():
        rfd = rframe(prox)
        for level in (rfd, rfd.rr, rfd.cc, rfd.rr.rr, rfd.cc.cc):
            levels += 1
            base = level.base
            assert level.joins == tuple(sigma(I) for I in level.ideals)
            if isinstance(base, FiniteProximity):
                els = list(level.frame.elements())
                assert level.joins == tuple(_mask_join(base.frame, _members(I))
                                            for I in level.ideals)
            else:
                els = level.frame.class_representatives(3)
            for e in els:
                assert level.join_of(e) == sigma(level.ideal_of(e))
            for p in (base, level.wb, level.maxp):
                if isinstance(p, FiniteProximity):
                    assert _approximation(p) == _approximation_by_mask_joins(p)
    assert levels == 5 * len(catalog_instances())


def test_sups_read_the_relation_not_the_order():
    # on the empty relation every column is empty, so every join of
    # approximants is bottom, and the first element over bottom fails; on
    # a relation missing (a, a) for an atom a, a's join drops to bottom
    frame = order_proximity(ref.diamond()).frame
    names, bot = frame.names, frame.bot
    empty = FiniteProximity(frame, (0,) * frame.n)
    assert _approximation(empty).witness == (names[1], names[bot])
    a = names.index("a")
    rows = tuple(r & ~(1 << a) if x == a else r for x, r in enumerate(frame.up))
    assert _approximation(FiniteProximity(frame, rows)).witness == ("a", names[bot])
    assert _approximation(order_proximity(frame)).ok
    for p in (empty, FiniteProximity(frame, rows)):
        assert _approximation(p) == _approximation_by_mask_joins(p)


def test_dir_sup_of_described_family():
    p = k2()
    f = p.frame
    assert dir_sup(p, Seq.affine(0, 2, 1)) == BelowLim(p, lim(f, 1))
    assert dir_sup(p, Seq.constant(succ(f, 0, 7))) == Prin(p, succ(f, 0, 7))
    # generators must themselves be round principals
    with pytest.raises(UnsupportedRepresentation):
        dir_sup(p, Seq.constant(lim(f, 1)))


def test_way_below_between_ideals():
    p = k2()
    f = p.frame
    a = Prin(p, succ(f, 0, 3))
    B1, B2 = BelowLim(p, lim(f, 1)), BelowLim(p, lim(f, 2))
    assert way_below_ideals(a, a)
    assert way_below_ideals(a, B1) and way_below_ideals(B1, B2)
    assert not way_below_ideals(B1, B1)
    assert not way_below_ideals(B1, a)
    assert way_below_ideals(B1, Prin(p, lim(f, 2)))


def test_ideal_comparisons_match_reference():
    """Inclusion and way-below on every ordered pair of the round ideals
    of each chain instance with k <= 3, and of the order on the downset
    lattice of each poset with at most 3 points."""
    proxes = [p for k in (1, 2, 3) for p in ref.chain_instances(k)]
    proxes += [order_proximity(f) for f in ref.downset_lattices(3)]
    for p in proxes:
        ideals = list(ref.codec(p, rframe(p).frame).values())
        for i in ideals:
            for j in ideals:
                assert subideal(i, j) == ref.subset(i, j), (i, j)
                assert way_below_ideals(i, j) == ref.way_below(i, j), (i, j)


def test_normalize_symbolic_terms():
    # a finite join and the image of a limit ideal reduce to canonical forms
    p = k2()
    f = p.frame
    B1 = BelowLim(p, lim(f, 1))
    assert _frame_lattice(rframe(p), Prin(p, succ(f, 0, 1)), B1)[0] == B1
    h = catalog_morphisms()["chain-h"]
    img = _rmap(h, BelowLim(h.src, lim(h.src.frame, 1)))
    assert img == Prin(h.dst, h.dst.frame.bot)


def test_dir_sup_checks_the_described_family():
    p = k2()
    f = p.frame
    with pytest.raises(InvalidParameter):
        dir_sup(p, Seq.constant(El(1, 3)))  # not an element
    with pytest.raises(InvalidParameter):
        dir_sup(p, Seq.affine(1, 1, 0))  # tail in a point segment
    with pytest.raises(InvalidParameter):
        dir_sup(p, Seq.affine(0, 1, -1, ((0, f.bot),)))
    with pytest.raises(NotDirected):
        dir_sup(p, Seq.constant(f.bot, ((0, succ(f, 1, 0)),)))


def _rmap(f, ideal):
    """R(f)(ideal), the round ideal of f's target that rmap_map sends the
    element of ideal to, read back through ideal_of."""
    src, dst = rframe(f.src), rframe(f.dst)
    return dst.ideal_of(rmap_map(f, src, dst).apply(src.el_of(ideal)))


def _alpha(rfd, a):
    """alpha(a), the way-below ideal of a in rfd's base, read back from
    alpha_map through ideal_of."""
    return rfd.ideal_of(alpha_map(rfd).apply(a))


def test_rmap_on_catalog_morphisms():
    ms = catalog_morphisms()
    h = ms["chain-h"]
    f = h.src.frame
    # h collapses the first block to bottom: the ideal below L1 lands on
    # the principal ideal at bottom
    assert _rmap(h, BelowLim(h.src, lim(f, 1))) == Prin(h.dst, f.bot)
    dbl = ms["chain-double"]
    assert _rmap(dbl, Prin(dbl.src, succ(f, 0, 3))) == Prin(
        dbl.dst, succ(f, 0, 6)
    )
    # doubling never attains the limit, so the ideal stays non-principal
    assert _rmap(dbl, BelowLim(dbl.src, lim(f, 1))) == BelowLim(
        dbl.dst, lim(f, 1)
    )
    # every catalog morphism on every ideal of a window of its source
    # agrees with the image computed from the definition
    for name, m in ms.items():
        depth = ref.depth_for(m)
        for ideal in ref.codec(m.src, rframe(m.src).frame, depth).values():
            assert _rmap(m, ideal) == ref.image(m, ideal, depth), (name, ideal)


def test_stable_compactness_and_alpha():
    base = chain_proximity(build_chain_frame(1), {1})
    assert not is_stably_compact(base)  # top of the base frame is a limit
    with pytest.raises(NotStablyCompact):
        alpha_map(rframe(base))
    rfd = rframe(base)
    assert is_stably_compact(rfd.wb)  # ideal frame caps the chain by a point
    assert is_stably_compact(order_proximity(ref.diamond()))
    # on a finite base alpha(a) is the downset of a
    rfd = rframe(order_proximity(ref.diamond()))
    for a in rfd.base.frame.elements():
        assert _alpha(rfd, a) == ref.way_below_set(rfd.base, a)


def test_alpha_is_left_adjoint_to_sigma():
    rfd = rframe(chain_proximity(build_chain_frame(1), {1}))
    wb = rfd.wb
    f = wb.frame
    elems = [succ(f, 0, n) for n in range(5)] + [e for e in f.limits()] + [f.top]
    ideals = [_alpha(rfd.rr, e) for e in elems] + [kappa(wb, e) for e in elems]
    for a in elems:
        assert _alpha(rfd.rr, a) == ref.way_below_set(wb, a), a
        for i in ideals:
            assert subideal(_alpha(rfd.rr, a), i) == f.leq(a, sigma(i)), (a, i)


def test_codec_roundtrip_and_window_oracle():
    for reflexive in [(2,), (1, 2)]:
        p = k2(reflexive)
        f = p.frame
        rfd = rframe(p)
        for e in rfd.frame.class_representatives():
            assert rfd.el_of(rfd.ideal_of(e)) == e
        # every reflexive window element is classified as a principal,
        # every limit contributes a below-ideal, and nothing else exists
        window = [succ(f, 0, n) for n in range(8)] + [
            succ(f, 1, n) for n in range(8)
        ] + list(f.limits())
        for e in window:
            if p.reflexive(e):
                el = rfd.el_of(Prin(p, e))
                assert rfd.ideal_of(el) == Prin(p, e)
            else:
                with pytest.raises(UnsupportedRepresentation):
                    Prin(p, e)
        for L in f.limits():
            assert rfd.ideal_of(rfd.el_of(BelowLim(p, L))) == BelowLim(p, L)
        # classes are exactly: principals over reflexive points + below-limits
        kinds = sorted(
            type(i).__name__ for i in [rfd.ideal_of(El(s, 0)) for s in
                                       range(len(rfd.frame.segments))]
        )
        expected_prins = 1 + len(reflexive)  # omega block counts once + limits
        assert kinds.count("Prin") == expected_prins + 1  # + second omega block
        assert kinds.count("BelowLim") == 2


def test_retag_preserves_carrier():
    p_small = k2((2,))
    p_big = k2((1, 2))
    i = BelowLim(p_small, lim(p_small.frame, 1))
    j = retag(i, p_big)
    assert j.prox is p_big and sigma(j) == sigma(i)
    with pytest.raises(UnsupportedRepresentation):
        retag(Prin(p_big, lim(p_big.frame, 1)), p_small)  # no longer round


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), st.integers(0, 20), st.booleans(),
       st.integers(0, 1), st.integers(0, 20), st.booleans())
def test_chain_ideal_lattice_laws(bi, i, li, bj, j, lj):
    p = k2((1, 2))
    f = p.frame
    rfd = rframe(p)

    def ideal(block, n, below):
        return BelowLim(p, lim(f, block + 1)) if below else Prin(p, succ(f, block, n))

    x, y = ideal(bi, i, li), ideal(bj, j, lj)
    join, meet = _frame_lattice(rfd, x, y)
    assert subideal(x, join) and subideal(y, join)
    assert subideal(meet, x) and subideal(meet, y)
    # least above both and greatest below both, among a window of ideals
    window = [ideal(b, n, False) for b in range(2) for n in range(22)]
    window += [ideal(b, 0, True) for b in range(2)] + [Prin(p, L) for L in f.limits()]
    for z in window:
        if subideal(x, z) and subideal(y, z):
            assert subideal(join, z)
        if subideal(z, x) and subideal(z, y):
            assert subideal(z, meet)
    assert rfd.frame.leq(rfd.el_of(x), rfd.el_of(y)) == subideal(x, y)
    assert subideal(x, y) == (join == y)


@pytest.mark.parametrize("call", ["ideal_of", "join_of"])
@pytest.mark.parametrize("code", [El(1, 5), El(-1, 0), El(9, 0), El(2, 1), El(0, -1),
                                  1, (0, 0), True])
def test_ideal_frame_refuses_codes_outside_it(call, code):
    # the ideal frame of chain-k1 has the segments P[S0], B[L1] and P[L1]:
    # a position past 0 in a point, a segment before the first or past the
    # last, and a negative position are not elements, and neither is a
    # code that is not an El, even a plain tuple equal to one
    rfd = rframe(catalog_instances()["chain-k1"])
    message = f"^{re.escape(repr(code))} is not an element of this chain$"
    with pytest.raises(InvalidParameter, match=message):
        getattr(rfd, call)(code)


@pytest.mark.parametrize("call", ["ideal_of", "join_of"])
@pytest.mark.parametrize("code", [-1, -4, 4, 9, True, False, 1.0, El(0, 0)])
def test_finite_ideal_frame_refuses_codes_outside_it(call, code):
    # the ideal frame of the diamond has the elements 0..3; a negative
    # code would otherwise wrap round to the end of the kept ideals, and a
    # bool, a float or a chain code is not an element even where it
    # compares equal to one
    rfd = rframe(catalog_instances()["diamond"])
    message = f"^{re.escape(repr(code))} is not an element of this frame$"
    with pytest.raises(InvalidParameter, match=message):
        getattr(rfd, call)(code)
