import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from proxkit import morphisms
from proxkit.catalog import catalog_instances, catalog_morphisms
from proxkit.chain import OMEGA, El, Seq, build_chain_frame, lim, succ
from proxkit.errors import InvalidParameter, MalformedMap, NotComposable, UnsupportedRepresentation
from proxkit.finite import search_frames
from proxkit.morphisms import (
    ChainMap,
    FiniteMap,
    alpha_map,
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
from proxkit.proximity import FiniteProximity, chain_proximity, order_proximity
from proxkit.reports import FAIL, PASS, SYMBOLIC, Verdict
from proxkit.roundideal import is_stably_compact, rframe
from test_block_map import CHAIN_DOCS


def k1():
    return chain_proximity(build_chain_frame(1), {1})


# -- construction and validation ---------------------------------------------


def test_malformed_maps_rejected():
    p = k1()
    d = order_proximity(ref.diamond())
    with pytest.raises(MalformedMap):
        FiniteMap(d, d, (0, 1, 2))  # wrong table length
    with pytest.raises(MalformedMap):
        FiniteMap(d, d, (0, 1, 2, 9))  # value outside the target
    with pytest.raises(MalformedMap):
        ChainMap(p, p, (Seq.affine(0, 1, 0),))  # missing a rule
    with pytest.raises(MalformedMap):
        # point segments take a single constant value, no exceptions
        ChainMap(p, p, (
            Seq.affine(0, 1, 0),
            Seq.constant(p.frame.top, ((0, p.frame.bot),)),
        ))
    with pytest.raises(MalformedMap):
        # affine tails cannot land in a finite frame
        ChainMap(p, d, (
            Seq.affine(0, 1, 0), Seq.constant(3),
        ))
    with pytest.raises(MalformedMap):
        # affine tails must land in an omega block of the target
        ChainMap(p, p, (
            Seq.affine(1, 1, 0), Seq.constant(p.frame.top),
        ))
    with pytest.raises(MalformedMap):
        ChainMap(p, p, (
            Seq.affine(0, 1, 0, ((-1, p.frame.bot),)),
            Seq.constant(p.frame.top),
        ))


def test_bool_values_are_not_finite_elements():
    # True == 1, but a table holding it is not a table of element indices
    d = order_proximity(ref.diamond())
    assert d.frame.contains(1) and not d.frame.contains(True)
    assert not d.frame.contains(False)
    with pytest.raises(MalformedMap):
        FiniteMap(d, d, (0, True, 2, 3))


def test_repeated_exception_index_rejected():
    # a last-wins reading and a first-wins reading would disagree at 0
    p = k1()
    with pytest.raises(InvalidParameter):
        ChainMap(p, p, (
            Seq.constant(El(0, 5), ((0, El(0, 9)), (0, El(0, 1)))),
            Seq.constant(p.frame.top),
        ))


def test_normalization_drops_redundant_exceptions():
    p = k1()
    f = ChainMap(p, p, (
        Seq.affine(0, 1, 0, ((3, El(0, 3)), (5, El(0, 9)))),
        Seq.constant(p.frame.top),
    ))
    # the exception at 3 agrees with the tail and must vanish
    assert f.rules[0].exceptions == ((5, El(0, 9)),)
    assert f == ChainMap(p, p, (
        Seq.affine(0, 1, 0, ((5, El(0, 9)),)),
        Seq.constant(p.frame.top),
    ))


def test_catalog_morphisms_validator_profile():
    ms = catalog_morphisms()
    # every catalog morphism is at least a proximity homomorphism
    for name, m in ms.items():
        assert validate_proxhom(m).ok, name
    # h collapses a block: homomorphism yes, frame map no
    h = ms["chain-h"]
    rep = validate_pframemap(h)
    assert not rep.ok
    assert rep.verdict("directed-joins").witness == ("L1",)
    # frozen validator profile (pframemap?, proper?)
    profile = {
        "chain-id": (True, True),
        "chain-double": (True, True),
        "chain-shift3": (True, True),
        "chain-h": (False, True),
        "k2-f": (True, False),
        "k2-g": (False, True),
    }
    for name, (pfm, proper) in profile.items():
        assert validate_pframemap(ms[name]).ok == pfm, name
        assert is_proper(ms[name]) == proper, name


def test_is_proper_matches_the_definition():
    # every homomorphism between the search frames of at most 4 elements
    # and from them into chain-k1 at its window points, theta of each
    # catalog morphism, and sigma, kappa and alpha on the levels of the 15
    # layouts with k <= 4 whose top is reflexive
    orders = [order_proximity(f) for _, f in search_frames(4)]
    maps = [h for src, dst in product(orders, repeat=2) for h in enumerate_proxhoms(src, dst)]
    p = k1()
    maps += [f for src in orders for t in product(ref.points(p.frame), repeat=src.frame.n)
             for f in [FiniteMap(src, p, t)] if validate_proxhom(f).ok]
    maps += [theta(f, rframe(f.src)) for f in catalog_morphisms().values()]
    layouts = [p for k in range(1, 5) for p in ref.reflexive_subsets(build_chain_frame(k))
               if p.reflexive(p.frame.top)]
    assert len(layouts) == 15
    for rfd in (level for p in layouts for r in [rframe(p)] for level in (r, r.rr, r.cc)):
        maps += [sigma_map(rfd), kappa_map(rfd)]
        if is_stably_compact(rfd.base):
            maps.append(alpha_map(rfd))
    verdicts = [is_proper(f) for f in maps]
    assert verdicts == [ref.proper(f) for f in maps]
    assert True in verdicts and False in verdicts


def test_meet_hom_without_subadditivity_detected():
    d = order_proximity(ref.diamond())
    f = d.frame
    tbl = [f.bot] * f.n
    tbl[f.top] = f.top
    m = FiniteMap(d, d, tuple(tbl))  # a,b -> 0 but a v b = 1 -> 1
    rep = validate_proxhom(m)
    assert rep.verdict("meet-hom").ok
    assert not rep.verdict("join-subadditive").ok
    assert not rep.ok


def test_non_monotone_chain_map_fails_meet_hom():
    p = k1()
    f = ChainMap(p, p, (
        Seq.affine(0, 1, 0, ((2, El(0, 9)),)),
        Seq.constant(p.frame.top),
    ))
    rep = validate_proxhom(f)
    assert not rep.verdict("meet-hom").ok
    assert rep.verdict("meet-hom").witness == ("S0.2", "S0.3")


def test_point_segment_above_the_next_block_fails_meet_hom():
    # L1 -> L2, but the block after it starts at S1.0 < L2
    p = chain_proximity(build_chain_frame(2), {2})
    top = p.frame.top
    f = ChainMap(p, p, (Seq.affine(0, 1, 0), Seq.constant(top),
                        Seq.affine(2, 1, 0), Seq.constant(top)))
    assert validate_proxhom(f).axioms == (
        ("meet-hom", Verdict(FAIL, ("L1", "S1.0"), "not monotone")),)


def test_omega_exception_on_a_non_reflexive_limit_fails_the_relation():
    # S0.1 -> L1, and S0.n -> S1.n past it: S0.1 is reflexive, as every
    # omega element is, but its value L1 is not
    p = chain_proximity(build_chain_frame(2), {2})
    top = p.frame.top
    f = ChainMap(p, p, (Seq.affine(2, 1, 0, ((0, El(0, 0)), (1, El(1, 0)))),
                        Seq.constant(top), Seq.constant(top), Seq.constant(top)))
    assert validate_proxhom(f).verdict("join-subadditive") == Verdict(FAIL, ("S0.1",))


def test_reflexive_limit_onto_a_non_reflexive_one_fails_preserves_rel():
    # the identity carrier from R = {L1, L2} to R = {L2}: (L1, L1) is
    # related in the source only
    frame = build_chain_frame(2)
    src, dst = chain_proximity(frame, {1, 2}), chain_proximity(frame, {2})
    f = ChainMap(src, dst, (Seq.affine(0, 1, 0), Seq.constant(El(1, 0)),
                            Seq.affine(2, 1, 0), Seq.constant(frame.top)))
    assert [(name, v.status) for name, v in validate_pframemap(f).axioms] == [
        ("meet-hom", SYMBOLIC), ("zero", PASS), ("top", PASS),
        ("preserves-rel", FAIL), ("directed-joins", SYMBOLIC)]
    assert validate_pframemap(f).verdict("preserves-rel") == Verdict(FAIL, ("L1",))


def test_boundary_monotonicity_uses_block_sup():
    # tail grows without bound but the next segment maps strictly below
    # the block supremum: monotonicity must fail at the boundary
    p = chain_proximity(build_chain_frame(2), {2})
    f = p.frame
    bad = ChainMap(p, p, (
        Seq.affine(2, 1, 0),       # S0.n -> S1.n, sup = L2
        Seq.constant(succ(f, 1, 0)),  # L1 -> S1.0 < L2
        Seq.affine(2, 1, 1),
        Seq.constant(f.top),
    ))
    assert not validate_proxhom(bad).verdict("meet-hom").ok


# -- composition -------------------------------------------------------------


def test_compose_mismatched_frames_rejected():
    ms = catalog_morphisms()
    with pytest.raises(NotComposable):
        compose(ms["chain-id"], ms["k2-f"])
    with pytest.raises(NotComposable):
        star_compose(ms["chain-id"], ms["k2-f"])


def test_plain_composition_identities():
    for name, m in catalog_morphisms().items():
        assert compose(m, identity_map(m.src)) == m, name
        assert compose(identity_map(m.dst), m) == m, name


def test_star_composition_identities_on_homomorphisms():
    # value-approximation makes the identity a two-sided star unit
    for name, m in catalog_morphisms().items():
        assert star_compose(m, identity_map(m.src)) == m, name
        assert star_compose(identity_map(m.dst), m) == m, name


def test_star_differs_from_plain_at_nonreflexive_limit():
    ms = catalog_morphisms()
    f, g = ms["k2-f"], ms["k2-g"]
    c, s = compose(g, f), star_compose(g, f)
    L1 = lim(f.src.frame, 1)
    assert c.apply(L1) == lim(f.src.frame, 2)
    assert s.apply(L1) == succ(f.src.frame, 0, 0)
    # only the star composite stays inside the category
    assert validate_proxhom(s).ok
    assert not validate_proxhom(c).ok
    # away from the patched limit the two agree
    for x in [succ(f.src.frame, 0, n) for n in range(6)] + [f.src.frame.top]:
        assert c.apply(x) == s.apply(x)


def test_star_composition_is_associative_on_catalog():
    ms = catalog_morphisms()
    triples = [
        (ms["k2-g"], ms["k2-f"], identity_map(ms["k2-f"].src)),
        (ms["chain-h"], ms["chain-double"], ms["chain-shift3"]),
    ]
    for a, b, c in triples:
        assert star_compose(a, star_compose(b, c)) == star_compose(
            star_compose(a, b), c
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(1, 3),
       st.integers(0, 4), st.integers(0, 12))
def test_plain_composition_is_pointwise(a1, b1, a2, b2, n):
    p = k1()
    top = p.frame.top
    f = ChainMap(p, p, (Seq.affine(0, a1, b1), Seq.constant(top)))
    g = ChainMap(p, p, (
        Seq.affine(0, a2, b2, ((b2 + a2, El(0, b2 + a2)),)),
        Seq.constant(top),
    ))
    gf = compose(g, f)
    x = El(0, n)
    assert gf.apply(x) == g.apply(f.apply(x))
    assert gf.apply(top) == g.apply(f.apply(top))


def random_rule(rng, frame, i):
    """A rule for segment i of frame into frame: a constant on a point;
    on an omega block n -> (i, n), or an affine tail of slope 1-3 and
    offset 0-2 onto a random block, or a constant, each with up to two
    exceptions."""
    values = ref.points(frame, 4)
    if frame.segments[i].kind != OMEGA:
        return Seq.constant(rng.choice(values))
    exc = [(m, rng.choice(values)) for m in rng.sample(range(5), rng.randrange(3))]
    kind = rng.randrange(3)
    if kind == 0:
        return Seq.affine(i, 1, 0, exc if rng.random() < 0.3 else ())
    if kind == 1:
        blocks = [j for j, s in enumerate(frame.segments) if s.kind == OMEGA]
        return Seq.affine(rng.choice(blocks), rng.randint(1, 3), rng.randrange(3), exc)
    return Seq.constant(rng.choice(values), exc)


@pytest.mark.parametrize("doc", CHAIN_DOCS.values(), ids=list(CHAIN_DOCS))
def test_chain_composition_is_pointwise_on_the_reference_window(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    frame, rng = prox.frame, random.Random(f"compose:{doc['k']}:{doc['reflexive']}")
    segs = range(len(frame.segments))
    identity_rules = 0
    for _ in range(40):
        f = ChainMap(prox, prox, tuple(random_rule(rng, frame, i) for i in segs))
        g = ChainMap(prox, prox, tuple(random_rule(rng, frame, i) for i in segs))
        gf = compose(g, f)
        assert ChainMap(prox, prox, gf.rules) == gf
        for x in ref.points(frame, ref.depth_for(f, g)):
            assert gf.apply(x) == g.apply(f.apply(x)), (f, g, x)
        # f's rule n -> (i, n) gives g's own rule for segment i
        for i in segs:
            if f.rules[i] == Seq.affine(i, 1, 0):
                assert gf.rules[i] is g.rules[i]
                identity_rules += 1
    assert identity_rules >= 5


# -- enumeration as an oracle -------------------------------------------------


def test_enumerated_homomorphism_counts():
    insts = dict(catalog_instances())
    counts = {
        ("two", "two"): 1,
        ("two", "diamond"): 1,
        ("chain3", "two"): 2,
        ("chain3", "chain3"): 3,
        ("chain3", "diamond"): 4,
        ("diamond", "two"): 2,
        ("diamond", "chain3"): 2,
        ("diamond", "diamond"): 4,
    }
    for (a, b), n in counts.items():
        homs = enumerate_proxhoms(insts[a], insts[b])
        assert len(homs) == n, (a, b)
        for f in homs:
            assert validate_proxhom(f).ok


def test_enumeration_counts_the_lattice_homomorphisms_by_birkhoff_duality():
    # between order proximities, which by the collapse theorem are all the
    # valid finite ones, a homomorphism is a bounded lattice homomorphism:
    # joint subadditivity on (a, a) and (b, b) gives f(a v b) <= f(a) v f(b).
    # The comparison with every table below stops at 4 elements.
    proxes = [(name, order_proximity(f)) for name, f in search_frames(6)]
    found = 0
    for (ns, p), (nd, q) in product(proxes, proxes):
        count = len(enumerate_proxhoms(p, q))
        assert count == ref.lattice_hom_count(p.frame, q.frame), (ns, nd)
        found += count
    assert found == 715


def test_enumeration_counts_the_homomorphisms_of_every_small_downset_lattice():
    # the downset lattices of the 25 posets with at most 4 points: all
    # the finite distributive lattices with at most 4 join-irreducibles
    proxes = [order_proximity(f) for f in ref.downset_lattices(4)]
    assert len(proxes) == 25
    found = 0
    for p, q in product(proxes, proxes):
        count = len(enumerate_proxhoms(p, q))
        assert count == ref.lattice_hom_count(p.frame, q.frame), (p.frame, q.frame)
        found += count
    assert found == 19727


def test_enumerated_maps_pass_every_homomorphism_axiom():
    # the 13 distributive lattices with at most 6 elements, the six-element
    # chain among them; the tables accepted between orders are judged by
    # no validator, so each is checked against the definitions here
    proxes = [order_proximity(f) for f in ref.downset_lattices(5) if f.n <= 6]
    assert len(proxes) == 13
    checked = 0
    for p, q in product(proxes, proxes):
        for f in enumerate_proxhoms(p, q):
            for axiom, found in ref.hom_violations(f, False):
                assert next(found, None) is None, (f, axiom)
            checked += 1
    assert checked == 2655


def test_enumerated_homomorphisms_closed_under_star():
    d = order_proximity(ref.diamond())
    homs = enumerate_proxhoms(d, d)
    for f in homs:
        for g in homs:
            assert star_compose(g, f) in homs


def test_enumeration_matches_full_scan_on_small_frames():
    # between orders the search matches the full scan; any other relation
    # is no proximity by the finite collapse theorem, and is refused
    # before a table of either frame is built
    props = ref.small_proximities()
    found = refused = 0
    for (ns, src), (nd, dst) in product(props, props):
        if src.is_order and dst.is_order:
            homs = enumerate_proxhoms(src, dst)
            assert homs == ref.proxhoms(src, dst), (ns, nd)
            found += len(homs)
            continue
        frames = replace(src.frame), replace(dst.frame)  # no cached tables
        with pytest.raises(UnsupportedRepresentation, match="finite collapse theorem"):
            enumerate_proxhoms(FiniteProximity(frames[0], src.rows),
                               FiniteProximity(frames[1], dst.rows))
        assert not any(k in vars(f) for f in frames for k in ("triangle", "hom_plan")), (ns, nd)
        refused += 1
    assert found > 0 and refused == 495
    # the one-point frame is a source, whose bottom and top are one
    assert any(src.frame.n == 1 and src.is_order for _, src in props)


def test_enumeration_matches_full_scan_on_catalog():
    insts = {k: v for k, v in catalog_instances().items()
             if isinstance(v, FiniteProximity)}
    for (ns, src), (nd, dst) in product(insts.items(), insts.items()):
        # the reference for cube3 into chain3 alone is 3**8 tables and seconds
        if dst.frame.n ** src.frame.n <= 4096:
            assert enumerate_proxhoms(src, dst) == ref.proxhoms(src, dst), (ns, nd)


# -- finite homomorphism validation against the reference ---------------------


def _assert_hom_validation_matches_reference(src, dst, tables):
    failing = 0
    for table in tables:
        f = FiniteMap(src, dst, tuple(table))
        for frame_map in (False, True):
            report = morphisms._validate_finite_hom(f, frame_map)
            expected = ref.report(ref.hom_violations(f, frame_map), last=True)
            assert report == expected, (f, frame_map)
            failing += not report.ok
    return failing


def test_hom_validation_matches_scan_on_small_frames():
    # random tables, and the homomorphisms of the underlying orders judged
    # against unvalidated relations
    rng = random.Random(11)
    props = ref.small_proximities()
    checked = failing = 0
    for src, dst in product([p for _, p in props], repeat=2):
        n, m = src.frame.n, dst.frame.n
        tables = [[rng.randrange(m) for _ in range(n)] for _ in range(4)]
        homs = enumerate_proxhoms(order_proximity(src.frame), order_proximity(dst.frame))
        tables += [h.table for h in rng.sample(homs, min(4, len(homs)))]
        failing += _assert_hom_validation_matches_reference(src, dst, tables)
        checked += 2 * len(tables)
    assert 0 < failing < checked


def test_hom_validation_matches_scan_on_larger_frames():
    rng = random.Random(12)
    frames = [f for _, f in search_frames(8) if f.n > 4]
    props = [p for f in frames for p in (order_proximity(f), ref.sub_relation(f, rng))]
    small = [p for name, p in ref.small_proximities() if name.startswith(("cube2", "chain4"))]
    for src, dst in product(props, props + small):
        n, m = src.frame.n, dst.frame.n
        tables = [[rng.randrange(m) for _ in range(n)] for _ in range(3)]
        _assert_hom_validation_matches_reference(src, dst, tables)


def test_hom_validation_matches_scan_into_chains():
    rng = random.Random(13)
    targets = [k1(), chain_proximity(build_chain_frame(2), {2})]
    for src in [p for _, p in ref.small_proximities()]:
        for dst in targets:
            f = dst.frame
            pool = [f.bot, f.top] + [succ(f, 0, i) for i in range(3)] + [lim(f, 1)]
            tables = [[rng.choice(pool) for _ in range(src.frame.n)] for _ in range(6)]
            tables.append([f.bot] * (src.frame.n - 1) + [f.top])
            _assert_hom_validation_matches_reference(src, dst, tables)


def test_finite_maps_into_a_chain_compose_and_validate_as_the_reference():
    # a finite map into a chain has no target tables: compose reads a
    # finite g's table or asks a chain g, star_compose joins in the chain,
    # and the validators take the chain's meet and join
    rng = random.Random(14)
    chain = k1()
    cf = chain.frame
    pool = [cf.bot, cf.top] + [succ(cf, 0, i) for i in range(3)] + [lim(cf, 1)]
    chain_maps = [identity_map(chain),
                  ChainMap(chain, chain, (Seq.affine(0, 2, 1), Seq.constant(cf.top))),
                  ChainMap(chain, chain, (Seq.constant(succ(cf, 0, 2)), Seq.constant(cf.top)))]
    props = ref.small_proximities()
    orders = [q for name, q in props if ":" not in name]
    built = []
    for (_, p), q in product(props, orders):
        n, m = p.frame.n, q.frame.n
        # all but the bottom onto the top: a homomorphism from a chain q
        to_top = tuple(cf.bot if x == q.frame.bot else cf.top for x in q.frame.elements())
        for g in [FiniteMap(q, chain, to_top),
                  FiniteMap(q, chain, tuple(rng.choice(pool) for _ in range(m)))]:
            for f in [FiniteMap(p, q, tuple(rng.randrange(m) for _ in range(n))),
                      FiniteMap(p, q, tuple(m - 1 if x else 0 for x in range(n)))]:
                built.append((g, f))
        f = FiniteMap(p, chain, tuple(rng.choice(pool) for _ in range(n)))
        built += [(g, f) for g in chain_maps]
    passed = 0
    for g, f in built:
        gf, sc = compose(g, f), star_compose(g, f)
        assert gf.table == tuple(g.apply(f.apply(a)) for a in f.src.frame.elements())
        assert sc == ref.star_compose(g, f)
        for h in (gf, sc):
            assert validate_proxhom(h) == ref.report(ref.hom_violations(h, False), last=True)
            assert validate_pframemap(h) == ref.report(ref.hom_violations(h, True), last=True)
            passed += validate_proxhom(h).ok
    assert 0 < passed < 2 * len(built)


def _count_rel_calls(monkeypatch):
    """A list whose length counts the FiniteProximity.rel calls made from
    now on."""
    calls = []
    rel = FiniteProximity.rel

    def counting(self, a, b):
        calls.append((a, b))
        return rel(self, a, b)

    monkeypatch.setattr(FiniteProximity, "rel", counting)
    return calls


def test_joint_subadditivity_checks_each_unordered_pair_once(monkeypatch):
    # the axiom is symmetric in its two related pairs, so a passing scan
    # costs P(P + 1) / 2 relation tests for P related pairs, not P**2.  The
    # scan runs when the source relation is not the order: here the order
    # of cube3 without the pair (top, top), mapped identically into the
    # order, where f(a1 v a2) <= f(b1) v f(b2) holds for every a1 <= b1
    # and a2 <= b2.
    dst = order_proximity(dict(search_frames(8))["cube3"])
    f = dst.frame
    src = FiniteProximity(f, f.up[:f.top] + (0,))
    pairs = len(src.pairs())
    calls = _count_rel_calls(monkeypatch)
    assert validate_proxhom(FiniteMap(src, dst, tuple(f.elements()))).ok
    assert len(calls) == pairs * (pairs + 1) // 2


def test_order_to_order_homomorphism_needs_no_relation_tests(monkeypatch):
    # between two orders, join preservation is decided on the tables and
    # implies both joint subadditivity and value approximation
    p = order_proximity(dict(search_frames(8))["cube3"])
    calls = _count_rel_calls(monkeypatch)
    assert validate_proxhom(identity_map(p)).ok
    assert calls == []


def test_lattice_hom_path_matches_scan_on_every_table_between_orders():
    # every table between the orders of at most 4 elements, valid or not;
    # among them tables that preserve meets but not joins, where the
    # scans find the witness
    orders = [p for name, p in ref.small_proximities() if ":" not in name]
    meets_not_joins = 0
    for src, dst in product(orders, orders):
        tables = list(product(range(dst.frame.n), repeat=src.frame.n))
        _assert_hom_validation_matches_reference(src, dst, tables)
        for table in tables:
            axioms = dict(validate_proxhom(FiniteMap(src, dst, table)).axioms)
            if axioms["meet-hom"].ok and not axioms["join-subadditive"].ok:
                meets_not_joins += 1
    assert meets_not_joins > 0


def _built_maps():
    """Every map that enumerate_proxhoms, compose and star_compose return
    over the finite catalog instances and the orders of the generated
    frames of at most 4 elements."""
    proxes = [p for p in catalog_instances().values() if isinstance(p, FiniteProximity)]
    proxes += [order_proximity(f) for _, f in search_frames(4)]
    homs = {(i, j): enumerate_proxhoms(p, q)
            for i, p in enumerate(proxes) for j, q in enumerate(proxes)}
    for fs in homs.values():
        yield from fs
    for (i, j), fs in homs.items():
        gs = [g for k in range(len(proxes)) for g in homs[j, k]]
        for f in fs:
            for g in gs:
                yield compose(g, f)
                yield star_compose(g, f)


def test_builders_give_the_maps_the_checked_constructor_gives():
    built = 0
    for h in _built_maps():
        assert type(h) is FiniteMap
        assert FiniteMap(h.src, h.dst, h.table) == h
        built += 1
    assert built > 1000


def test_star_compose_over_columns_matches_scan_on_enumerated_pairs():
    proxes = [order_proximity(f) for _, f in search_frames(4)]
    proxes += [p for p in catalog_instances().values()
               if isinstance(p, FiniteProximity) and p.frame.n <= 4]
    homs = {(i, j): enumerate_proxhoms(p, q)
            for i, p in enumerate(proxes) for j, q in enumerate(proxes)}
    pairs = 0
    for (i, j), fs in homs.items():
        for k in range(len(proxes)):
            for f in fs:
                for g in homs[j, k]:
                    assert star_compose(g, f) == ref.star_compose(g, f)
                    pairs += 1
    assert pairs > 1000


def test_star_compose_over_columns_matches_scan_on_non_order_relations():
    # star_compose does not validate: on any relation the join runs over
    # the column of a, which here is not the downset of a
    rng = random.Random(11)
    props = ref.small_proximities()
    tampered = 0
    for _, p in props:
        for _, q in props:
            if p.cols == p.frame.down:
                continue
            tampered += 1
            for _ in range(3):
                f = FiniteMap(p, q, tuple(rng.randrange(q.frame.n) for _ in range(p.frame.n)))
                g = FiniteMap(q, p, tuple(rng.randrange(p.frame.n) for _ in range(q.frame.n)))
                assert star_compose(g, f) == ref.star_compose(g, f)
    assert tampered > 100


# -- theta / rho --------------------------------------------------------------


def test_theta_sends_homomorphisms_to_frame_maps():
    for name, m in catalog_morphisms().items():
        rfd = rframe(m.src)
        t = theta(m, rfd)
        rep = validate_pframemap(t)
        assert rep.ok, (name, rep.failures())


def test_theta_values_on_collapsing_map():
    h = catalog_morphisms()["chain-h"]
    rfd = rframe(h.src)
    t = theta(h, rfd)
    f = rfd.frame
    # the ideal below L1 joins to the sup of h over the block: bottom
    assert t.apply(El(1, 0)) == h.dst.frame.bot
    assert f.segments[1].label == "B[L1]"
    # the principal ideal at L1 goes to h(L1) = L1
    assert t.apply(El(2, 0)) == lim(h.dst.frame, 1)


def test_theta_rho_roundtrip_on_catalog():
    for name, m in catalog_morphisms().items():
        rfd = rframe(m.src)
        assert rho(theta(m, rfd), rfd) == m, name


def test_rho_theta_roundtrip_on_frame_maps():
    # psi -> rho(psi) -> theta recovers psi for frame maps off the ideal
    # frame; sigma_map and theta images are such maps
    for name, m in catalog_morphisms().items():
        rfd = rframe(m.src)
        for psi in (theta(m, rfd), sigma_map(rfd)):
            assert theta(rho(psi, rfd), rfd) == psi, name


def test_theta_rho_exhaustive_on_small_finite():
    insts = dict(catalog_instances())
    small = [insts[k] for k in ("two", "chain3", "diamond")]
    for src in small:
        rfd = rframe(src)
        for dst in small:
            for f in enumerate_proxhoms(src, dst):
                t = theta(f, rfd)
                assert validate_pframemap(t).ok
                assert rho(t, rfd) == f


def test_rho_requires_matching_ideal_frame():
    ms = catalog_morphisms()
    rfd = rframe(ms["k2-f"].src)
    with pytest.raises(NotComposable):
        rho(ms["chain-id"], rfd)


def test_factorization_through_the_ideal_frame():
    # every homomorphism is join-of-image after approximate-then-push:
    # f = sigma . Rf . kappa
    for name, m in catalog_morphisms().items():
        rfd_l, rfd_m = rframe(m.src), rframe(m.dst)
        lifted = compose(
            sigma_map(rfd_m), compose(rmap_map(m, rfd_l, rfd_m), kappa_map(rfd_l))
        )
        assert lifted == m, name


def test_rmap_map_is_functorial():
    ms = catalog_morphisms()
    f, g = ms["k2-f"], ms["k2-g"]
    rfd = rframe(f.src)
    lhs = rmap_map(star_compose(g, f), rfd, rfd)
    rhs = compose(rmap_map(g, rfd, rfd), rmap_map(f, rfd, rfd))
    assert lhs == rhs
    assert rmap_map(identity_map(f.src), rfd, rfd) == identity_map(rfd.wb)
