import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from proxkit.catalog import catalog_instances
from proxkit import proximity
from proxkit.chain import Seq, build_chain_frame, lim
from proxkit.errors import InvalidReflexiveSet, MalformedRelation, TooLarge
from proxkit.finite import build_finite_frame, downset_frame, search_frames
from proxkit.proximity import (
    ChainProximity,
    FiniteProximity,
    certify_finite_collapse,
    chain_proximity,
    order_proximity,
    product_proximity,
    validate_proximity,
)
from proxkit.reports import SYMBOLIC, document
from proxkit.roundideal import rframe


def three_chain():
    return build_finite_frame(["0", "m", "1"], [("0", "m"), ("m", "1")])


def test_catalog_instances_all_validate():
    for name, prox in catalog_instances().items():
        report = validate_proximity(prox)
        assert report.ok, (name, report.failures())


def test_finite_collapse_flag():
    prox = order_proximity(three_chain())
    assert validate_proximity(prox).collapse is True


def test_axiom4_failure_has_witness_m():
    # drop (m, m) from the order: m is no longer the join of its approximants
    f = three_chain()
    m = f.index("m")
    cand = _relation(f, lambda a, b: f.leq(a, b) and (a, b) != (m, m))
    report = validate_proximity(cand)
    assert not report.ok
    assert "m" in report.verdict("approximation").witness


def test_weakening_failure_detected():
    f = three_chain()
    z, m, t = f.index("0"), f.index("m"), f.index("1")
    pairs = ((z, z), (t, t), (m, t), (m, m))
    # (m,t) present but (0,t) missing: weakening 0 <= m rel t <= 1 fails
    cand = _relation(f, lambda a, b: (a, b) in pairs)
    report = validate_proximity(cand)
    assert not report.verdict("weakening").ok


def test_chain_proximity_reflexive_set():
    f = build_chain_frame(2)
    p = chain_proximity(f, {2})
    assert not p.reflexive(lim(f, 1))
    assert p.reflexive(lim(f, 2))
    assert p.rel(lim(f, 1), lim(f, 2))
    assert not p.rel(lim(f, 1), lim(f, 1))
    with pytest.raises(InvalidReflexiveSet):
        chain_proximity(f, {1})  # top limit must stay reflexive
    with pytest.raises(InvalidReflexiveSet):
        chain_proximity(f, {3})
    with pytest.raises(MalformedRelation):
        ChainProximity(f, frozenset({f.bot}))


def test_chain_validation_symbolic():
    f = build_chain_frame(2)
    report = validate_proximity(chain_proximity(f, {2}))
    assert report.ok
    assert report.collapse is False
    full = validate_proximity(chain_proximity(f, {1, 2}))
    assert full.ok and full.collapse is True


def test_interpolant_of_nonreflexive_limit_is_successor():
    f = build_chain_frame(2)
    p = chain_proximity(f, {2})
    L1 = lim(f, 1)
    c = f.successor_of(L1)
    assert not p.reflexive(L1)
    assert p.rel(L1, c) and p.rel(c, f.top)


def test_product_proximity_is_valid():
    two = order_proximity(build_finite_frame(["0", "1"], [("0", "1")]))
    p = product_proximity(two, two)
    assert validate_proximity(p).ok


def test_collapse_certificates():
    for names, pairs in [
        (["0", "1"], [("0", "1")]),
        (["0", "m", "1"], [("0", "m"), ("m", "1")]),
        (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    ]:
        report = certify_finite_collapse(build_finite_frame(names, pairs))
        assert report.ok, document(report.to_json())


def test_collapse_refuses_a_large_frame_by_its_search_space():
    # a 13-element chain has 91 comparable pairs, 89 of them free
    names = [f"c{i:02}" for i in range(13)]
    frame = build_finite_frame(names, list(zip(names, names[1:])))
    with pytest.raises(TooLarge) as exc:
        certify_finite_collapse(frame)
    assert str(exc.value) == "relation search space 2^89 is over budget"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 4 - 1))
def test_sampled_subrelations_of_3chain_valid_iff_order(bits):
    # sample sub-relations of leq on the 3-chain; the order itself is the
    # only one that can pass
    f = three_chain()
    free = [
        (a, b) for a in f.elements() for b in f.elements()
        if f.leq(a, b) and (a, b) not in ((f.bot, f.bot), (f.top, f.top))
    ]
    assert len(free) == 4
    chosen = [(f.bot, f.bot), (f.top, f.top)]
    chosen += [pair for i, pair in enumerate(free) if (bits >> i) & 1]
    cand = _relation(f, lambda a, b: (a, b) in chosen)
    assert validate_proximity(cand).ok == (cand.rows == f.up)


# -- chain validation against the reference ------------------------------------


def assert_chain_report_matches(p):
    """Each axiom passes, symbolically, or fails with the witness of the
    reference's first violation in its window, and the collapse flags
    agree."""
    got, want = validate_proximity(p), ref.proximity_report(p)
    assert ([(a, v.ok, v.witness) for a, v in got.axioms]
            == [(a, v.ok, v.witness) for a, v in want.axioms]), p
    assert all(v.status == SYMBOLIC for _, v in got.axioms if v.ok)
    assert got.collapse == want.collapse


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_validation_matches_scan_on_all_reflexive_sets(k):
    # subsets without the top included: those fail the sublattice axiom
    for p in ref.reflexive_subsets(build_chain_frame(k)):
        assert_chain_report_matches(p)


def test_chain_validation_matches_scan_on_all_layouts():
    # interpolation and approximation cannot fail on any layout: the
    # successor of a limit is never a limit, and each limit is the
    # supremum of the block below it
    proxs = [p for f in ref.layouts(6) for p in ref.reflexive_subsets(f)]
    assert len(proxs) == 364
    for p in proxs:
        f = p.frame
        assert_chain_report_matches(p)
        assert all(Seq.affine(a.seg - 1, 1, 0).sup(f.join)[0] == a
                   for a in f.limits())
        assert all(not f.is_limit(f.successor_of(a))
                   for a in f.limits() if a != f.top)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chain_validation_matches_scan_on_ideal_frames(k):
    frame = build_chain_frame(k)
    for p in ref.reflexive_subsets(frame):
        if not p.reflexive(frame.top):
            continue
        # the way-below and maximal structures on its ideal frame, and on
        # the ideal frames of those
        for q in (rframe(p).wb, rframe(p).maxp):
            for q2 in (q, rframe(q).wb, rframe(q).maxp):
                assert_chain_report_matches(q2)


@pytest.mark.parametrize("k", [8, 64])
def test_chain_validation_work_is_linear_in_segments(k, monkeypatch):
    frame = build_chain_frame(k)
    calls = 0
    reflexive = ChainProximity.reflexive

    def counting_reflexive(self, a):
        nonlocal calls
        calls += 1
        return reflexive(self, a)

    monkeypatch.setattr(ChainProximity, "reflexive", counting_reflexive)
    for refl in ({k}, set(range(1, k + 1))):
        p = chain_proximity(frame, refl)
        assert validate_proximity(p).ok
    assert 0 < calls <= 4 * len(frame.segments)


# -- collapse certificate against the reference ---------------------------------


SMALL_FRAMES = [(name, f) for name, f in search_frames(5)]


@pytest.mark.parametrize("name,frame", SMALL_FRAMES, ids=[n for n, _ in SMALL_FRAMES])
def test_collapse_certificate_matches_full_scan(name, frame):
    assert certify_finite_collapse(frame) == ref.certify_collapse(frame)


@pytest.mark.parametrize("name,frame", SMALL_FRAMES, ids=[n for n, _ in SMALL_FRAMES])
def test_collapse_candidates_are_the_masks_passing_weakening(name, frame):
    # every mask the certificate skips fails the weakening axiom, and every
    # one it generates passes it
    free = ref.free_pairs(frame)
    closed = [
        bits for bits in range(1 << len(free))
        if not next(dict(ref.proximity_violations(ref.candidate(frame, free, bits)))
                    ["weakening"], None)
    ]
    assert proximity._weakening_closed(frame, free) == closed


def test_collapse_reports_the_first_survivor_of_the_scan(monkeypatch):
    # when the decision ignores interpolation and approximation, non-order
    # relations survive; the certificate must name the same first one as
    # the reference under the same axioms
    dropped = (proximity._interpolation, proximity._approximation)
    looser = tuple(c for c in proximity._CHEAPEST_FIRST if c not in dropped)
    assert len(looser) == 3
    monkeypatch.setattr(proximity, "_CHEAPEST_FIRST", looser)
    witnessed = []
    for name, frame in SMALL_FRAMES:
        report = certify_finite_collapse(frame)
        assert report == ref.certify_collapse(
            frame, [a for a in ref.AXIOMS if a not in ("interpolation", "approximation")]), name
        if report.witness:
            witnessed.append(name)
    assert witnessed == ["order3", "order4", "order5", "cube2", "vee"]


@pytest.mark.parametrize("name,validations", [("order5", 14), ("vee", 13)])
def test_collapse_validates_only_weakening_closed_relations(name, validations, monkeypatch):
    frame = dict(SMALL_FRAMES)[name]
    calls = 0
    holds = proximity._holds

    def counting(p):
        nonlocal calls
        calls += 1
        return holds(p)

    def refused(p):
        raise AssertionError("a candidate went through the full validator")

    monkeypatch.setattr(proximity, "_holds", counting)
    monkeypatch.setattr(proximity, "validate_proximity", refused)
    report = certify_finite_collapse(frame)
    assert report.ok and report.samples == 2 ** len(ref.free_pairs(frame))
    assert calls == validations


# -- finite validation against the reference ------------------------------------


def _relation(f, keep):
    """The relation {(a, b) : keep(a, b)} on the frame f."""
    return FiniteProximity(f, tuple(
        sum(1 << b for b in range(f.n) if keep(a, b)) for a in range(f.n)))


def _random_relations(f, rng, count):
    """The order, and `count` random sub- and super-relations of it: half
    with the two bound pairs, half missing one or both.  Nothing is
    validated."""
    bot, top = (f.bot, f.bot), (f.top, f.top)
    out = [order_proximity(f)]
    for i in range(count):
        q = rng.choice((0.3, 0.7, 0.9, 0.97))
        missing = () if i % 4 < 2 else rng.choice(((bot,), (top,), (bot, top)))

        def keep(a, b):
            if (a, b) in (bot, top):
                return (a, b) not in missing
            if i % 2:
                return f.leq(a, b) and rng.random() < q
            return f.leq(a, b) or rng.random() > q

        out.append(_relation(f, keep))
    return out


FINITE_FRAMES = ref.chains(range(1, 9)) + ref.cubes(range(5)) + [ref.vee()]


@pytest.mark.parametrize("name,frame", FINITE_FRAMES, ids=[n for n, _ in FINITE_FRAMES])
def test_finite_validation_matches_scan(name, frame):
    rng = random.Random(name)
    rels = _random_relations(frame, rng, 120)
    if frame.n <= 8:
        # every weakening-closed relation: these reach the later axioms
        free = ref.free_pairs(frame)
        rels += [ref.candidate(frame, free, bits)
                 for bits in proximity._weakening_closed(frame, free)]
    failing = 0
    for p in rels:
        report = validate_proximity(p)
        assert report == ref.proximity_report(p), (name, p.pairs())
        failing += not report.ok
    assert 0 < failing < len(rels)


@pytest.mark.parametrize("name,frame", FINITE_FRAMES, ids=[n for n, _ in FINITE_FRAMES])
def test_axiom_checks_and_cheapest_first_decision_match_the_report(name, frame):
    # the relations of test_finite_validation_matches_scan: each axiom's
    # check gives the report's verdict and the reference's, and the
    # decision that stops at the first failing check agrees with the report
    rng = random.Random(name)
    rels = _random_relations(frame, rng, 120)
    if frame.n <= 8:
        free = ref.free_pairs(frame)
        rels += [ref.candidate(frame, free, bits)
                 for bits in proximity._weakening_closed(frame, free)]
    assert [a for a, _ in proximity._AXIOM_CHECKS] == list(ref.AXIOMS)
    assert len(proximity._CHEAPEST_FIRST) == 5
    assert set(proximity._CHEAPEST_FIRST) == {c for _, c in proximity._AXIOM_CHECKS}
    decided = set()
    for p in rels:
        report, expected = validate_proximity(p), ref.proximity_report(p)
        assert proximity._holds(p) == report.ok, (name, p.pairs())
        decided.add(report.ok)
        for axiom, check in proximity._AXIOM_CHECKS:
            assert check(p) == report.verdict(axiom) == expected.verdict(axiom), (
                name, axiom, p.pairs())
    assert decided == {True, False}


@pytest.mark.parametrize("name,frame", FINITE_FRAMES, ids=[n for n, _ in FINITE_FRAMES])
def test_order_report_matches_the_mask_scan(name, frame):
    # the order is accepted without a scan; the scan accepts it too
    p = order_proximity(frame)
    assert validate_proximity(p) == proximity._scan_finite(p)
    assert validate_proximity(p).ok and validate_proximity(p).collapse


@st.composite
def posets(draw):
    k = draw(st.integers(1, 4))
    names = [f"p{i}" for i in range(k)]
    edges = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                          max_size=5))
    return downset_frame(names, [(names[i], names[j]) for i, j in edges if i < j])


@settings(max_examples=25, deadline=None)
@given(posets(), st.integers(0, 2 ** 32))
def test_finite_validation_matches_scan_on_posets(frame, seed):
    for p in _random_relations(frame, random.Random(seed), 12):
        assert validate_proximity(p) == ref.proximity_report(p), p.pairs()
