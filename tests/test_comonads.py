from itertools import product

import pytest

import proxkit.comonads as comonads
import proxkit.roundideal as roundideal
import reference as ref
from proxkit.catalog import catalog_instances, catalog_morphisms
from proxkit.chain import POINT, El, Seq, build_chain_frame
from proxkit.errors import InvalidParameter, NotComposable, NotStablyCompact
from proxkit.comonads import (
    LAWS,
    beta_map,
    c_map,
    check_coalgebra_morphism,
    check_laws,
    cmap_of,
    coalgebra_laws,
    coalgebra_structure,
    describe_instance,
    epsilon_map,
    kleisli_compose,
    m_map,
    retag_map,
)
from proxkit.morphisms import (
    ChainMap,
    FiniteMap,
    compose,
    identity_map,
    is_proper,
    kappa_map,
    sigma_map,
    theta,
    validate_pframemap,
)
from proxkit.proximity import FiniteProximity, chain_proximity, validate_proximity
from proxkit.roundideal import ideal_frame, member, rframe, sigma
from test_pair_rows import one_law, reference_report

# instances small enough for the doubled and tripled ideal frames
LAW_INSTANCES = ("two", "chain3", "diamond", "chain-k1", "chain-k2")


def insts():
    all_ = catalog_instances()
    return {k: all_[k] for k in LAW_INSTANCES}


def k1_rfd():
    return rframe(chain_proximity(build_chain_frame(1), {1}))


def test_max_proximity_is_a_valid_proximity():
    for name, prox in insts().items():
        report = validate_proximity(rframe(prox).maxp)
        assert report.ok, (name, report.failures())


def test_max_proximity_collapses_on_finite_order_instances():
    prox = catalog_instances()["diamond"]
    report = validate_proximity(rframe(prox).maxp)
    assert report.collapse is True  # inclusion refined by <= is just <=


def test_max_proximity_definitions_agree():
    for name, prox in insts().items():
        rep = one_law("maxrel.agreement", rframe(prox))
        assert rep.ok, (name, rep)


def test_max_proximity_contains_way_below():
    for name, prox in insts().items():
        assert one_law("maxrel.contains-wb", rframe(prox)).ok, name


def test_max_proximity_reflexive_limits_track_the_base():
    # chain-k1 base has a reflexive top limit: the class of ideals under
    # it becomes a reflexive limit of the doubled structure
    rfd = k1_rfd()
    maxp = rfd.maxp
    labels = [s.label for s in rfd.frame.segments]
    assert labels == ["P[S0]", "B[L1]", "P[L1]"]
    assert maxp.reflexive_limits == frozenset({El(1, 0)})
    # the way-below structure never has reflexive limits
    assert rfd.wb.reflexive_limits == frozenset()


def test_comonad_laws_all_pass():
    for name, prox in insts().items():
        for which in ("R", "C"):
            for rep in check_laws(rframe(prox), which):
                assert rep.ok, (name, rep)


def test_law_names_cover_both_comonads():
    rfd = rframe(insts()["chain-k1"])
    names_r = [r.law for r in check_laws(rfd, "R")]
    names_c = [r.law for r in check_laws(rfd, "C")]
    assert names_r == ["R.counit.left", "R.counit.right", "R.coassoc",
                       "R.idempotent", "sub.comult", "sub.counit"]
    assert names_c == ["C.counit.left", "C.counit.right", "C.coassoc",
                       "C.comult.nonprincipal", "C.kz", "adj.c-eps",
                       "adj.eps-betakappa", "C.doubled-membership",
                       "maxrel.agreement", "maxrel.contains-wb"]
    # one law by its name gives the report its suite gives
    for suite, name, _ in LAWS:
        assert check_laws(rfd, name) == [r for r in check_laws(rfd, suite) if r.law == name]
    for select in ("Q", "morphisms", "all", "r", ""):
        with pytest.raises(InvalidParameter, match="no object law or suite"):
            check_laws(rfd, select)


def test_doubling_grows_but_redoubling_stabilizes_nothing():
    # the maximal-structure comonad is not idempotent: doubling the k=1
    # chain instance keeps adding classes at the top
    rfd = k1_rfd()
    ccfd = rfd.cc
    labels_c = [s.label for s in ccfd.frame.segments]
    assert labels_c == ["P[P[S0]]", "B[B[L1]]", "P[B[L1]]", "P[P[L1]]"]
    cccfd = ccfd.cc
    assert len(cccfd.frame.segments) == 5  # one more class each round


def test_counit_of_doubled_instance_is_not_injective():
    rfd = k1_rfd()
    eps = epsilon_map(rfd.cc)
    # both the below-class and the principal class at B[L1] join to B[L1]
    assert eps.apply(El(1, 0)) == eps.apply(El(2, 0)) == El(1, 0)


def test_subcomonad_identities():
    for name, prox in insts().items():
        for law in ("sub.comult", "sub.counit"):
            rep = one_law(law, rframe(prox))
            assert rep.ok, (name, rep)


def test_kz_inequality():
    for name, prox in insts().items():
        assert one_law("C.kz", rframe(prox)).ok, name


def test_adjunction_inequalities():
    for name, prox in insts().items():
        for law in ("adj.c-eps", "adj.eps-betakappa"):
            rep = one_law(law, rframe(prox))
            assert rep.ok, (name, rep)


def test_doubled_membership():
    for name, prox in insts().items():
        assert one_law("C.doubled-membership", rframe(prox)).ok, name


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_doubled_membership_matches_reference_on_chains(k):
    for prox in ref.chain_instances(k):
        assert (one_law("C.doubled-membership", rframe(prox))
                == reference_report("C.doubled-membership", rframe(prox)))


def test_doubled_membership_matches_reference_on_finite_catalog():
    for name in ("two", "chain3", "diamond", "cube3"):
        prox = catalog_instances()[name]
        assert (one_law("C.doubled-membership", rframe(prox))
                == reference_report("C.doubled-membership", rframe(prox))), name


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_doubled_membership_witness_is_a_representative(k):
    # the existential over kbar needs no point outside the representatives:
    # ej itself, or the successor of a non-reflexive limit, is a witness
    for prox in with_top(k):
        rfd = rframe(prox)
        maxp, ccfd = rfd.maxp, rfd.cc
        eps_CL = epsilon_map(ccfd)
        reps_C = comonads._reps(rfd, (eps_CL,), pairs=True)
        ideals = [rfd.ideal_of(i) for i in reps_C]
        for jbar in comonads._reps(ccfd, (eps_CL,), pairs=True):
            ej = eps_CL.apply(jbar)
            w = ej if maxp.reflexive(ej) else rfd.frame.successor_of(ej)
            assert w in reps_C and maxp.rel(ej, w), (prox, jbar)
            for I in ideals:
                if member(sigma(rfd.ideal_of(ej)), I):
                    assert member(sigma(rfd.ideal_of(w)), I)


def test_doubled_membership_failure_matches_reference(monkeypatch):
    # membership corrupted at the join itself (a principal ideal loses its
    # generator, the ideal under a limit gains the limit) breaks the lemma
    # on every chain with a limit that is not reflexive.  The rows still
    # read it: they test membership only at the join, and under it
    # everything is in, over it nothing.  The lemma must stop at the
    # (jbar, ibar) where the reference, under the same corrupted
    # membership, finds its first violation.  With every limit reflexive, as in chain-k1
    # and one chain of each k, no membership of that shape breaks the
    # lemma, so those pass and must agree as well.
    monkeypatch.setattr(roundideal, "member",
                        lambda b, I: member(b, I) != (b == sigma(I)))
    cases = [insts()["chain-k1"], insts()["chain-k2"],
             *(prox for k in (1, 2, 3) for prox in ref.chain_instances(k))]
    failed = 0
    for prox in cases:
        got = one_law("C.doubled-membership", rframe(prox))
        assert got == reference_report(
            "C.doubled-membership", rframe(prox),
            contains=lambda I, b: ref.contains(I, b) != (b == ref.sup(I)))
        all_reflexive = prox.reflexive_limits == frozenset(prox.frame.limits())
        assert got.ok == all_reflexive, prox.reflexive_limits
        failed += not got.ok
    assert failed


def _flipped_maxp(prox):
    """rframe(prox) with the maximal relation's pair (a, b) flipped, for
    each pair of a finite instance.  The doubled frame `cc` stays the true
    one: rframe refuses the flipped relation, which is not the order."""
    rows = rframe(prox).maxp.rows
    for a, b in product(range(len(rows)), repeat=2):
        rfd = rframe(prox)
        vars(rfd)["cc"] = rfd.cc  # kept: built before the flip
        flipped = (*rows[:a], rows[a] ^ 1 << b, *rows[a + 1:])
        vars(rfd)["maxp"] = FiniteProximity(rfd.frame, flipped)
        yield rfd


def test_doubled_membership_failure_matches_reference_on_finite_catalog():
    # a finite frame's rows read ideal masks, not `member`, so here the
    # lemma is broken by flipping one pair of the maximal relation.  The
    # lemma and the reference must report alike on every flip.
    failed = 0
    for name, prox in insts().items():
        if not isinstance(prox, FiniteProximity):
            continue
        for rfd in _flipped_maxp(prox):
            got = one_law("C.doubled-membership", rfd)
            assert got == reference_report("C.doubled-membership", rfd), name
            failed += not got.ok
    assert failed


# -- per-class representatives against the reference window ---------------------


def with_top(k):
    """The chains of k blocks with every reflexive set holding the top."""
    return [p for p in ref.reflexive_subsets(build_chain_frame(k))
            if p.reflexive(p.frame.top)]


def reference_verdicts(prox):
    """The per-class laws on the ideal frame of prox at every point of
    the reference window past the horizon of the maps they apply."""
    rfd = rframe(prox)
    ccfd = rfd.cc
    maps = (c_map(rfd), epsilon_map(ccfd), cmap_of(epsilon_map(rfd), ccfd, rfd),
            retag_map(kappa_map(ccfd), rfd.maxp, ccfd.maxp))
    return ref.class_laws(rfd, *maps, ref.depth_for(*maps))


PER_CLASS = ("C.kz", "adj.c-eps", "adj.eps-betakappa", "C.doubled-membership",
             "maxrel.agreement", "maxrel.contains-wb")


def per_class_verdicts(prox):
    rfd = rframe(prox)
    return {law: one_law(law, rfd).ok for law in PER_CLASS}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_per_class_laws_match_reference(k):
    for prox in ref.chain_instances(k):
        assert reference_verdicts(prox) == per_class_verdicts(prox), prox.reflexive_limits


def test_per_class_laws_match_reference_on_finite_catalog():
    for name in ("two", "chain3", "diamond"):
        prox = insts()[name]
        assert reference_verdicts(prox) == per_class_verdicts(prox), name


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_law_maps_are_lockstep_past_horizon_zero(k):
    # the premise of _reps: no exceptions, and every tail is a constant on
    # a point segment or n -> El(seg, n)
    for prox in with_top(k):
        rfd = rframe(prox)
        ccfd = rfd.cc
        maps = (c_map(rfd), epsilon_map(ccfd), sigma_map(rfd),
                kappa_map(rfd), cmap_of(epsilon_map(rfd), ccfd, rfd),
                retag_map(kappa_map(ccfd), rfd.maxp, ccfd.maxp))
        for m in maps:
            for s in m.rules:
                assert s.horizon() == 0, (prox, m)
                if s.is_affine:
                    assert (s.a, s.b) == (1, 0), (prox, m)
                else:
                    assert m.dst.frame.segments[s.const.seg].kind == POINT


def test_reps_cover_a_late_exception():
    rfd = k1_rfd()
    f = ChainMap(rfd.wb, rfd.wb, (
        Seq.affine(0, 1, 0, ((50, El(0, 51)),)),
        Seq.constant(El(1, 0)),
        Seq.constant(El(2, 0)),
    ))
    block = [e.n for e in comonads._reps(rfd, (f,)) if e.seg == 0]
    assert block == list(range(52))
    pairs = [e.n for e in comonads._reps(rfd, (f,), pairs=True) if e.seg == 0]
    assert pairs == list(range(53))
    assert len(comonads._reps(rfd)) == 3  # no maps: one point per block


# -- coalgebras ----------------------------------------------------------------


def test_coalgebra_laws_on_stably_compact_instances():
    for name in ("two", "chain3", "diamond"):
        for rep in coalgebra_laws(rframe(insts()[name])):
            assert rep.ok, (name, rep)
    # ideal frames of chain instances are stably compact even though the
    # bases are not: the point classes cap every limit
    for name in ("chain-k1", "chain-k2"):
        rfd = rframe(insts()[name])
        for rep in coalgebra_laws(rfd.rr):
            assert rep.ok, (name, rep)


def test_no_coalgebra_without_stable_compactness():
    # every plain chain base tops out at a limit point
    for name in ("chain-k1", "chain-k2"):
        rfd = rframe(insts()[name])
        reps = coalgebra_laws(rfd)
        assert len(reps) == 1 and not reps[0].ok
        with pytest.raises(NotStablyCompact):
            coalgebra_structure(rfd)


def test_coalgebra_morphism_square_iff_proper():
    # a proper frame map: the square commutes and the report passes
    prox = insts()["diamond"]
    rfd = rframe(prox)
    rep = check_coalgebra_morphism(identity_map(prox), rfd, rfd)
    assert rep.ok and "square=holds; proper=True" in rep.note

    # a frame map on the doubled k=1 instance that is not proper: it
    # collapses the strictly-increasing tail onto the limit class
    ccfd = k1_rfd().cc
    maxp = ccfd.base
    f = maxp.frame
    B, P0, T = El(1, 0), El(0, 0), El(2, 0)
    w = ChainMap(maxp, maxp, (
        Seq.constant(B, ((0, P0),)),
        Seq.constant(B),
        Seq.constant(T),
    ))
    assert validate_pframemap(w).ok
    assert not is_proper(w)
    rep = check_coalgebra_morphism(w, ccfd, ccfd)
    assert rep.ok and "square=fails; proper=False" in rep.note

    # maps that do not preserve the proximities are rejected outright
    bad = ChainMap(maxp, maxp, (
        Seq.constant(P0),  # constant under the limit: joins break
        Seq.constant(B),
        Seq.constant(T),
    ))
    assert not validate_pframemap(bad).ok
    rep = check_coalgebra_morphism(bad, ccfd, ccfd)
    assert not rep.ok and "does not preserve" in rep.note

    # maps between non-stably-compact instances are rejected too
    g = catalog_morphisms()["k2-g"]
    rep = check_coalgebra_morphism(g, rframe(g.src), rframe(g.dst))
    assert not rep.ok and "stably compact" in rep.note


# -- naturality and the Kleisli picture ----------------------------------------


def test_naturality_squares_on_catalog_morphisms():
    from proxkit.comonads import naturality_suite

    for name, m in catalog_morphisms().items():
        reports = naturality_suite(m, rframe(m.src), rframe(m.dst))
        assert reports, name
        for rep in reports:
            assert rep.ok, (name, rep)
        names = [r.law for r in reports]
        if name == "chain-h":
            assert names == ["nat.m"]  # homomorphism but not a frame map
        if name == "chain-double":
            assert names == ["nat.m", "nat.sigma", "nat.r", "nat.beta",
                             "nat.c", "nat.maxrel-preserved"]


def test_kleisli_identity_and_functor_law():
    ms = catalog_morphisms()
    f, g = ms["k2-f"], ms["k2-g"]
    from proxkit.morphisms import star_compose

    rfd = rframe(f.src)
    tf, tg = theta(f, rfd), theta(g, rfd)
    # the join map is the Kleisli identity
    assert kleisli_compose(tf, sigma_map(rfd), rfd, rfd) == tf
    assert kleisli_compose(sigma_map(rfd), tf, rfd, rfd) == tf
    # theta turns star composition into Kleisli composition
    assert theta(star_compose(g, f), rfd) == kleisli_compose(tg, tf, rfd, rfd)


def test_retag_guard_and_beta_epsilon_relation():
    rfd = k1_rfd()
    other = rframe(insts()["diamond"])
    with pytest.raises(NotComposable):
        retag_map(identity_map(rfd.wb), rfd.wb, other.wb)
    # epsilon restricted along beta is the plain join map
    assert compose(epsilon_map(rfd), beta_map(rfd)) == sigma_map(rfd)


def test_m_map_is_a_frame_map_into_all_ideals():
    for name in ("diamond", "chain-k1", "chain-k2"):
        rfd = rframe(insts()[name])
        rep = validate_pframemap(m_map(rfd, ideal_frame(rfd.base.frame)))
        assert rep.ok, (name, rep.failures())


def test_describe_instance_strings():
    d = describe_instance(insts()["diamond"])
    assert d == "finite:0,1,a,b" or d.startswith("finite:")
    c = describe_instance(insts()["chain-k2"])
    assert c.startswith("chain:[") and "R=[L2]" in c


# -- failing reports ------------------------------------------------------------


def _sunk(m):
    """m with every value sent to the bottom of its target: a broken
    structure map of the same kind, source and target."""
    bot = m.dst.frame.bot
    if isinstance(m, FiniteMap):
        return FiniteMap._unchecked(m.src, m.dst, (bot,) * len(m.table))
    return ChainMap._unchecked(m.src, m.dst, tuple(Seq.constant(bot) for _ in m.rules))


def _sink(monkeypatch, name):
    """Replace the structure map `name` of the law harness by its sunk copy."""
    build = getattr(comonads, name)
    monkeypatch.setattr(comonads, name, lambda *args: _sunk(build(*args)))


def _report(r):
    return r.law, r.verdict, r.witness, r.samples


def _harness_class_laws(rfd):
    """reference.class_laws on the maps the harness applies, looked up
    through the module, so that a sunk map is the one compared."""
    ccfd = rfd.cc
    maps = (comonads.c_map(rfd), comonads.epsilon_map(ccfd),
            comonads.cmap_of(comonads.epsilon_map(rfd), ccfd, rfd),
            retag_map(comonads.kappa_map(ccfd), rfd.maxp, ccfd.maxp))
    return ref.class_laws(rfd, *maps, ref.depth_for(*maps))


def test_map_equality_law_reports_both_maps_when_it_fails(monkeypatch):
    # r sunk to the bottom: sigma after r sends 1 to 0, not to itself
    _sink(monkeypatch, "r_map")
    reports = check_laws(rframe(insts()["two"]), "R")
    assert [r.ok for r in reports] == [False, False, True, False, False, True]
    assert _report(reports[0]) == (
        "R.counit.left", "fail",
        ("FiniteMap{dn(0)->dn(0), dn(1)->dn(0)}", "FiniteMap{dn(0)->dn(0), dn(1)->dn(1)}"), 0)


@pytest.mark.parametrize("name, witness", [
    ("two", ("1",)), ("diamond", ("1",)), ("chain-k1", ("El(1,0)",)), ("chain-k2", ("El(1,0)",))])
def test_kz_reports_its_first_failing_representative(name, witness, monkeypatch):
    # the functor image of the counit sunk to the bottom: the second
    # representative, the first the counit sends above the bottom, fails
    _sink(monkeypatch, "cmap_of")
    rfd = rframe(insts()[name])
    assert _report(one_law("C.kz", rfd)) == ("C.kz", "fail", witness, 2)
    assert _harness_class_laws(rfd)["C.kz"] is False


@pytest.mark.parametrize("sunk, law, name, witness, samples", [
    ("c_map", "adj.c-eps", "two", ("1",), 6),
    ("c_map", "adj.c-eps", "chain-k1", ("El(2,0)",), 10),
    ("c_map", "adj.c-eps", "chain-k2", ("El(4,0)",), 16),
    ("kappa_map", "adj.eps-betakappa", "diamond", ("3",), 12),
    ("kappa_map", "adj.eps-betakappa", "chain-k1", ("El(3,0)",), 10),
    ("kappa_map", "adj.eps-betakappa", "chain-k2", ("El(5,0)",), 16)])
def test_adjunction_reports_its_last_failing_representative(sunk, law, name, witness,
                                                            samples, monkeypatch):
    # c sunk breaks only the first inequality pair, kappa only the second;
    # the witness is the last failing element and samples counts every check
    _sink(monkeypatch, sunk)
    rfd = rframe(insts()[name])
    reports = {law: one_law(law, rfd) for law in ("adj.c-eps", "adj.eps-betakappa")}
    assert _report(reports[law]) == (law, "fail", witness, samples)
    assert [r.ok for r in reports.values()] == [law != "adj.c-eps", law == "adj.c-eps"]
    expected = _harness_class_laws(rfd)
    assert {r: expected[r] for r in reports} == {r: reports[r].ok for r in reports}


@pytest.mark.parametrize("name", ["chain-k1", "chain-k2"])
def test_nonprincipal_comultiplication_reports_the_first_limit(name, monkeypatch):
    # c sunk to the bottom sends the first limit L1 to a principal ideal
    _sink(monkeypatch, "c_map")
    report = one_law("C.comult.nonprincipal", rframe(insts()[name]))
    assert _report(report) == (
        "C.comult.nonprincipal", "fail", ("Prin(P[S0].0)", "Below(B[L1])"), 1)


def test_nonprincipal_comultiplication_checks_the_directed_union(monkeypatch):
    # the directed union below L1 read as the constant family at its first
    # member: a principal ideal, not the ideal under L1
    monkeypatch.setattr(comonads, "dir_sup",
                        lambda p, seq: roundideal.dir_sup(p, Seq.constant(seq.value(0))))
    report = one_law("C.comult.nonprincipal", rframe(insts()["chain-k2"]))
    assert _report(report) == (
        "C.comult.nonprincipal", "fail", ("Prin(P[S0].0)", "Below(B[L1])"), 1)
