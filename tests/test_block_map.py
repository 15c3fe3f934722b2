"""Differential oracles for `morphisms.block_map`, θ, R(f) and the ideal
codec `RFrameData.ideals`.

The identity, the join map sigma, the approximant map kappa, the left
adjoint alpha and the inclusion m of round ideals into all ideals are
all built by `block_map`, and θ and R(f) by its segment loop.  The
builders they replaced are kept here, segment by segment as they were,
over the codec they read: a bitmask per element of a finite ideal frame,
and a tagged descriptor per segment of a chain one.  Both must give
equal maps and equal codec answers on every chain layout of the golden
CLI set whose top is reflexive, on the levels of its ideal-frame towers,
on the catalog, and on every proximity homomorphism between the small
finite catalog frames.
"""

import pytest

from proxkit.catalog import catalog_instances, catalog_morphisms
from proxkit.chain import OMEGA, El, Seq, build_chain_frame
from proxkit.comonads import m_map
from proxkit.errors import NotStablyCompact, ProxkitError, UnsupportedRepresentation
from proxkit.finite import _bits, _frame_of_masks
from proxkit.morphisms import (
    ChainMap,
    FiniteMap,
    alpha_map,
    enumerate_proxhoms,
    identity_map,
    kappa_map,
    rmap_map,
    sigma_map,
    theta,
)
from proxkit.proximity import FiniteProximity, chain_proximity, order_proximity
from proxkit.roundideal import (
    BelowLim,
    FinIdeal,
    Prin,
    ideal_frame,
    is_stably_compact,
    kappa,
    retag,
    rframe,
    rmap,
    sigma,
)
from test_cli_golden import chain_docs


# -- the old codec ---------------------------------------------------------------


def old_masks(prox):
    """The ideal mask of each element, in the order `_frame_of_masks`
    gives the ideal frame's elements."""
    f, rows = prox.frame, prox.rows
    xs = [x for x, d in enumerate(f.down) if all(rows[b] & d for b in _bits(d))]
    return _frame_of_masks([f"dn({f.names[x]})" for x in xs],
                           [f.down[x] for x in xs])[1]


def old_descs(prox):
    """One descriptor per segment of the chain ideal frame."""
    f = prox.frame
    descs = []
    for i, s in enumerate(f.segments):
        e = El(i, 0)
        if s.kind == OMEGA:
            descs.append(("prin_block", i))
        elif f.is_limit(e):
            descs.append(("below", e))
            if e in prox.reflexive_limits:
                descs.append(("prin", e))
        else:
            descs.append(("prin", e))
    return tuple(descs)


class OldCodec:
    """The codec of the ideal frame of `base` as it was: `ideal_of` reads
    the masks or descriptors, and `el_of` inverts them through a dict."""

    def __init__(self, base):
        self.base = base
        self.finite = isinstance(base, FiniteProximity)
        self.keys = old_masks(base) if self.finite else old_descs(base)
        self.codes = {key: i for i, key in enumerate(self.keys)}

    def ideal_of(self, el):
        if self.finite:
            return FinIdeal(self.base, self.keys[el])
        kind, payload = self.keys[el.seg]
        if kind == "prin_block":
            return Prin(self.base, El(payload, el.n))
        if kind == "prin":
            return Prin(self.base, payload)
        return BelowLim(self.base, payload)

    def el_of(self, ideal):
        codes = self.codes
        if isinstance(ideal, FinIdeal):
            if ideal.mask in codes:
                return codes[ideal.mask]
        elif isinstance(ideal, BelowLim):
            if ("below", ideal.lim) in codes:
                return El(codes["below", ideal.lim], 0)
        elif ("prin", ideal.a) in codes:
            return El(codes["prin", ideal.a], 0)
        elif ("prin_block", ideal.a.seg) in codes:
            return El(codes["prin_block", ideal.a.seg], ideal.a.n)
        raise UnsupportedRepresentation(f"{ideal!r} is not in the classification")

    def segment_ideals(self):
        return tuple(self.ideal_of(El(s, 0)) for s in range(len(self.keys)))


# -- the old builders ------------------------------------------------------------


def old_sigma(ideal):
    """The join of an ideal as it was taken: on a finite frame, over every
    element, in index order, that the mask holds."""
    if not isinstance(ideal, FinIdeal):
        return sigma(ideal)
    f = ideal.prox.frame
    j = f.bot
    for b in f.elements():
        if (ideal.mask >> b) & 1:
            j = f.join(j, b)
    return j


def old_rmap(f, ideal):
    """rmap with the old join: a finite ideal goes to the approximants of
    f at its join."""
    if isinstance(ideal, FinIdeal):
        return kappa(f.dst, f.apply(old_sigma(ideal)))
    return rmap(f, ideal)


def old_identity_map(prox):
    if isinstance(prox, FiniteProximity):
        return FiniteMap(prox, prox, tuple(prox.frame.elements()))
    rules = []
    for i, s in enumerate(prox.frame.segments):
        if s.kind == OMEGA:
            rules.append(Seq.affine(i, 1, 0))
        else:
            rules.append(Seq.constant(El(i, 0)))
    return ChainMap(prox, prox, tuple(rules))


def old_sigma_map(rfd):
    old = OldCodec(rfd.base)
    if old.finite:
        table = tuple(old_sigma(old.ideal_of(i)) for i in rfd.frame.elements())
        return FiniteMap(rfd.wb, rfd.base, table)
    rules = []
    for seg, ideal in zip(rfd.frame.segments, old.segment_ideals()):
        if seg.kind == OMEGA:  # Prin(El(b, n)) joins to El(b, n)
            rules.append(Seq.affine(ideal.a.seg, 1, 0))
        else:
            rules.append(Seq.constant(sigma(ideal)))
    return ChainMap(rfd.wb, rfd.base, tuple(rules))


def old_pointed_ideal_map(rfd, use_wb):
    """kappa_map (use_wb=False) and alpha_map (use_wb=True) as they were."""
    prox = rfd.base
    old = OldCodec(prox)
    if old.finite:
        table = tuple(old.el_of(kappa(prox, a)) for a in prox.frame.elements())
        return FiniteMap(prox, rfd.wb, table)
    frame = prox.frame
    rules = []
    for i, s in enumerate(frame.segments):
        e = El(i, 0)
        if s.kind == OMEGA:
            target = old.el_of(Prin(prox, e))
            rules.append(Seq.affine(target.seg, 1, 0))
        else:
            refl = (not frame.is_limit(e)) if use_wb else prox.reflexive(e)
            ideal = Prin(prox, e) if refl else BelowLim(prox, e)
            rules.append(Seq.constant(old.el_of(ideal)))
    return ChainMap(prox, rfd.wb, tuple(rules))


def old_m_map(rfd, jfd):
    old, jold = OldCodec(rfd.base), OldCodec(jfd.base)
    if old.finite:
        table = tuple(
            jold.el_of(retag(old.ideal_of(i), jfd.base))
            for i in rfd.frame.elements()
        )
        return FiniteMap(rfd.wb, jfd.wb, table)
    rules = []
    for seg, ideal in zip(rfd.frame.segments, old.segment_ideals()):
        target = jold.el_of(retag(ideal, jfd.base))
        if seg.kind == OMEGA:  # Prin(El(b, n)) goes to Prin(El(b, n))
            rules.append(Seq.affine(target.seg, 1, 0))
        else:
            rules.append(Seq.constant(target))
    return ChainMap(rfd.wb, jfd.wb, tuple(rules))


def old_theta(f, rfd):
    old = OldCodec(rfd.base)
    if isinstance(f, FiniteMap):
        table = tuple(old_sigma(old_rmap(f, old.ideal_of(i)))
                      for i in rfd.frame.elements())
        return FiniteMap(rfd.wb, f.dst, table)
    rules = []
    for seg, ideal in zip(rfd.frame.segments, old.segment_ideals()):
        if seg.kind == OMEGA:  # Prin(El(b, n)) goes to f(El(b, n))
            rules.append(f.rules[ideal.a.seg])
        else:
            rules.append(Seq.constant(old_sigma(rmap(f, ideal))))
    return ChainMap(rfd.wb, f.dst, tuple(rules))


def old_rmap_map(f, src_rfd, dst_rfd):
    src, dst = OldCodec(src_rfd.base), OldCodec(dst_rfd.base)
    if isinstance(f, FiniteMap):
        table = tuple(
            dst.el_of(old_rmap(f, src.ideal_of(i))) for i in src_rfd.frame.elements()
        )
        return FiniteMap(src_rfd.wb, dst_rfd.wb, table)
    rules = []
    for seg, ideal in zip(src_rfd.frame.segments, src.segment_ideals()):
        if seg.kind != OMEGA:
            rules.append(Seq.constant(dst.el_of(rmap(f, ideal))))
            continue
        rule = f.rules[ideal.a.seg]
        exc = tuple((m, dst.el_of(kappa(f.dst, v))) for m, v in rule.exceptions)
        if rule.is_affine:
            probe = dst.el_of(Prin(f.dst, El(rule.seg, 0)))
            rules.append(Seq.affine(probe.seg, rule.a, rule.b, exc))
        else:
            rules.append(Seq.constant(dst.el_of(kappa(f.dst, rule.const)), exc))
    return ChainMap(src_rfd.wb, dst_rfd.wb, tuple(rules))


# -- comparisons -----------------------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the type and message of the ProxkitError it raises."""
    try:
        return fn(*args)
    except ProxkitError as exc:
        return type(exc), str(exc)


def assert_block_maps_agree(rfd):
    """Every block_map builder on rfd, its base and its way-below
    proximity equals the builder it replaced."""
    for prox in (rfd.base, rfd.wb, rfd.maxp):
        assert identity_map(prox) == old_identity_map(prox)
    assert sigma_map(rfd) == old_sigma_map(rfd)
    assert kappa_map(rfd) == old_pointed_ideal_map(rfd, use_wb=False)
    if is_stably_compact(rfd.base):
        assert alpha_map(rfd) == old_pointed_ideal_map(rfd, use_wb=True)
    jfd = ideal_frame(rfd.base.frame)
    assert m_map(rfd, jfd) == old_m_map(rfd, jfd)


def assert_theta_and_rmap_agree(f, src_rfd, dst_rfd):
    """θ and R(f) equal the loops they replaced, or fail alike."""
    assert outcome(theta, f, src_rfd) == outcome(old_theta, f, src_rfd)
    assert (outcome(rmap_map, f, src_rfd, dst_rfd)
            == outcome(old_rmap_map, f, src_rfd, dst_rfd))


def assert_codecs_agree(rfd, ideals):
    """ideal_of agrees with the old codec on every element or segment
    start, and el_of on those ideals and on the ideals of rfd.base among
    `ideals`, refusals included; el_of refuses every other ideal, which
    the old codec looked up by its code alone.  Returns the number of
    refusals seen."""
    old = OldCodec(rfd.base)
    if old.finite:
        els = list(rfd.frame.elements())
    else:
        els = [El(s, n) for s, seg in enumerate(rfd.frame.segments)
               for n in ((0, 1, 7) if seg.kind == OMEGA else (0,))]
    for e in els:
        assert rfd.ideal_of(e) == old.ideal_of(e)
        assert rfd.el_of(rfd.ideal_of(e)) == old.el_of(rfd.ideal_of(e)) == e
    refused = 0
    for ideal in ideals:
        new = outcome(rfd.el_of, ideal)
        if ideal.prox != rfd.base:
            assert new == (UnsupportedRepresentation,
                           f"{ideal!r} is not in the classification: "
                           f"it is a round ideal of another proximity"), ideal
        else:
            assert new == outcome(old.el_of, ideal), ideal
        if isinstance(new, tuple):
            assert new[0] is UnsupportedRepresentation
            refused += 1
    return refused


def _tower(prox):
    """The ideal frame of prox and the next levels of both towers."""
    rfd = rframe(prox)
    return [rfd, rfd.rr, rfd.cc, rfd.rr.rr, rfd.cc.cc]


CHAIN_DOCS = {path: doc for path, doc in chain_docs().items()
              if doc["k"] in doc["reflexive"]}
FINITE = ["two", "chain3", "diamond", "cube3"]


@pytest.mark.parametrize("doc", CHAIN_DOCS.values(), ids=list(CHAIN_DOCS))
def test_block_map_matches_the_old_chain_builders(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    levels = _tower(prox)
    # every base layout has a limit top, so alpha is refused there and
    # defined on each ideal frame above it
    with pytest.raises(NotStablyCompact, match="^left adjoint needs a stably compact base$"):
        alpha_map(levels[0])
    assert all(is_stably_compact(rfd.base) for rfd in levels[1:])
    for rfd in levels:
        assert_block_maps_agree(rfd)


@pytest.mark.parametrize("name", FINITE)
def test_block_map_matches_the_old_finite_builders(name):
    for rfd in _tower(catalog_instances()[name]):
        assert_block_maps_agree(rfd)


def test_alpha_map_refuses_the_chain_k1_base():
    with pytest.raises(NotStablyCompact, match="^left adjoint needs a stably compact base$"):
        alpha_map(rframe(catalog_instances()["chain-k1"]))


@pytest.mark.parametrize("doc", CHAIN_DOCS.values(), ids=list(CHAIN_DOCS))
def test_codec_matches_the_old_chain_codec(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    fin = catalog_instances()["diamond"]
    refused = 0
    for rfd in _tower(prox):
        base, frame = rfd.base, rfd.base.frame
        reps = frame.class_representatives(3)
        # Prin at a limit that base leaves non-reflexive is not round, so
        # the order proximity builds it; el_of refuses it
        order = order_proximity(frame)
        ideals = [kappa(base, a) for a in reps]
        ideals += [BelowLim(base, e) for e in frame.limits()]
        ideals += [Prin(order, a) for a in reps]
        ideals.append(FinIdeal(fin, 1))
        refused += assert_codecs_agree(rfd, ideals)
    assert refused >= 5


@pytest.mark.parametrize("name", FINITE)
def test_codec_matches_the_old_finite_codec(name):
    chain = catalog_instances()["chain-k1"]
    for rfd in _tower(catalog_instances()[name]):
        base = rfd.base
        ideals = [FinIdeal(base, m) for m in range(1 << base.frame.n)]
        ideals.append(Prin(chain, El(0, 3)))
        # every mask without bot, and the chain ideal, is refused
        assert assert_codecs_agree(rfd, ideals) >= (1 << (base.frame.n - 1)) + 1


@pytest.mark.parametrize("doc", CHAIN_DOCS.values(), ids=list(CHAIN_DOCS))
def test_theta_and_rmap_match_the_old_loops_on_chain_towers(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    for rfd in _tower(prox):
        assert_theta_and_rmap_agree(identity_map(rfd.base), rfd, rfd)
        assert_theta_and_rmap_agree(kappa_map(rfd), rfd, rfd.rr)
        assert_theta_and_rmap_agree(sigma_map(rfd), rfd.rr, rfd)
        if is_stably_compact(rfd.base):
            assert_theta_and_rmap_agree(alpha_map(rfd), rfd, rfd.rr)


@pytest.mark.parametrize("name", FINITE)
def test_theta_and_rmap_match_the_old_loops_on_finite_towers(name):
    # theta on a finite source reads the kept joins of both ends
    for rfd in _tower(catalog_instances()[name]):
        assert_theta_and_rmap_agree(identity_map(rfd.base), rfd, rfd)
        assert_theta_and_rmap_agree(kappa_map(rfd), rfd, rfd.rr)
        assert_theta_and_rmap_agree(sigma_map(rfd), rfd.rr, rfd)
        assert_theta_and_rmap_agree(alpha_map(rfd), rfd, rfd.rr)


@pytest.mark.parametrize("name", list(catalog_morphisms()))
def test_theta_and_rmap_match_the_old_loops_on_catalog_morphisms(name):
    f = catalog_morphisms()[name]
    assert_theta_and_rmap_agree(f, rframe(f.src), rframe(f.dst))


def test_theta_and_rmap_match_the_old_loops_on_enumerated_maps():
    small = [catalog_instances()[name] for name in FINITE]
    small = [p for p in small if p.frame.n <= 4]
    count = 0
    for src in small:
        for dst in small:
            for f in enumerate_proxhoms(src, dst):
                assert_theta_and_rmap_agree(f, rframe(src), rframe(dst))
                count += 1
    assert count > len(small) ** 2
