"""The structure maps, θ, R(f) and the ideal codec `RFrameData.ideals`
against the definitions in `reference`.

The identity, the join map sigma, the approximant map kappa, the left
adjoint alpha and the inclusion m of round ideals into all ideals are
all built by `morphisms._block_map` from values kept at the segment
starts (kappa and alpha from the code tables `RFrameData.kappa_codes`
and `alpha_codes`), and θ and R(f) by one pass of `_image_map` over f's
rules.  Each must send every point of the reference window to the value
the definition gives, through the codec, which must list the round
ideals in inclusion order: on every chain layout of the golden CLI set
whose top is reflexive, on the levels of its ideal-frame towers, on the
catalog, and on every proximity homomorphism between the small finite
catalog frames.  `rmap_map` refuses the ideal frames of other
proximities, as θ does.
"""

import pytest

import reference as ref
from proxkit.catalog import catalog_instances, catalog_morphisms
from proxkit.chain import El, build_chain_frame
from proxkit.comonads import m_map
from proxkit.errors import NotComposable, NotStablyCompact, UnsupportedRepresentation
from proxkit.morphisms import (
    FiniteMap,
    alpha_map,
    enumerate_proxhoms,
    identity_map,
    kappa_map,
    rho,
    rmap_map,
    sigma_map,
    theta,
)
from proxkit.proximity import FiniteProximity, chain_proximity, order_proximity
from proxkit.roundideal import BelowLim, Prin, ideal_frame, is_stably_compact, rframe
from test_cli_golden import chain_docs


def assert_map(m, src, dst, value, *maps):
    """m is the map src -> dst sending each point x of the window to
    value(x, depth)."""
    assert (m.src, m.dst) == (src, dst)
    depth = ref.depth_for(m, *maps)
    for x in ref.points(src.frame, depth):
        assert m.apply(x) == value(x, depth), (m, x)


def ideal(rfd, x, depth):
    return ref.codec(rfd.base, rfd.frame, depth)[x]


def point(rfd, i):
    return ref.element(rfd.base, rfd.frame, i)


def assert_block_maps_agree(rfd):
    """Every block_map builder on rfd, its base and its way-below
    proximity is the map the definition gives."""
    base = rfd.base
    for prox in (base, rfd.wb, rfd.maxp):
        assert_map(identity_map(prox), prox, prox, lambda x, d: x)
    assert_map(sigma_map(rfd), rfd.wb, base, lambda x, d: ref.sup(ideal(rfd, x, d)))
    assert_map(kappa_map(rfd), base, rfd.wb,
               lambda a, d: point(rfd, ref.approximants(base, a)))
    if is_stably_compact(base):
        assert_map(alpha_map(rfd), base, rfd.wb,
                   lambda a, d: point(rfd, ref.way_below_set(base, a)))
    jfd = ideal_frame(base.frame)
    assert_map(m_map(rfd, jfd), rfd.wb, jfd.wb,
               lambda x, d: point(jfd, ref.as_ideal_of(ideal(rfd, x, d), jfd.base)))


def assert_theta_and_rmap_agree(f, src_rfd, dst_rfd):
    """θ(f), R(f) and ρ(θ(f)) are the maps the definitions give."""
    t = theta(f, src_rfd)
    assert_map(t, src_rfd.wb, f.dst,
               lambda x, d: ref.theta(f, ideal(src_rfd, x, d), d), f)
    assert_map(rmap_map(f, src_rfd, dst_rfd), src_rfd.wb, dst_rfd.wb,
               lambda x, d: point(dst_rfd, ref.image(f, ideal(src_rfd, x, d), d)), f)
    assert_map(rho(t, src_rfd), f.src, f.dst,
               lambda a, d: ref.theta(f, ref.approximants(f.src, a), d), f)


def assert_codec_agrees(rfd, ideals):
    """ideal_of and el_of agree with the reference codec on every point of
    the window, and way-below on the ideal frame is the definition's;
    el_of refuses every ideal of `ideals` that the codec lacks, and every
    ideal of another proximity.  Returns the number of refusals."""
    codec = ref.codec(rfd.base, rfd.frame, 8)
    for x, i in codec.items():
        assert rfd.ideal_of(x) == i and rfd.el_of(i) == x
        for y, j in codec.items():
            assert rfd.wb.rel(x, y) == ref.way_below(i, j), (i, j)
    refused = 0
    for i in ideals:
        x = ref.element(rfd.base, rfd.frame, i) if i.prox == rfd.base else None
        if x is not None:
            assert rfd.el_of(i) == x
            continue
        message = ("it is a round ideal of another proximity" if i.prox != rfd.base
                   else "not in the classification$")
        with pytest.raises(UnsupportedRepresentation, match=message):
            rfd.el_of(i)
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
def test_block_map_matches_the_reference_chain_builders(doc):
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
def test_block_map_matches_the_reference_finite_builders(name):
    for rfd in _tower(catalog_instances()[name]):
        assert_block_maps_agree(rfd)


def test_alpha_map_refuses_the_chain_k1_base():
    with pytest.raises(NotStablyCompact, match="^left adjoint needs a stably compact base$"):
        alpha_map(rframe(catalog_instances()["chain-k1"]))


@pytest.mark.parametrize("doc", CHAIN_DOCS.values(), ids=list(CHAIN_DOCS))
def test_codec_matches_the_reference_chain_codec(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    fin = catalog_instances()["diamond"]
    refused = 0
    for rfd in _tower(prox):
        base, frame = rfd.base, rfd.base.frame
        points = ref.points(frame, 3)
        # Prin at a limit that base leaves non-reflexive is not round, so
        # the order proximity builds it; el_of refuses it
        order = order_proximity(frame)
        ideals = [ref.approximants(base, a) for a in points]
        ideals += [BelowLim(base, e) for e in frame.limits()]
        ideals += [Prin(order, a) for a in points]
        ideals.append(Prin(fin, fin.frame.top))
        refused += assert_codec_agrees(rfd, ideals)
    assert refused >= 5


@pytest.mark.parametrize("name", FINITE)
def test_codec_matches_the_reference_finite_codec(name):
    chain = catalog_instances()["chain-k1"]
    for rfd in _tower(catalog_instances()[name]):
        base, frame = rfd.base, rfd.base.frame
        # every round ideal of the order is the downset of its join; the
        # ideals of other proximities are refused: of a chain, either kind,
        # of the diagonal relation on this frame, whose codes name its
        # elements, and of the order on another frame
        diagonal = FiniteProximity(frame, tuple(1 << x for x in frame.elements()))
        ideals = [Prin(base, a) for a in frame.elements()]
        ideals += [Prin(diagonal, a) for a in frame.elements()]
        ideals += [Prin(chain, El(0, 3)), BelowLim(chain, El(1, 0)),
                   Prin(rfd.wb, rfd.frame.top)]
        assert assert_codec_agrees(rfd, ideals) == frame.n + 3


@pytest.mark.parametrize("doc", CHAIN_DOCS.values(), ids=list(CHAIN_DOCS))
def test_theta_and_rmap_match_the_reference_on_chain_towers(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    for rfd in _tower(prox):
        assert_theta_and_rmap_agree(identity_map(rfd.base), rfd, rfd)
        assert_theta_and_rmap_agree(kappa_map(rfd), rfd, rfd.rr)
        assert_theta_and_rmap_agree(sigma_map(rfd), rfd.rr, rfd)
        if is_stably_compact(rfd.base):
            assert_theta_and_rmap_agree(alpha_map(rfd), rfd, rfd.rr)


@pytest.mark.parametrize("name", FINITE)
def test_theta_and_rmap_match_the_reference_on_finite_towers(name):
    # theta on a finite source reads the kept joins of both ends
    for rfd in _tower(catalog_instances()[name]):
        assert_theta_and_rmap_agree(identity_map(rfd.base), rfd, rfd)
        assert_theta_and_rmap_agree(kappa_map(rfd), rfd, rfd.rr)
        assert_theta_and_rmap_agree(sigma_map(rfd), rfd.rr, rfd)
        assert_theta_and_rmap_agree(alpha_map(rfd), rfd, rfd.rr)


@pytest.mark.parametrize("name", list(catalog_morphisms()))
def test_theta_and_rmap_match_the_reference_on_catalog_morphisms(name):
    f = catalog_morphisms()[name]
    assert_theta_and_rmap_agree(f, rframe(f.src), rframe(f.dst))


def test_theta_and_rmap_match_the_reference_on_enumerated_maps():
    small = [catalog_instances()[name] for name in FINITE]
    small = [p for p in small if p.frame.n <= 4]
    count = 0
    for src in small:
        for dst in small:
            for f in enumerate_proxhoms(src, dst):
                assert_theta_and_rmap_agree(f, rframe(src), rframe(dst))
                count += 1
    assert count > len(small) ** 2
    # into the diamond without (a, a), a relation that is no proximity:
    # theta refuses it, as rframe, kappa and rmap_map do
    diamond = catalog_instances()["diamond"].frame
    a = diamond.index("a")
    weak = FiniteProximity(diamond, tuple(r & ~(1 << a) if x == a else r
                                          for x, r in enumerate(diamond.up)))
    for src in small:
        for f in enumerate_proxhoms(src, order_proximity(diamond)):
            g, rfd = FiniteMap(src, weak, f.table), rframe(src)
            with pytest.raises(UnsupportedRepresentation, match="finite collapse theorem"):
                theta(g, rfd)


@pytest.mark.parametrize("src,other", [("diamond", "chain3"), ("chain3", "diamond"),
                                       ("two", "cube3"), ("chain-k1", "chain-k2")])
def test_theta_refuses_the_ideal_frame_of_another_proximity(src, other):
    insts = catalog_instances()
    with pytest.raises(NotComposable, match="not defined on the base of the given ideal frame"):
        theta(identity_map(insts[src]), rframe(insts[other]))


# the pairs of catalog instances whose frames differ, and chain-k2 with
# chain-k1, whose ideal frame has as many segments as its own
OTHER_FRAMES = [("two", "chain3"), ("chain3", "diamond"), ("diamond", "two"),
                ("chain-k1", "chain-k2"), ("chain-k2", "chain-k1"), ("diamond", "chain-k1")]


@pytest.mark.parametrize("src,other", OTHER_FRAMES)
def test_rmap_refuses_the_ideal_frame_of_another_source(src, other):
    insts = catalog_instances()
    f = identity_map(insts[src])
    with pytest.raises(NotComposable,
                       match="^f is not defined on the base of the given ideal frame$"):
        rmap_map(f, rframe(insts[other]), rframe(insts[src]))


@pytest.mark.parametrize("src,other", OTHER_FRAMES)
def test_rmap_refuses_the_ideal_frame_of_another_target(src, other):
    insts = catalog_instances()
    f = identity_map(insts[src])
    with pytest.raises(UnsupportedRepresentation,
                       match="is a round ideal of another proximity$"):
        rmap_map(f, rframe(insts[src]), rframe(insts[other]))


def test_code_tables_refuse_a_base_that_does_not_approximate():
    # the diamond without (a, a): no round ideal has join a, so there are
    # no kappa(a) and alpha(a) to tabulate; the relation is not the order,
    # so by the finite collapse theorem no proximity, and rframe refuses it
    diamond = catalog_instances()["diamond"].frame
    a = diamond.index("a")
    weak = FiniteProximity(diamond, tuple(r & ~(1 << a) if x == a else r
                                          for x, r in enumerate(diamond.up)))
    with pytest.raises(UnsupportedRepresentation, match="finite collapse theorem"):
        rframe(weak)
