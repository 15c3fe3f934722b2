"""Differential oracle for `morphisms.block_map`.

The identity, the join map sigma, the approximant map kappa, the left
adjoint alpha and the inclusion m of round ideals into all ideals are
all built by `block_map`.  The builders they replaced are kept here,
segment by segment as they were, and must give equal maps on every
chain layout of the golden CLI set whose top is reflexive, on the
levels of its ideal-frame towers, and on the finite catalog.
"""

import pytest

from proxkit.catalog import catalog_instances
from proxkit.chain import OMEGA, El, Seq, build_chain_frame
from proxkit.comonads import m_map
from proxkit.errors import NotStablyCompact
from proxkit.morphisms import (
    ChainMap,
    FiniteMap,
    alpha_map,
    identity_map,
    kappa_map,
    sigma_map,
)
from proxkit.proximity import FiniteProximity, chain_proximity
from proxkit.roundideal import (
    BelowLim,
    Prin,
    ideal_frame,
    is_stably_compact,
    kappa,
    retag,
    rframe,
    sigma,
)
from test_cli_golden import chain_docs


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
    if isinstance(rfd.base, FiniteProximity):
        table = tuple(sigma(rfd.ideal_of(i)) for i in rfd.frame.elements())
        return FiniteMap(rfd.wb, rfd.base, table)
    rules = []
    for seg, ideal in zip(rfd.frame.segments, rfd.segment_ideals):
        if seg.kind == OMEGA:  # Prin(El(b, n)) joins to El(b, n)
            rules.append(Seq.affine(ideal.a.seg, 1, 0))
        else:
            rules.append(Seq.constant(sigma(ideal)))
    return ChainMap(rfd.wb, rfd.base, tuple(rules))


def old_pointed_ideal_map(rfd, use_wb):
    """kappa_map (use_wb=False) and alpha_map (use_wb=True) as they were."""
    prox = rfd.base
    if isinstance(prox, FiniteProximity):
        table = tuple(rfd.el_of(kappa(prox, a)) for a in prox.frame.elements())
        return FiniteMap(prox, rfd.wb, table)
    frame = prox.frame
    rules = []
    for i, s in enumerate(frame.segments):
        e = El(i, 0)
        if s.kind == OMEGA:
            target = rfd.el_of(Prin(prox, e))
            rules.append(Seq.affine(target.seg, 1, 0))
        else:
            refl = (not frame.is_limit(e)) if use_wb else prox.reflexive(e)
            ideal = Prin(prox, e) if refl else BelowLim(prox, e)
            rules.append(Seq.constant(rfd.el_of(ideal)))
    return ChainMap(prox, rfd.wb, tuple(rules))


def old_m_map(rfd, jfd):
    if isinstance(rfd.base, FiniteProximity):
        table = tuple(
            jfd.el_of(retag(rfd.ideal_of(i), jfd.base))
            for i in rfd.frame.elements()
        )
        return FiniteMap(rfd.wb, jfd.wb, table)
    rules = []
    for seg, ideal in zip(rfd.frame.segments, rfd.segment_ideals):
        target = jfd.el_of(retag(ideal, jfd.base))
        if seg.kind == OMEGA:  # Prin(El(b, n)) goes to Prin(El(b, n))
            rules.append(Seq.affine(target.seg, 1, 0))
        else:
            rules.append(Seq.constant(target))
    return ChainMap(rfd.wb, jfd.wb, tuple(rules))


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


def _tower(prox):
    """The ideal frame of prox and the next levels of both towers."""
    rfd = rframe(prox)
    return [rfd, rfd.rr, rfd.cc, rfd.rr.rr, rfd.cc.cc]


CHAIN_DOCS = {path: doc for path, doc in chain_docs().items()
              if doc["k"] in doc["reflexive"]}


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


@pytest.mark.parametrize("name", ["two", "chain3", "diamond", "cube3"])
def test_block_map_matches_the_old_finite_builders(name):
    for rfd in _tower(catalog_instances()[name]):
        assert_block_maps_agree(rfd)


def test_alpha_map_refuses_the_chain_k1_base():
    with pytest.raises(NotStablyCompact, match="^left adjoint needs a stably compact base$"):
        alpha_map(rframe(catalog_instances()["chain-k1"]))
