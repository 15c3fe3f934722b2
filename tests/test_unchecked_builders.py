"""Differential oracle for the unchecked map builders.

`compose`, `star_compose`, `enumerate_proxhoms`, `_block_map` (the
identity, sigma, kappa, alpha, r, c and m, from their values at the
starts of the source frame), `_image_map` (theta and R(f), from one pass
over f's rules) and `retag_map` build their maps through
`FiniteMap._unchecked` and `ChainMap._unchecked`, which skip the checks
of the public constructors.
Every map they build while the law suites run, on the catalog, on the
levels of each catalog instance's `rr`/`cc` towers and on the 15 chain
layouts with k <= 4 whose top is reflexive, must pass those checks: the
public constructor accepts its table or rules and gives an equal map.  A
builder made to leave its target frame fails here.

`kappa`, `RFrameData.ideal_of` and the ideal frames of `rframe` build
their round ideals through `Prin._unchecked` and `BelowLim._unchecked`
once they have decided roundness themselves.  On the same 15 layouts and
their towers, and on the finite catalog instances and theirs, each ideal
they give, and each ideal that `alpha_map` sends an element to, read
back through `ideal_of`, must equal the one the definitions in
`reference` build through the checked constructors, and an element
outside the frame must still be refused as the checked constructor
refuses it.
"""

import re
import sys

import pytest

import reference as ref
from proxkit import cli
from proxkit.catalog import catalog_instances
from proxkit.chain import OMEGA, El, build_chain_frame
from proxkit.comonads import (
    adjunction_checks,
    coalgebra_laws,
    comonad_laws,
    doubled_membership_lemma,
    kleisli_lift,
    kz_check,
    m_map,
    max_proximity_agreement,
    naturality_suite,
    subcomonad_check,
)
from proxkit.errors import InvalidParameter, MalformedMap, NotStablyCompact
from proxkit.morphisms import (
    ChainMap,
    FiniteMap,
    alpha_map,
    identity_map,
    kappa_map,
    rmap_map,
    sigma_map,
    theta,
)
from proxkit.proximity import chain_proximity
from proxkit.roundideal import (
    BelowLim,
    Prin,
    RFrameData,
    ideal_frame,
    is_stably_compact,
    kappa,
    rframe,
)
from test_block_map import CHAIN_DOCS as LAYOUTS

# the functions that call the unchecked constructors; enumerate_proxhoms
# builds its tables in its nested `extend`
BUILDERS = {"compose", "star_compose", "extend", "_block_map", "_image_map", "retag_map"}


@pytest.fixture
def built(monkeypatch):
    """(caller, map) for every map the unchecked constructors return."""
    out = []
    for cls in (FiniteMap, ChainMap):
        def record(src, dst, values, real=cls._unchecked):
            h = real(src, dst, values)
            out.append((sys._getframe(1).f_code.co_name, h))
            return h

        monkeypatch.setattr(cls, "_unchecked", staticmethod(record))
    return out


def assert_checked(built):
    """Each built map through its public constructor, which raises
    MalformedMap on a value outside the target or a misshapen rule."""
    for caller, h in built:
        if isinstance(h, FiniteMap):
            again = FiniteMap(h.src, h.dst, h.table)
        else:
            again = ChainMap(h.src, h.dst, h.rules)
        assert again == h, caller


def run_suites(rfd):
    """The R, C, coalgebra and naturality laws on rfd, the maps between
    its tower levels, and theta and the co-Kleisli lift of its structure
    maps."""
    comonad_laws("R", rfd)
    comonad_laws("C", rfd)
    subcomonad_check(rfd)
    kz_check(rfd)
    adjunction_checks(rfd)
    doubled_membership_lemma(rfd)
    max_proximity_agreement(rfd)
    if is_stably_compact(rfd.base):
        coalgebra_laws(rfd)
    m_map(rfd, ideal_frame(rfd.base.frame))
    naturality_suite(identity_map(rfd.base), rfd, rfd)
    th = theta(kappa_map(rfd), rfd)
    kleisli_lift(th, rfd, rfd.rr)
    rmap_map(sigma_map(rfd), rfd.rr, rfd)


def test_catalog_maps_pass_the_public_checks(built, capsys):
    assert cli.main(["laws", "--suite", "all"]) == 0
    capsys.readouterr()
    for prox in catalog_instances().values():
        rfd = rframe(prox)
        for level in (rfd, rfd.rr, rfd.cc):
            run_suites(level)
    assert {caller for caller, _ in built} == BUILDERS
    assert len(built) > 1000
    assert_checked(built)


@pytest.mark.parametrize("doc", LAYOUTS.values(), ids=list(LAYOUTS))
def test_chain_layout_maps_pass_the_public_checks(doc, built):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    rfd = rframe(prox)
    for level in (rfd, rfd.rr, rfd.cc):
        run_suites(level)
    chain_builders = BUILDERS - {"extend", "star_compose"}
    assert {caller for caller, _ in built} == chain_builders
    assert_checked(built)


def test_there_are_fifteen_reflexive_top_layouts():
    assert len(LAYOUTS) == 15


@pytest.mark.parametrize("name, message", [
    ("diamond", "value 100 is not in the target frame"),
    # the omega block's rule is checked before the limit's value
    ("chain-k1", "affine tail must land in an omega block"),
])
def test_a_builder_leaving_the_target_fails_the_check(name, message, built,
                                                       monkeypatch):
    # the kappa table, the values kappa's builder writes, made to name
    # codes past the end of the ideal frame
    real = RFrameData.kappa_codes.func

    def shifted(self):
        return tuple(e + 100 if isinstance(e, int) else El(e.seg + 100, e.n)
                     for e in real(self))

    monkeypatch.setattr(RFrameData, "kappa_codes", property(shifted))
    kappa_map(rframe(catalog_instances()[name]))
    assert [caller for caller, _ in built] == ["_block_map"]
    with pytest.raises(MalformedMap, match=f"^{message}$"):
        assert_checked(built)


def test_finite_theta_leaving_the_target_fails_the_check(built):
    # theta reads f's table at the joins, so a table naming an element the
    # target does not have is carried into theta's table
    prox = catalog_instances()["diamond"]
    f = FiniteMap._unchecked(prox, prox, (prox.frame.n,) * prox.frame.n)
    built.clear()
    theta(f, rframe(prox))
    assert [caller for caller, _ in built][-1] == "_image_map"
    with pytest.raises(MalformedMap, match="is not in the target frame"):
        assert_checked(built)


# -- ideals built without the checks of Prin and BelowLim -----------------------


def layout_levels(doc):
    """The ideal frames of a layout: its own and the next level of each
    tower."""
    rfd = rframe(chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"]))
    return rfd, rfd.rr, rfd.cc


def outside(frame):
    """Codes that are not elements of frame: past the last segment, a
    negative position, and position 1 of the top point."""
    past = len(frame.segments)
    return [El(past, 0), El(past + 5, 0), El(past + 5, 2), El(0, -1),
            El(frame.top.seg, 1)]


def over_levels(rfd):
    """(prox, its frame of round ideals) for the base, wb and maxp of rfd."""
    return (rfd.base, rfd), (rfd.wb, rfd.rr), (rfd.maxp, rfd.cc)


def assert_refused_as_checked(build, prox, e):
    """build(prox, e) raises what the checked Prin(prox, e) raises."""
    with pytest.raises(InvalidParameter) as checked:
        Prin(prox, e)
    with pytest.raises(type(checked.value), match=f"^{re.escape(str(checked.value))}$"):
        build(prox, e)


@pytest.mark.parametrize("doc", LAYOUTS.values(), ids=list(LAYOUTS))
def test_unchecked_ideals_equal_the_checked_ones(doc):
    for rfd in layout_levels(doc):
        for prox, ideals in over_levels(rfd):
            compact = is_stably_compact(prox)
            alpha = alpha_map(ideals) if compact else None
            for a in ref.points(prox.frame):
                got, want = kappa(prox, a), ref.approximants(prox, a)
                assert got == want and hash(got) == hash(want), (prox, a)
                if compact:
                    got, want = ideals.ideal_of(alpha.apply(a)), ref.way_below_set(prox, a)
                    assert got == want and hash(got) == hash(want), (prox, a)
            if not compact:
                with pytest.raises(NotStablyCompact):
                    alpha_map(ideals)
        for x, want in ref.codec(rfd.base, rfd.frame).items():
            assert rfd.ideal_of(x) == want, (rfd.frame, x)
        assert rfd.ideals == tuple(ref.codec(rfd.base, rfd.frame, 1).values())


@pytest.mark.parametrize("doc", LAYOUTS.values(), ids=list(LAYOUTS))
def test_unchecked_ideals_refuse_codes_outside_the_frame(doc):
    for rfd in layout_levels(doc):
        for prox, ideals in over_levels(rfd):
            for e in outside(prox.frame):
                assert_refused_as_checked(kappa, prox, e)
                if is_stably_compact(prox):
                    assert_refused_as_checked(
                        lambda p, e: alpha_map(ideals).apply(e), prox, e)
        # a negative position in an omega segment shifts the base element
        # of its first ideal out of the base frame
        for i, seg in enumerate(rfd.frame.segments):
            if seg.kind == OMEGA:
                b = rfd.ideal_of(El(i, 0)).a.seg
                assert_refused_as_checked(lambda p, e: rfd.ideal_of(El(i, -1)),
                                          rfd.base, El(b, -1))


@pytest.mark.parametrize("name", ["two", "chain3", "diamond", "cube3"])
def test_unchecked_finite_ideals_equal_the_checked_ones(name):
    rfd = rframe(catalog_instances()[name])
    for level in (rfd, rfd.rr, rfd.cc):
        prox, alpha = level.base, alpha_map(level)
        for a in prox.frame.elements():
            got, want = kappa(prox, a), ref.approximants(prox, a)
            assert got == want and hash(got) == hash(want), (prox, a)
            got, want = level.ideal_of(alpha.apply(a)), ref.way_below_set(prox, a)
            assert got == want and hash(got) == hash(want), (prox, a)
        assert level.ideals == tuple(ref.codec(prox, level.frame).values())
        for e in (-1, True, prox.frame.n, "a"):
            assert_refused_as_checked(kappa, prox, e)


@pytest.mark.parametrize("doc", LAYOUTS.values(), ids=list(LAYOUTS))
def test_a_principal_ideal_never_equals_the_ideal_under_its_limit(doc):
    for rfd in layout_levels(doc):
        prox = rfd.base
        for e in prox.reflexive_limits:
            prin, below = kappa(prox, e), BelowLim(prox, e)
            assert prin == Prin(prox, e) and prin != below
            assert Prin(prox, e) != BelowLim(prox, e)
            assert rfd.ideal_of(rfd.el_of(below)) == below
            assert rfd.el_of(prin) > rfd.el_of(below)
