import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxkit.chain import (
    ChainLikeFrame,
    El,
    Segment,
    Seq,
    _seq_problem,
    build_chain_frame,
    lim,
    succ,
)
from proxkit.errors import InvalidParameter, MalformedMap, NotDirected
from proxkit.morphisms import ChainMap
from proxkit.proximity import chain_proximity, way_below_proximity
from proxkit.roundideal import dir_sup


def test_element_order_is_lexicographic():
    assert El(0, 3) < El(0, 4) < El(1, 0) < El(2, 7)


def test_build_chain_frame_shape():
    f = build_chain_frame(2)
    assert [s.kind for s in f.segments] == ["omega", "point", "omega", "point"]
    assert f.bot == El(0, 0)
    assert f.top == El(3, 0)
    assert f.label(succ(f, 1, 4)) == "S1.4"
    assert f.label(lim(f, 2)) == "L2"
    # names label the blocks in order, and a name past the k-th is refused
    assert [s.label for s in build_chain_frame(2, ["A"]).segments] == [
        "A", "L1", "S1", "L2"]
    with pytest.raises(InvalidParameter, match="^3 block names for k = 2 blocks$"):
        build_chain_frame(2, ["A", "B", "C"])


def test_limits_and_successors():
    f = build_chain_frame(2)
    assert f.limits() == [lim(f, 1), lim(f, 2)]
    assert f.is_limit(lim(f, 1)) and not f.is_limit(succ(f, 0, 0))
    assert f.successor_of(succ(f, 0, 3)) == succ(f, 0, 4)
    assert f.successor_of(lim(f, 1)) == succ(f, 1, 0)
    assert f.successor_of(f.top) is None


def test_way_below_excludes_limit_reflexivity():
    f = build_chain_frame(1)
    a, L = succ(f, 0, 2), lim(f, 1)
    wb = way_below_proximity(f)
    assert wb.rel(a, a)
    assert wb.rel(a, L)
    assert not wb.rel(L, L)


@pytest.mark.parametrize("call", ["is_limit", "reflexive", "label", "successor_of"])
@pytest.mark.parametrize("code", [El(9, 0), El(2, 0), El(-1, 0), El(1, 5), El(0, -1)])
def test_limit_and_reflexivity_refuse_codes_outside_the_chain(call, code):
    f = build_chain_frame(1)  # S0 and L1
    test = chain_proximity(f, {1}).reflexive if call == "reflexive" else getattr(f, call)
    with pytest.raises(InvalidParameter,
                       match=f"^{re.escape(repr(code))} is not an element of this chain$"):
        test(code)


@pytest.mark.parametrize("code", [(1, 0), (0, 0), 3, True, None, "L1"],
                         ids=["tuple", "bot-tuple", "int", "bool", "none", "str"])
def test_codes_that_are_not_an_el_are_not_elements(code):
    # the plain tuple (1, 0) equals El(1, 0), the limit L1, but only an El
    # is an element
    f = build_chain_frame(1)
    assert not f.contains(code)
    refuse = (f.check, f.is_limit, f.label, f.successor_of,
              chain_proximity(f, {1}).reflexive)
    for call in refuse:
        with pytest.raises(InvalidParameter,
                           match=f"^{re.escape(str(code))} is not an element of this chain$"):
            call(code)
    if isinstance(code, tuple):
        assert f.contains(El(*code))


def test_label_and_successor_on_the_elements():
    f = build_chain_frame(1)
    assert [f.label(e) for e in (El(0, 0), El(0, 7), El(1, 0))] == ["S0.0", "S0.7", "L1"]
    assert f.successor_of(El(0, 7)) == El(0, 8)
    assert f.successor_of(El(1, 0)) is None


def test_frame_needs_point_top():
    with pytest.raises(InvalidParameter):
        ChainLikeFrame((Segment("omega", "S"),))
    with pytest.raises(InvalidParameter):
        build_chain_frame(0)


def test_membership_checks():
    f = build_chain_frame(1)
    assert f.contains(El(0, 99)) and f.contains(El(1, 0))
    assert not f.contains(El(1, 1)) and not f.contains(El(2, 0))
    with pytest.raises(InvalidParameter):
        f.check(El(5, 0))


def test_family_sup_affine_not_attained():
    f = build_chain_frame(1)
    sup, attained = Seq.affine(0, 2, 1).sup(f.join)
    assert sup == lim(f, 1)
    assert not attained


def test_family_sup_constant_attained():
    f = build_chain_frame(1)
    fam = Seq.constant(succ(f, 0, 5), ((0, succ(f, 0, 1)),))
    sup, attained = fam.sup(f.join)
    assert sup == succ(f, 0, 5)
    assert attained


def test_family_rejects_non_monotone():
    f = build_chain_frame(1)
    fam = Seq.affine(0, 1, 0, ((1, succ(f, 0, 9)),))
    assert fam.descent(f.leq) == 1
    with pytest.raises(NotDirected):
        dir_sup(chain_proximity(f, {1}), fam)


def test_affine_tail_needs_positive_slope():
    with pytest.raises(InvalidParameter,
                       match="^affine tail needs slope >= 1; use constant$"):
        Seq.affine(0, 0, 3)


def test_seq_normal_form():
    f = build_chain_frame(1)
    s = Seq.affine(0, 1, 0, ((5, El(0, 9)), (3, El(0, 3)), (1, El(0, 0))))
    # sorted by index; the exception at 3 agrees with the tail and vanishes
    assert s.exceptions == ((1, El(0, 0)), (5, El(0, 9)))
    assert s == Seq.affine(0, 1, 0, ((5, El(0, 9)), (1, El(0, 0))))
    assert [s.value(n) for n in range(7)] == [
        El(0, 0), El(0, 0), El(0, 2), El(0, 3), El(0, 4), El(0, 9), El(0, 6)]
    assert s.horizon() == 6 and s.descent(f.leq) == 5
    assert Seq.constant(El(0, 4), ((2, El(0, 4)),)).exceptions == ()
    assert Seq.constant(El(0, 4)).horizon() == 0


def test_seq_rejects_repeated_index():
    for build in (lambda: Seq.constant(El(0, 5), ((0, El(0, 9)), (0, El(0, 1)))),
                  lambda: Seq.affine(0, 1, 0, ((2, El(0, 2)), (2, El(0, 2)))),
                  lambda: Seq(seg=0, a=1, exceptions=[(2, El(0, 2)), (2, El(0, 2))]),
                  # a repeated index is found before a negative one
                  lambda: Seq.constant(El(0, 5), ((-1, El(0, 9)), (-1, El(0, 1))))):
        with pytest.raises(InvalidParameter, match="^repeated exception index$"):
            build()


def test_seq_rejects_negative_index():
    for exc in (((-1, El(0, 0)),), ((3, El(0, 9)), (-2, El(0, 1)))):
        with pytest.raises(MalformedMap, match="^negative exception index$"):
            Seq.affine(0, 1, 0, exc)
        with pytest.raises(MalformedMap, match="^negative exception index$"):
            Seq.constant(El(0, 5), exc)


def test_el_is_a_tuple_in_chain_order():
    els = [El(seg, n) for seg in range(3) for n in range(3)]
    assert sorted(reversed(els)) == els
    assert all((x < y) == ((x.seg, x.n) < (y.seg, y.n)) for x in els for y in els)
    assert El(1, 0) == El(seg=1, n=0) == (1, 0)
    assert hash(El(1, 0)) == hash(El(1, 0)) == hash((1, 0))
    assert len({El(1, 0), El(1, 0), El(0, 1)}) == 2
    assert El(0, 7) != El(0, 8) and El(0, 7) != El(7, 0)
    assert repr(El(1, 0)) == "El(1,0)"
    assert str(El(12, 345)) == "El(12,345)"


def test_a_plain_tuple_is_not_a_chain_value():
    p = chain_proximity(build_chain_frame(1), {1})
    top = Seq.constant(p.frame.top)
    # (0, 1) is the code of El(0, 1), but only an El is a chain element
    for seq in (Seq.constant((0, 1)), Seq.constant(El(0, 2), ((0, (0, 1)),))):
        assert _seq_problem(seq, p.frame) == "value (0, 1) is not in the target frame"
        with pytest.raises(MalformedMap, match=re.escape("value (0, 1) is not")):
            ChainMap(p, p, (seq, top))
    assert ChainMap(p, p, (Seq.constant(El(0, 1)), top)).apply(El(0, 4)) == El(0, 1)


@pytest.mark.parametrize("built, keyword", [
    (Seq.constant(El(0, 4)), Seq(const=El(0, 4))),
    (Seq.constant(3), Seq(const=3)),
    (Seq.constant(El(0, 4), ()), Seq(El(0, 4), 0, 0, 0, ())),
    (Seq.constant(El(0, 4), ((1, El(0, 2)),)),
     Seq(const=El(0, 4), exceptions=[(1, El(0, 2))])),
    (Seq.affine(2, 1, 0), Seq(seg=2, a=1, b=0)),
    (Seq.affine(0, 3, 2, ((0, El(0, 0)), (1, El(0, 5)))),
     Seq(seg=0, a=3, b=2, exceptions=((0, El(0, 0)),))),
], ids=["constant", "finite-constant", "positional", "constant-exception",
        "affine", "affine-exception"])
def test_seq_builders_equal_and_hash_like_keyword_construction(built, keyword):
    assert type(built) is type(keyword) is Seq
    assert built == keyword and hash(built) == hash(keyword)
    assert (built.const, built.seg, built.a, built.b, built.exceptions) == tuple(keyword)
    assert isinstance(built.exceptions, tuple)
    assert repr(built) == repr(keyword)
    assert len({built, keyword}) == 1


def test_seq_fields_and_repr():
    s = Seq.affine(0, 2, 1, [(0, El(0, 0))])
    assert (s.const, s.seg, s.a, s.b) == (None, 0, 2, 1)
    assert s.exceptions == ((0, El(0, 0)),)
    assert repr(s) == "Seq(const=None, seg=0, a=2, b=1, exceptions=((0, El(0,0)),))"
    assert repr(Seq.constant(El(1, 0))) == (
        "Seq(const=El(1,0), seg=0, a=0, b=0, exceptions=())")
    assert Seq.constant(El(0, 1)) != Seq.constant(El(0, 2))
    assert Seq.constant(El(0, 1)) != Seq.affine(0, 1, 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 5),
       st.integers(0, 30))
def test_family_values_bounded_by_sup(k, a, b, n):
    f = build_chain_frame(k)
    fam = Seq.affine(0, a, b)
    assert fam.value(n) < fam.sup(f.join)[0] == lim(f, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 40), st.integers(0, 40))
def test_lattice_ops_agree_with_order(k, i, j):
    f = build_chain_frame(k)
    x, y = El(0, i), El(0, j)
    assert f.meet(x, y) == (x if i <= j else y)
    assert f.join(x, y) == (y if i <= j else x)
    assert f.leq(x, y) == (i <= j)


@pytest.mark.parametrize("seq, problem", [
    (Seq.constant(El(1, 3)), "value El(1,3) is not in the target frame"),
    (Seq.constant(El(0, 2), ((1, El(9, 0)),)),
     "value El(9,0) is not in the target frame"),
    (Seq.affine(1, 1, 0), "affine tail must land in an omega block"),
    (Seq.affine(2, 1, 0), "affine tail must land in an omega block"),
    (Seq.affine(0, 1, -1, ((0, El(0, 0)),)), "affine tail offset must be >= 0"),
    # the constant and an exception are both outside: the exception first
    (Seq.constant(El(1, 3), ((2, El(5, 0)),)),
     "value El(5,0) is not in the target frame"),
])
def test_maps_and_families_share_one_target_check(seq, problem):
    # a chain map's rule and a described family report the same problem,
    # each with its own exception class
    p = chain_proximity(build_chain_frame(1), {1})
    # an exception that agrees with the tail is dropped, also when the
    # value is outside the frame
    for v in (El(0, 2), El(1, 3)):
        assert Seq.constant(v, ((0, v),)) == Seq.constant(v)
        assert Seq.constant(v, ((0, v),)).exceptions == ()
    assert _seq_problem(seq, p.frame) == problem
    with pytest.raises(MalformedMap, match=re.escape(problem)):
        ChainMap(p, p, (seq, Seq.constant(p.frame.top)))
    with pytest.raises(InvalidParameter, match=re.escape(problem)):
        dir_sup(p, seq)
    assert _seq_problem(Seq.affine(0, 2, 1), p.frame) is None
