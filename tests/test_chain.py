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
from proxkit.proximity import chain_proximity
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
    assert f.way_below(a, a)
    assert f.way_below(a, L)
    assert not f.way_below(L, L)


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
    with pytest.raises(InvalidParameter):
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
    with pytest.raises(InvalidParameter):
        Seq.constant(El(0, 5), ((0, El(0, 9)), (0, El(0, 1))))
    with pytest.raises(InvalidParameter):
        Seq.affine(0, 1, 0, ((2, El(0, 2)), (2, El(0, 2))))


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
