"""The carrier methods that finite and chain frames share.

`check`, `read`, `join_over`, `index`, `is_limit`, `limits` and
`class_representatives` answer the same questions on both kinds of
frame, so their callers need not ask which kind they hold.  Each is
compared here with the definitions in `reference`, on the frames of the
catalog and of the 15 chain layouts with k <= 4 whose top is reflexive,
and on the frames of round ideals of each and of the next level of both
towers.  A code that is not an element (a bool, a plain tuple, a code out
of range) is refused with the message of the frame's kind.
"""

import re

import pytest

import reference as ref
from proxkit.catalog import catalog_instances
from proxkit.chain import OMEGA, POINT, El, build_chain_frame
from proxkit.errors import InvalidParameter
from proxkit.finite import FiniteFrame
from proxkit.proximity import chain_proximity
from proxkit.roundideal import rframe
from test_block_map import CHAIN_DOCS as LAYOUTS

INSTANCES = catalog_instances() | {
    name: chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    for name, doc in LAYOUTS.items()}


def levels(prox):
    """prox's frame of round ideals and the next level of each tower."""
    rfd = rframe(prox)
    return rfd, rfd.rr, rfd.cc


def frames(prox):
    """The frame of prox and the frames of round ideals above it."""
    return [prox.frame] + [rfd.frame for rfd in levels(prox)]


def outside(frame):
    """(code, message) for codes that are not elements of frame: a bool, a
    plain tuple and codes out of range, with the message of frame's kind."""
    if isinstance(frame, FiniteFrame):
        codes = [True, False, (0, 0), -1, frame.n, 1.0, El(0, 0)]
        return [(c, f"{c!r} is not an element of this frame") for c in codes]
    past = len(frame.segments)
    codes = [True, False, (0, 0), 0, El(past, 0), El(-1, 0), El(0, -1),
             El(frame.top.seg, 1)]
    return [(c, f"{c} is not an element of this chain") for c in codes]


def lub(frame, xs):
    """The least upper bound of xs among the window points, by leq."""
    ups = [u for u in ref.points(frame) if all(frame.leq(b, u) for b in xs)]
    least = [u for u in ups if all(frame.leq(u, v) for v in ups)]
    assert len(least) == 1, (frame, xs)
    return least[0]


def label(frame, e) -> str:
    return frame.names[e] if isinstance(frame, FiniteFrame) else frame.label(e)


@pytest.mark.parametrize("name", INSTANCES)
def test_check_is_limit_and_read_refuse_codes_outside_the_frame(name):
    for frame in frames(INSTANCES[name]):
        for e in ref.points(frame):
            assert frame.check(e) is e
        for code, message in outside(frame):
            for call in (frame.check, frame.is_limit,
                         lambda c: frame.read(frame.starts, c)):
                with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
                    call(code)


@pytest.mark.parametrize("name", INSTANCES)
def test_limits_and_class_representatives(name):
    for frame in frames(INSTANCES[name]):
        limits = frame.limits()
        for e in ref.points(frame):
            assert frame.is_limit(e) == (e in limits)
        # a limit is the first point after an omega block; a finite frame
        # has none
        if isinstance(frame, FiniteFrame):
            assert limits == []
        else:
            assert limits == [El(i, 0) for i in range(1, len(frame.segments))
                              if frame.segments[i - 1].kind == OMEGA]
        for depth in (1, 2, 4):
            assert frame.class_representatives(depth) == ref.points(frame, depth)


@pytest.mark.parametrize("name", INSTANCES)
def test_read_gives_each_element_its_start_value_moved_along(name):
    for rfd in levels(INSTANCES[name]):
        for frame in (rfd.base.frame, rfd.frame):
            starts = tuple(frame.starts)
            for e in ref.points(frame):
                assert frame.read(starts, e) == e
        # the kept joins and kappa codes, read at every point, are sigma of
        # each point's ideal and the point of each approximant ideal
        base = rfd.base
        for x, ideal in ref.codec(base, rfd.frame).items():
            assert rfd.frame.read(rfd.joins, x) == ref.sup(ideal), x
        for a in ref.points(base.frame):
            want = ref.element(base, rfd.frame, ref.approximants(base, a))
            assert base.frame.read(rfd.kappa_codes, a) == want, a


@pytest.mark.parametrize("name", INSTANCES)
def test_join_over_is_the_least_upper_bound(name):
    for frame in frames(INSTANCES[name]):
        pts = ref.points(frame)
        if isinstance(frame, FiniteFrame):
            sets = [[b for b in pts if m >> b & 1] for m in range(1 << len(pts))]
        else:
            sets = [[], pts, pts[::-1]] + [[a, b] for a in pts for b in pts]
        values = {b: pts[(3 * i + 1) % len(pts)] for i, b in enumerate(pts)}
        if isinstance(frame, FiniteFrame):
            values = tuple(values[b] for b in pts)
        for idx in sets:
            assert frame.join_over(idx) == lub(frame, idx), idx
            assert frame.join_over(idx, values) == lub(frame, [values[b] for b in idx]), idx
            assert frame.join_over(iter(idx)) == frame.join_over(idx)


@pytest.mark.parametrize("name", INSTANCES)
def test_index_reads_back_each_label(name):
    for frame in frames(INSTANCES[name]):
        for e in ref.points(frame):
            assert frame.index(label(frame, e)) == e
        # labels of no element, and a bool, a tuple and an int, which are
        # not labels
        missing = ["", "no-such", label(frame, frame.top) + ".0", True, (0, 0), 0]
        for s in missing:
            with pytest.raises(InvalidParameter, match=f"^no element named {re.escape(repr(s))}$"):
                frame.index(s)
        if isinstance(frame, FiniteFrame):
            continue
        # a negative position in an omega block is no label either
        for i, seg in enumerate(frame.segments):
            if seg.kind == OMEGA:
                s = f"{seg.label}.-1"
                with pytest.raises(InvalidParameter, match=f"^no element named {re.escape(repr(s))}$"):
                    frame.index(s)
            else:
                assert seg.kind == POINT and frame.index(seg.label) == El(i, 0)
