"""Round ideals and the frame they form.

A round ideal of a proximity frame is a join-closed downset in which every
member is approximated by another member.  Canonical forms keep equality
and inclusion exact: ``Prin(a)``, the principal ideal of a
relation-reflexive element a, or on a chain ``BelowLim(l)``, everything
strictly under a limit point.  On a finite frame the order is the one
proximity (the finite collapse theorem), so every round ideal is the
principal downset of its join, kept and printed as ``Prin`` of that join.

``Prin`` and ``BelowLim`` are distinct dataclasses, so the two never
compare equal, even at the same point.  Their constructors check that
the ideal is round: ``Prin`` that a is an element relating to itself,
``BelowLim`` that l is a limit.  The builders that decide this themselves
skip the re-check through ``_unchecked``: :func:`kappa` after its
reflexivity test, which refuses a code that is not an element, or on a
finite frame after its element check and its refusal of every relation
but the order, ``ChainRFrame.ideal_of`` on the shifted element of an
omega segment, which it checks is an element and which relates to itself
as every omega element does, and the ideal frames of :func:`rframe`.
:func:`dir_sup`, :func:`retag` and every other caller keep the checks.

The frame of round ideals of a chain instance is again a chain-like
frame.  :func:`rframe` materializes it with ``RFrameData.ideals``, the
canonical ideal of each element of a finite ideal frame or of the first
element of each chain segment; ``ideal_of`` reads it, and ``el_of``
inverts it at the join: an ideal's element is the last with its join, or
for ``BelowLim`` the first, if that element's ideal is it.  A round ideal
holds a member above I exactly when it holds the join of I, so inclusion
and way-below are decided at the join too.  The frame carries two
proximities, the way-below relation and the maximal proximity, and the
frames of round ideals of each, the next levels of the two comonads'
towers.  Ideals have no lattice operations of their own: the join and meet
of two round ideals are those of that frame, reached through ``el_of`` and
``ideal_of``.  The one supremum taken here is :func:`dir_sup`'s, of a
directed family of principal ideals on a chain described by a ``Seq``.  The
join map has kappa as its right adjoint and, on a stably compact base,
alpha as its left: kappa(a) is the largest round ideal with join a and
alpha(a) the least, so their code tables, kept on the frame with the
joins, are read off the joins.  The maps alpha and R(f) on ideals are
`alpha_map` and `rmap_map` of `morphisms`; the ideal of a value is
`ideal_of` it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, wraps

from .chain import (
    OMEGA,
    POINT,
    ChainLikeFrame,
    El,
    Segment,
    Seq,
    _above,
    _check_sorted,
    _seq_problem,
)
from .errors import (
    BrokenInvariant,
    InvalidParameter,
    NotDirected,
    TooLarge,
    UnsupportedRepresentation,
)
from .finite import FiniteFrame, _irreducibles, _renamed, _ring_of_sets, _union
from .proximity import (
    ChainProximity,
    FiniteProximity,
    Proximity,
    _low,
    order_proximity,
    way_below_proximity,
)

FINITE_IDEAL_ENUM_LIMIT = 14


# -- canonical forms -------------------------------------------------------


@dataclass(frozen=True)
class Prin:
    prox: Proximity
    a: int | El

    def __post_init__(self):
        self.prox.frame.check(self.a)
        if not self.prox.reflexive(self.a):
            raise UnsupportedRepresentation(
                f"principal ideal at non-reflexive {self.prox.label(self.a)} is not round"
            )

    @classmethod
    def _unchecked(cls, prox: Proximity, a) -> "Prin":
        """The principal ideal at an element a of prox's frame that the
        caller has found reflexive; the checks of the public constructor
        are skipped."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(prox=prox, a=a)
        return ideal

    def __repr__(self):
        return f"Prin({self.prox.label(self.a)})"


@dataclass(frozen=True)
class BelowLim:
    prox: ChainProximity
    lim: El

    def __post_init__(self):
        if not self.prox.frame.is_limit(self.lim):
            raise UnsupportedRepresentation(
                f"{self.prox.label(self.lim)} is not a limit point"
            )

    @classmethod
    def _unchecked(cls, prox: ChainProximity, lim: El) -> "BelowLim":
        """The ideal under a point lim that the caller has found to be a
        limit of prox's frame; the check of the public constructor is
        skipped."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(prox=prox, lim=lim)
        return ideal

    def __repr__(self):
        return f"Below({self.prox.label(self.lim)})"


RoundIdeal = Prin | BelowLim


# -- the core maps ----------------------------------------------------------


def kappa(prox: Proximity, a) -> RoundIdeal:
    """The largest round ideal whose join is a: all approximants of a.  On
    a finite frame that is the downset of a, as the order is the one
    finite proximity; any other finite relation is refused."""
    if isinstance(prox, FiniteProximity):
        prox.require_order()
        return Prin._unchecked(prox, prox.frame.check(a))
    # only a limit can fail to relate to itself; a code that is not an
    # element is refused by the limit test under reflexive
    if prox.reflexive(a):
        return Prin._unchecked(prox, a)
    return BelowLim._unchecked(prox, a)


def sigma(ideal: RoundIdeal):
    """The join of a canonical ideal."""
    if isinstance(ideal, Prin):
        return ideal.a
    return ideal.lim  # sup of everything strictly below a limit


def member(b, ideal: RoundIdeal) -> bool:
    if isinstance(ideal, Prin):
        return ideal.prox.frame.leq(b, ideal.a)
    return b < ideal.lim


def subideal(i: RoundIdeal, j: RoundIdeal) -> bool:
    """i is contained in j, for round ideals of one proximity: j holds the
    join of i, or i is j: BelowLim(l) does not hold its join l."""
    return member(sigma(i), j) or i == j


def dir_sup(prox: ChainProximity, seq: Seq) -> RoundIdeal:
    """Supremum of the described directed family of principal ideals
    Prin(seq(n)), n = 0, 1, ...: the sequence must be a monotone family
    of frame elements, and each generator must itself be round."""
    f = prox.frame
    problem = _seq_problem(seq, f)
    if problem is not None:
        raise InvalidParameter(problem)
    if seq.descent(f.leq) is not None:
        raise NotDirected("described family is not monotone nondecreasing")
    for v in [v for _, v in seq.exceptions] + [seq.tail(0), seq.tail(1)]:
        if not prox.reflexive(v):
            raise UnsupportedRepresentation(
                f"generator Prin({prox.label(v)}) is not round"
            )
    s, attained = seq.sup(f.join)
    return Prin(prox, s) if attained else BelowLim(prox, s)


def way_below_ideals(i: RoundIdeal, j: RoundIdeal) -> bool:
    """i << j in the frame of round ideals: some member of j bounds i, so
    j holds the join of i, as j is a join-closed downset."""
    return member(sigma(i), j)


def is_stably_compact(prox: Proximity) -> bool:
    """Every element is the join of its way-below set and the top is
    compact.  On a chain each limit is the supremum of the block below it,
    so only a limit top fails; a finite frame has no limits."""
    return not prox.frame.is_limit(prox.frame.top)


def retag(ideal: RoundIdeal, prox: Proximity) -> RoundIdeal:
    """The same set of elements viewed as an ideal of another proximity on
    the same frame (only legal when it stays round there), built by the
    checked constructor of its kind."""
    return replace(ideal, prox=prox)


# -- the frame of round ideals ---------------------------------------------


@dataclass(frozen=True)
class RFrameData:
    """The frame of round ideals, the canonical ideal each of its
    elements stands for, and its two proximities: the way-below relation
    `wb` and the maximal proximity `maxp`.  The frames of round ideals of
    `wb` and of `maxp` are the properties `rr` and `cc`; each is built on
    first use and kept for the lifetime of this object, so a run that
    holds one RFrameData per instance builds each level of both towers
    once.  A finite `maxp` is `wb` itself, by the collapse theorem, so
    there `cc` is `rr`.  `joins`, sigma of each of `ideals`, is also taken
    on first use and kept.  The structure maps built from it (sigma, kappa,
    alpha, r, c, epsilon, beta) and the adjunction laws' outcomes are kept
    in `maps` the same way; see `kept_on_rframe`.

    `rframe` builds a `FiniteRFrame` or a `ChainRFrame`: each kind has
    its own `maxp` and builds the int rows of the pair laws of `comonads`."""

    base: Proximity
    frame: FiniteFrame | ChainLikeFrame
    wb: Proximity
    # the ideal of each element of a finite frame; on a chain, of the first
    # element El(i, 0) of each segment i: Prin(El(b, 0)) for the omega
    # block over base block b, else the point's Prin or BelowLim
    ideals: tuple[RoundIdeal, ...]
    # the values `kept_on_rframe` built from this object, by builder function
    maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def ideal_of(self, el) -> RoundIdeal:
        return self.frame.read(self.ideals, el)

    def el_of(self, ideal: RoundIdeal):
        # the code tables do not key the proximity, so check it here; the
        # identity test passes almost every call without comparing frames
        if ideal.prox is not self.base and ideal.prox != self.base:
            raise UnsupportedRepresentation(
                f"{ideal!r} is not in the classification: "
                f"it is a round ideal of another proximity")
        # BelowLim(l) is the first element with join l, any other ideal the last
        codes = self.alpha_codes if type(ideal) is BelowLim else self.kappa_codes
        el = self.base.frame.read(codes, sigma(ideal))
        if self.ideal_of(el) != ideal:
            raise UnsupportedRepresentation(f"{ideal!r} is not in the classification")
        return el

    def join_of(self, el):
        """sigma(ideal_of(el)), read off the kept joins."""
        return self.frame.read(self.joins, el)

    def kappa_of(self, a):
        """el_of(kappa(a)) for an element a of the base, from `kappa_codes`."""
        return self.base.frame.read(self.kappa_codes, a)

    @cached_property
    def joins(self) -> tuple:
        """sigma of each of `ideals`, taken once: on a chain the join of
        Prin(El(b, 0)) at an omega segment, El(b, 0)."""
        return tuple(map(sigma, self.ideals))

    @cached_property
    def kappa_codes(self) -> tuple:
        """el_of(kappa(a)) at each of the base frame's `starts`, taken once:
        the last element with join a.  On a chain, where that is El(s, 0)
        for segment j, kappa sends El(j, n) to El(s, n)."""
        return self._last_with_join(range(len(self.ideals)))

    @cached_property
    def alpha_codes(self) -> tuple:
        """el_of(alpha(a)) at the same points, on a stably compact base:
        the first element with join a."""
        return self._last_with_join(reversed(range(len(self.ideals))))

    def _last_with_join(self, order) -> tuple:
        """At each start a of the base, the last element in order with join a."""
        starts, joins = self.frame.starts, self.joins
        at = {joins[i]: starts[i] for i in order}
        return tuple(map(at.__getitem__, self.base.frame.starts))

    def joins_on(self, reps) -> list:
        """The joins of the ideals of reps, read off the kept joins."""
        return list(map(self.join_of, reps))

    def inclusion_rows(self, reps, ideals) -> list[int]:
        """Row p: the q with ideals[p] contained in ideals[q], the ideals
        of reps: the order rows of the ideal frame, which inclusion orders."""
        return order_proximity(self.frame).rows_on(reps, reps)

    @cached_property
    def rr(self) -> "RFrameData":
        """The frame of round ideals of `wb`: the next level of the
        way-below comonad's tower."""
        return rframe(self.wb)

    @cached_property
    def cc(self) -> "RFrameData":
        """The frame of round ideals of `maxp`: the next level of the
        maximal-structure comonad's tower."""
        return self.rr if self.maxp == self.wb else rframe(self.maxp)


class FiniteRFrame(RFrameData):
    """The ideal frame of a finite order.  Each of its ideals is the
    downset of its join, so membership rows are order rows of the base at
    the joins, and way-below rows are the base relation there.  Its
    maximal proximity is `wb`, by the collapse theorem."""

    @cached_property
    def maxp(self) -> FiniteProximity:
        """`wb` itself: the maximal proximity is a finite proximity, so by
        the collapse theorem the order, as `wb` is.  maxrel.agreement
        checks both of its definitions against it."""
        return self.wb

    def way_below_kappa_rows(self, ideals, tops, rel) -> list[int]:
        """Row p: the q with ideals[p], whose join is tops[p], way below
        kappa(tops[q]): rel, base.rows_on(tops, tops), as I << J means that
        J holds the join of I, and kappa(b) is the downset of b."""
        return rel

    def holder_rows(self, xs, ideals, tops) -> list[int]:
        """Row p: the t with xs[p] a member of ideals[t], whose joins are
        tops: ideals[t] is the downset of tops[t], so this is the row of
        xs[p] in the base, the order, read at tops."""
        return self.base.rows_on(xs, tops)

    def union_over(self, rows, sels) -> list[int]:
        """For each mask in sels, the union of rows[k] over its set bits k."""
        return [_union(rows, sel) for sel in sels]


class ChainRFrame(RFrameData):
    """The ideal frame of a chain proximity, again a chain-like frame.  Its
    rows run over representatives in chain order: a relation row is one
    suffix found by one bisection, and a membership row tests `member` only
    at the ideals whose join is the element.  The order facts this needs
    (sorted representatives and joins, nested ideals) are checked once per
    list, where it is built."""

    def ideal_of(self, el) -> RoundIdeal:
        if type(el) is El and el.n and self.frame.contains(El(el.seg, 1)):
            # El(i, 1) is an element only in an omega segment i, where
            # El(i, n) is Prin of the base element n places along from its
            # start's, which relates to itself; a negative n is refused as
            # the base code it shifts to
            base = self.base
            return Prin._unchecked(
                base, base.frame.check(El(self.ideals[el.seg].a.seg, el.n)))
        return super().ideal_of(el)

    @cached_property
    def maxp(self) -> ChainProximity:
        """I below J iff I is contained in J and the joins are related: a
        limit of the ideal frame stands for everything under a base limit,
        and its join relates to itself exactly when that base limit does."""
        refl = frozenset(e for e in self.frame.limits()
                         if self.base.reflexive(self.joins[e.seg]))
        return ChainProximity(self.frame, refl)

    def joins_on(self, reps) -> list:
        return _check_sorted(super().joins_on(reps), "joins of the representatives")

    def inclusion_rows(self, reps, ideals) -> list[int]:
        for I, J in zip(ideals, ideals[1:]):
            if not subideal(I, J) or subideal(J, I):
                raise BrokenInvariant(
                    f"ideals of the representatives are not nested: {J!r} after {I!r}")
        return super().inclusion_rows(reps, ideals)

    def way_below_kappa_rows(self, ideals, tops, rel) -> list[int]:
        # kappa(b) holds everything under b and nothing over it, so
        # I << kappa(b) when its join is under b, fails when it is over b,
        # and only b = the join of I needs a test
        return [_above(tops, x, way_below_ideals(I, kappa(self.base, x)))
                for I, x in zip(ideals, tops)]

    def holder_rows(self, xs, ideals, tops) -> list[int]:
        # a round ideal of a chain holds everything under its join and
        # nothing over it, so only the ideals whose join is x need a test
        out = []
        for x in xs:
            lo, hi = bisect_left(tops, x), bisect_right(tops, x)
            out.append(_above(tops, x, False)
                       | sum(1 << t for t in range(lo, hi) if member(x, ideals[t])))
        return out

    def union_over(self, rows, sels) -> list[int]:
        # each selection is a row of a chain relation, a suffix, so its
        # union is a running union taken from the end
        tail = [0] * (len(rows) + 1)
        for k in range(len(rows) - 1, -1, -1):
            tail[k] = tail[k + 1] | rows[k]
        return [tail[_low(sel)] if sel else 0 for sel in sels]


def kept_on_rframe(build):
    """Make build(rfd), a structure map of one RFrameData or another value
    that depends on it alone, run once per RFrameData: the value is kept
    in rfd.maps and returned on later calls."""
    @wraps(build)
    def kept(rfd: RFrameData):
        if build not in rfd.maps:
            rfd.maps[build] = build(rfd)
        return rfd.maps[build]

    return kept


def rframe(prox: Proximity) -> RFrameData:
    """Materialize the frame of round ideals of a validated proximity; a
    finite relation other than the order is refused."""
    if isinstance(prox, FiniteProximity):
        return _rframe_finite(prox)
    return _rframe_chain(prox)


def _rframe_finite(prox: FiniteProximity) -> FiniteRFrame:
    """The ideal frame of the order, the one finite proximity: x -> down[x]
    is an order isomorphism onto it, so it is the base frame renamed dn(x).
    Where the new names reorder two elements it is built as the ring of
    the sets down[x] & J, J the join-irreducibles: these are join-prime in
    a distributive lattice, so the sets are closed under union."""
    prox.require_order()
    f = prox.frame
    if f.n > FINITE_IDEAL_ENUM_LIMIT:
        raise TooLarge(
            f"round-ideal enumeration limited to {FINITE_IDEAL_ENUM_LIMIT} elements"
        )
    names = tuple(f"dn({x})" for x in f.names)
    frame, order = _renamed(f, names), f.elements()
    if frame is None:
        irr = _irreducibles(f.down)
        frame, order = _ring_of_sets(names, [d & irr for d in f.down])
    return FiniteRFrame(base=prox, frame=frame, wb=way_below_proximity(frame),
                        ideals=tuple(Prin._unchecked(prox, x) for x in order))


def _rframe_chain(prox: ChainProximity) -> ChainRFrame:
    f = prox.frame
    segs: list[Segment] = []
    ideals: list[RoundIdeal] = []
    # every element but a limit outside reflexive_limits relates to itself,
    # so each ideal below is round as built
    for i, s in enumerate(f.segments):
        e = El(i, 0)
        if s.kind == OMEGA:
            if f.is_limit(e):
                raise UnsupportedRepresentation(
                    "omega block directly after an omega block is unsupported"
                )
            segs.append(Segment(OMEGA, f"P[{s.label}]"))
            ideals.append(Prin._unchecked(prox, e))
        elif f.is_limit(e):
            segs.append(Segment(POINT, f"B[{s.label}]"))
            ideals.append(BelowLim._unchecked(prox, e))
            if e in prox.reflexive_limits:
                segs.append(Segment(POINT, f"P[{s.label}]"))
                ideals.append(Prin._unchecked(prox, e))
        else:
            segs.append(Segment(POINT, f"P[{s.label}]"))
            ideals.append(Prin._unchecked(prox, e))
    frame = ChainLikeFrame(tuple(segs))
    return ChainRFrame(base=prox, frame=frame, wb=way_below_proximity(frame),
                       ideals=tuple(ideals))


def ideal_frame(frame) -> RFrameData:
    """The frame of all ideals: round ideals for the order proximity."""
    return rframe(order_proximity(frame))
