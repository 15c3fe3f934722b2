"""Proximity relations on effective frames.

A proximity is a binary relation finer than the order that forms a bounded
sublattice of L x L, is closed under weakening, interpolates, and
approximates every element from below.  Finite relations are stored as
int bitmask rows, with the columns as a cached transpose.  The order
itself is a proximity on every finite frame, and by the finite collapse
theorem the only one, so a relation equal to the order is accepted at
once.  Any other relation is decided axiom by axiom, exhaustively, by
mask operations on its rows and columns and on the frame's up- and
down-rows, at most O(n * P) of them for P related pairs; each axiom
has one check, which reports the first failing witness of its scan.
Where only the decision counts, as for the collapse candidates, the
checks run cheapest first and stop at the first that fails.  Chain
relations are described by the set of relation-reflexive limit points
and are decided by O(#segments) checks, one per element class.  The
tests check both against `tests/reference.py`, which loops over each
axiom's quantifiers, and the order's report against the finite mask
scan.

On a chain every element with an immediate predecessor is forced to be
relation-reflexive (its set of approximants must attain it), and weakening
then forces every strict pair into the relation.  The reflexive-limit set
is therefore the full degree of freedom for chain proximities.

`way_below_proximity` gives the way-below relation of a frame as a
proximity, for the ideal frames of `rframe` and for `is_proper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .chain import ChainLikeFrame, El, _above
from .errors import InvalidReflexiveSet, MalformedRelation, TooLarge, UnsupportedRepresentation
from .finite import FiniteFrame, _bits, _downsets, _product, _transpose, _union
from .reports import FAIL, PASS, SYMBOLIC, AxiomReport, LawReport, Verdict, law_fail, law_pass


@dataclass(frozen=True)
class FiniteProximity:
    frame: FiniteFrame
    rows: tuple[int, ...]  # rows[a]: bitmask of the b with a rel b

    def rel(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def reflexive(self, a: int) -> bool:
        return self.rel(a, a)

    @cached_property
    def is_order(self) -> bool:
        """Whether the relation is the order, the one valid finite proximity."""
        return self.rows == self.frame.up

    def require_order(self) -> None:
        """Refuse, before work that holds only for proximities, a relation
        other than the order, the one finite proximity."""
        if not self.is_order:
            raise UnsupportedRepresentation("by the finite collapse theorem the order is "
                                            "the only finite proximity, and this relation is not")

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """cols[b]: bitmask of the a with a rel b."""
        return _transpose(self.rows, self.frame.n)

    @cached_property
    def col_bits(self) -> tuple[tuple[int, ...], ...]:
        """col_bits[b]: the a with a rel b, in increasing order."""
        return tuple(tuple(_bits(col)) for col in self.cols)

    @cached_property
    def sups(self) -> tuple:
        """sups[b]: the join of the approximants of b, column b of the
        relation; b itself whenever the relation approximates b."""
        return tuple(map(self.frame.join_over, self.col_bits))

    def rows_on(self, xs, vals) -> list[int]:
        """Row p: the mask of the q with rel(xs[p], vals[q]), that is the
        relation row of xs[p] read through the positions of vals."""
        at = [0] * self.frame.n
        for q, v in enumerate(vals):
            at[v] |= 1 << q
        return [_union(at, self.rows[x]) for x in xs]

    def pairs(self):
        """The related pairs in row-major order."""
        return [(a, b) for a, row in enumerate(self.rows) for b in _bits(row)]

    def label(self, a: int) -> str:
        return self.frame.names[a]


@dataclass(frozen=True)
class ChainProximity:
    """Strict pairs plus reflexivity everywhere except at the limit points
    outside `reflexive_limits`."""

    frame: ChainLikeFrame
    reflexive_limits: frozenset[El]

    def __post_init__(self):
        lims = set(self.frame.limits())
        if not set(self.reflexive_limits) <= lims:
            raise MalformedRelation("reflexive set contains non-limit elements")

    def rel(self, a: El, b: El) -> bool:
        self.frame.check(a), self.frame.check(b)
        return a < b or (a == b and self.reflexive(a))

    def reflexive(self, a: El) -> bool:
        return not self.frame.is_limit(a) or a in self.reflexive_limits

    @property
    def is_order(self) -> bool:
        """Whether the relation is the order: every limit relates to itself."""
        return len(self.reflexive_limits) == len(self.frame.limits())

    def rows_on(self, xs, vals) -> list[int]:
        """Row p: the mask of the q with rel(xs[p], vals[q]).  vals must
        be in chain order, as the representatives are; then each row is
        one suffix, found by one bisection."""
        return [_above(vals, x, self.reflexive(x)) for x in xs]

    def label(self, a: El) -> str:
        return self.frame.label(a)


Proximity = FiniteProximity | ChainProximity


def order_proximity(frame) -> Proximity:
    """The order itself as a proximity (always valid)."""
    if isinstance(frame, FiniteFrame):
        return FiniteProximity(frame, frame.up)
    return ChainProximity(frame, frozenset(frame.limits()))


def way_below_proximity(frame) -> Proximity:
    """The way-below relation as a proximity.  Every directed set of a
    finite lattice attains its supremum, so on a finite frame it is the
    order; on a chain it is the order less the pair (l, l) at each limit
    l, the supremum of the block below it."""
    if isinstance(frame, FiniteFrame):
        return order_proximity(frame)
    return ChainProximity(frame, frozenset())


def chain_proximity(frame: ChainLikeFrame, reflexive_blocks) -> ChainProximity:
    """Chain proximity from limit indices i (meaning the i-th limit point).

    The top limit must be reflexive, otherwise the relation misses (1,1).
    """
    lims = frame.limits()
    chosen = set()
    for i in reflexive_blocks:
        if not (1 <= i <= len(lims)):
            raise InvalidReflexiveSet(f"limit index {i} out of range 1..{len(lims)}")
        chosen.add(lims[i - 1])
    if frame.is_limit(frame.top) and frame.top not in chosen:
        raise InvalidReflexiveSet("top limit must be in the reflexive set")
    return ChainProximity(frame, frozenset(chosen))


def product_proximity(p: FiniteProximity, q: FiniteProximity):
    """Componentwise proximity on the product of two finite frames."""
    pf, pos = _product(p.frame, q.frame)
    m = q.frame.n
    rows = [0] * pf.n
    for a1, a2 in p.pairs():
        for b1, b2 in q.pairs():
            rows[pos[a1 * m + b1]] |= 1 << pos[a2 * m + b2]
    return FiniteProximity(pf, tuple(rows))


# -- axiom checking --------------------------------------------------------


def validate_proximity(prox: Proximity) -> AxiomReport:
    if isinstance(prox, FiniteProximity):
        return _validate_finite(prox)
    return _validate_chain(prox)


def _validate_finite(p: FiniteProximity) -> AxiomReport:
    n = p.frame.n
    if len(p.rows) != n or any(row >> n for row in p.rows):
        raise MalformedRelation("relation rows do not match the frame size")
    if p.is_order:
        return _ORDER_REPORT
    return _scan_finite(p)


def _scan_finite(p: FiniteProximity) -> AxiomReport:
    """The report of every axiom check, in report order; each check is a
    mask scan that stops at its first failure."""
    axioms = tuple((axiom, check(p)) for axiom, check in _AXIOM_CHECKS)
    return AxiomReport(axioms, collapse=p.is_order)


def _holds(p: FiniteProximity) -> bool:
    """Whether a relation with well-formed rows is a proximity: the order
    is, and any other relation must pass every axiom check, run cheapest
    first, up to the first failure."""
    return p.is_order or all(check(p).ok for check in _CHEAPEST_FIRST)


def _finer_than_leq(p: FiniteProximity) -> Verdict:
    up, names = p.frame.up, p.frame.names
    for a, row in enumerate(p.rows):
        out = row & ~up[a]
        if out:
            b = _low(out)
            return Verdict(FAIL, (names[a], names[b]), "pair not below the order")
    return Verdict(PASS)


def _sublattice(p: FiniteProximity) -> Verdict:
    f = p.frame
    n, rows, names = f.n, p.rows, f.names
    if not p.reflexive(f.bot) or not p.reflexive(f.top):
        missing = names[f.bot] if not p.reflexive(f.bot) else names[f.top]
        return Verdict(FAIL, (missing, missing), "bounds missing from the relation")
    # (a, b) and (c, d) are closed under meets iff meet(b, d) is in
    # rows[meet(a, c)], i.e. d is in meet_ok(b)[meet(a, c)]; joins alike.
    # Pairs (a, b) go in row-major order and their partners (c, d)
    # after them, as in itertools.combinations of the pair list.
    meet_t, join_t = f.meet_t, f.join_t
    meet_ok, join_ok = {}, {}
    col_bits = p.col_bits
    for a, b in p.pairs():
        if b not in meet_ok:
            meet_ok[b] = _preimage_rows(meet_t[b], col_bits)
            join_ok[b] = _preimage_rows(join_t[b], col_bits)
        mb, jb, ma, ja = meet_ok[b], join_ok[b], meet_t[a], join_t[a]
        for c in range(a, n):
            ds = rows[c] if c != a else rows[c] & -(2 << b)
            bad_meet = ds & ~mb[ma[c]]
            bad = bad_meet | ds & ~jb[ja[c]]
            if bad:
                d = _low(bad)
                note = "meet closure" if bad_meet >> d & 1 else "join closure"
                return Verdict(FAIL, (names[a], names[b], names[c], names[d]), note)
    return Verdict(PASS)


def _weakening(p: FiniteProximity) -> Verdict:
    # a <= b rel c <= d needs a rel d: every c related from b has up[c]
    # inside the rows of all a below b
    f = p.frame
    rows, names, up, down = p.rows, f.names, f.up, f.down
    for b in range(f.n):
        common = -1
        for a in _bits(down[b]):
            common &= rows[a]
        c = next((c for c in _bits(rows[b]) if up[c] & ~common), None)
        if c is not None:
            a = next(a for a in _bits(down[b]) if up[c] & ~rows[a])
            d = _low(up[c] & ~rows[a])
            return Verdict(FAIL, (names[a], names[b], names[c], names[d]))
    return Verdict(PASS)


def _interpolation(p: FiniteProximity) -> Verdict:
    cols, names = p.cols, p.frame.names
    for a, row in enumerate(p.rows):
        for b in _bits(row):
            if not row & cols[b]:
                return Verdict(FAIL, (names[a], names[b]))
    return Verdict(PASS)


def _approximation(p: FiniteProximity) -> Verdict:
    names = p.frame.names
    for a, j in enumerate(p.sups):
        if j != a:
            return Verdict(FAIL, (names[a], names[j]), "join of approximants differs")
    return Verdict(PASS)


# the axiom checks in report order, and the order `_holds` runs them in:
# the scans linear in n and P before weakening and the O(n * P) sublattice
_AXIOM_CHECKS = (
    ("finer-than-leq", _finer_than_leq),
    ("sublattice", _sublattice),
    ("weakening", _weakening),
    ("interpolation", _interpolation),
    ("approximation", _approximation),
)
_CHEAPEST_FIRST = (_approximation, _interpolation, _finer_than_leq, _weakening, _sublattice)


# the order passes every axiom: it is finer than itself, a sublattice
# containing the bounds, closed under weakening, interpolated by either
# end, and each element is the join of the elements below it
_ORDER_REPORT = AxiomReport(
    tuple((axiom, Verdict(PASS)) for axiom in
          ("finer-than-leq", "sublattice", "weakening", "interpolation", "approximation")),
    collapse=True)


def _low(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _preimage_rows(op_row, col_bits) -> list[int]:
    """ok[x] = bitmask of the d with op_row[d] in rows[x]: the preimage of
    each value y under d -> op_row[d], added to every x in col_bits[y]."""
    n = len(op_row)
    pre = [0] * n
    for d, y in enumerate(op_row):
        pre[y] |= 1 << d
    ok = [0] * n
    for y, ds in enumerate(pre):
        if ds:
            for x in col_bits[y]:
                ok[x] |= ds
    return ok


# the verdicts of the chain validator below that need no witness, shared
# by every report
_CHAIN_FINER = Verdict(SYMBOLIC, note="relation is strict pairs plus reflexive classes")
_CHAIN_SUBLATTICE = Verdict(SYMBOLIC, note="min/max closure per reflexivity class")
_CHAIN_WEAKENING = Verdict(SYMBOLIC, note="fails only at a=d non-reflexive, impossible")
_CHAIN_INTERPOLATION = Verdict(SYMBOLIC, note="witness: a itself, or the successor of a")
_CHAIN_APPROXIMATION = Verdict(SYMBOLIC, note="suprema computed from the tail rule")


def _validate_chain(p: ChainProximity) -> AxiomReport:
    """Decide the axioms by one check: the top is reflexive.

    The relation is "a < b, or a = b and a is reflexive", and every
    element except a limit outside `reflexive_limits` is reflexive.  The
    other axioms hold by the arguments in the notes.  The tests compare
    the verdicts with the axioms' quantifier loops in `tests/reference.py`,
    run on a window of points of the chain.
    """
    f = p.frame
    # (1b) bounded sublattice: bot is never a limit; top must be reflexive.
    # min/max of two related pairs can only land on a non-reflexive a = a
    # pair if one of the pairs already was one.
    if not p.reflexive(f.top):
        sublattice = Verdict(FAIL, (f.label(f.top), f.label(f.top)), "top pair missing")
    else:
        sublattice = _CHAIN_SUBLATTICE
    return AxiomReport((
        # (1a) finer than the order: rel only ever holds on a <= b pairs.
        ("finer-than-leq", _CHAIN_FINER),
        ("sublattice", sublattice),
        # (2) weakening: a <= b rel c <= d gives a rel d.  The only way
        # a rel d can fail with a <= d is a = d at a non-reflexive limit,
        # which forces a = b = c = d and contradicts b rel c.
        ("weakening", _CHAIN_WEAKENING),
        # (3) interpolation: reflexive a interpolates through itself; for
        # a non-reflexive limit a < b, its successor s gives a rel s rel b:
        # s is index 1 of a's omega block or the first element after a's
        # point segment, never a limit, so s is reflexive.
        ("interpolation", _CHAIN_INTERPOLATION),
        # (4) approximation: reflexive elements approximate themselves; a
        # non-reflexive limit El(s, 0) is the supremum of the block s - 1
        # below it, which are its approximants.
        ("approximation", _CHAIN_APPROXIMATION),
    ), collapse=p.is_order)


# -- finite collapse certificate -------------------------------------------


def certify_finite_collapse(frame: FiniteFrame) -> LawReport:
    """Exhaustively certify that the order is the only proximity on a
    finite frame.

    Covers every sub-relation of leq containing (bot,bot) and (top,top)
    and reports a counterexample relation if one other than leq survives.
    Only the weakening-closed ones are generated: any other fails the
    weakening axiom, whatever the rest of the relation is.  Each one is
    decided by `_holds`, which runs the axiom checks cheapest first up to
    the first failure, without building a report.  `samples` counts the
    whole space covered.
    """
    instance = f"finite:{','.join(frame.names)}"
    free = [
        (a, b)
        for a in frame.elements()
        for b in frame.elements()
        if frame.leq(a, b) and (a, b) not in ((frame.bot, frame.bot), (frame.top, frame.top))
    ]
    if len(free) > 24:
        raise TooLarge(f"relation search space 2^{len(free)} is over budget")
    survivors = 0
    n = frame.n
    for bits in _weakening_closed(frame, free):
        rows = [0] * n
        rows[frame.bot] |= 1 << frame.bot
        rows[frame.top] |= 1 << frame.top
        for i, (a, b) in enumerate(free):
            if (bits >> i) & 1:
                rows[a] |= 1 << b
        cand = FiniteProximity(frame, tuple(rows))
        if _holds(cand):
            survivors += 1
            if not cand.is_order:
                witness = [(frame.names[a], frame.names[b]) for a, b in cand.pairs()]
                return law_fail(
                    "collapse", instance, witness=tuple(witness),
                    samples=1 << len(free), note="non-order proximity found",
                )
    if survivors != 1:
        return law_fail("collapse", instance, samples=1 << len(free),
                        note="the order itself did not survive")
    return law_pass("collapse", instance, samples=1 << len(free),
                    note="only the order satisfies the axioms")


def _weakening_closed(frame: FiniteFrame, free) -> list[int]:
    """The masks over `free` whose relation, with the two bound pairs, is
    closed under weakening, in increasing order.

    These are the downsets of the pair order (a,d) <= (b,c) iff a <= b and
    c <= d that contain the pairs below (bot,bot) and (top,top), i.e. every
    (bot,d) and (a,top).
    """
    leq = frame.leq
    below = [
        sum(1 << j for j, (a, d) in enumerate(free)
            if j != i and leq(a, b) and leq(c, d))
        for i, (b, c) in enumerate(free)
    ]
    forced = sum(1 << i for i, (a, d) in enumerate(free)
                 if a == frame.bot or d == frame.top)
    return sorted(_downsets(below, forced))
