"""Symbolic countable chains.

A chain-like frame is a total order assembled from finitely many segments,
each either an omega block (elements indexed 0, 1, 2, ...) or a single
point.  Elements are never materialized: every operation is arithmetic on
codes.  The user-facing family built by :func:`build_chain_frame` consists
of k omega blocks, each capped by a limit point; frames of round ideals
computed elsewhere reuse the same representation with different segment
layouts.

Element codes :class:`El` and eventually-affine sequences :class:`Seq`
are immutable tuples, so construction, hashing and comparison run in C:
they hash and compare structurally, and the tuple order of codes is the
chain order.  A plain tuple is not an element: `contains` tests for
:class:`El`.  A finite frame has the same carrier methods; a map out of a
chain is kept by its values at the segment `starts`, and `read` moves
them along an omega block.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import BrokenInvariant, InvalidParameter, MalformedMap

# the cap on the digits int() reads and str() writes, 0 for none (none before 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

OMEGA = "omega"
POINT = "point"


class El(NamedTuple):
    """Element code: segment index plus position inside the segment.

    Point segments only carry position 0.  An El is an immutable tuple
    (seg, n), so it hashes and compares structurally, and tuple order is
    exactly the chain order.
    """

    seg: int
    n: int

    def __repr__(self):
        return f"El({self.seg},{self.n})"


@dataclass(frozen=True)
class Segment:
    kind: str  # OMEGA | POINT
    label: str


@dataclass(frozen=True)
class ChainLikeFrame:
    """A countable total order with decidable constant-time lattice ops.

    The last segment must be a point so that the frame has a top.  An
    element (seg, 0) sitting immediately after an omega block is a limit:
    the supremum of that block.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidParameter("a chain frame needs at least one segment")
        if self.segments[-1].kind != POINT:
            raise InvalidParameter("last segment must be a point (the top)")

    # -- carrier ------------------------------------------------------

    def contains(self, e: El) -> bool:
        """Whether e is an El naming an element; a plain tuple is not one."""
        if type(e) is not El or not (0 <= e.seg < len(self.segments)) or e.n < 0:
            return False
        return self.segments[e.seg].kind == OMEGA or e.n == 0

    def check(self, e: El) -> El:
        if not self.contains(e):
            raise _not_an_element(e)
        return e

    @property
    def bot(self) -> El:
        return El(0, 0)

    @property
    def top(self) -> El:
        return El(len(self.segments) - 1, 0)

    def index(self, label: str) -> El:
        """The element labelled `label`: a point's label, or an omega
        block's label, a dot and a position."""
        for i, seg in enumerate(self.segments):
            if seg.kind == POINT and seg.label == label:
                return El(i, 0)
            prefix = seg.label + "."
            if seg.kind == OMEGA and type(label) is str and label.startswith(prefix):
                # only the positions `label` prints: no sign, space or
                # leading 0, and no more digits than str() writes for an int
                pos = label[len(prefix):]
                if (pos.isascii() and pos.isdigit() and (pos == "0" or pos[0] != "0")
                        and not 0 < _max_str_digits() < len(pos)):
                    return El(i, int(pos))
        raise InvalidParameter(f"no element named {label!r}")

    def read(self, table: tuple, e: El):
        """The value at e of a map kept as `table`, its values at `starts`:
        the value at the start of e's segment, moved n places along an
        omega block."""
        seg, n = self.check(e)
        return table[seg] if n == 0 else El(table[seg].seg, n)

    def label(self, e: El) -> str:
        seg, n = self.check(e)
        s = self.segments[seg]
        return f"{s.label}.{n}" if s.kind == OMEGA else s.label

    # -- order and lattice ops ----------------------------------------

    def leq(self, a: El, b: El) -> bool:
        return a <= b

    def meet(self, a: El, b: El) -> El:
        return min(a, b)

    def join(self, a: El, b: El) -> El:
        return max(a, b)

    def join_over(self, idx, values=None) -> El:
        """The join of values[b], or of b when values is None, over b in idx."""
        j, join = self.bot, self.join
        for b in idx:
            j = join(j, b if values is None else values[b])
        return j

    def is_limit(self, e: El) -> bool:
        """True when e is the supremum of the strictly smaller elements."""
        if type(e) is not El:
            raise _not_an_element(e)
        seg, n = e
        segs = self.segments
        if n == 0 and 0 < seg < len(segs):
            return segs[seg - 1].kind == OMEGA
        if n == 0 and seg == 0 or n > 0 and 0 <= seg < len(segs) and segs[seg].kind == OMEGA:
            return False
        raise _not_an_element(e)

    def limits(self) -> list[El]:
        return [
            El(i, 0)
            for i in range(1, len(self.segments))
            if self.segments[i - 1].kind == OMEGA
        ]

    def successor_of(self, e: El) -> El | None:
        """The immediate successor, or None for the top element."""
        seg, n = self.check(e)
        if self.segments[seg].kind == OMEGA:
            return El(seg, n + 1)
        return El(seg + 1, 0) if seg + 1 < len(self.segments) else None

    @cached_property
    def starts(self) -> tuple[El, ...]:
        """The first element of each segment, where a segment-wise map is given."""
        return tuple(El(i, 0) for i in range(len(self.segments)))

    # -- representatives ----------------------------------------------

    def class_representatives(self, depth: int = 3) -> list[El]:
        """Finitely many elements covering every segment class.

        Omega blocks contribute their first `depth` elements; points
        contribute themselves.  The list is in chain order.  The
        per-class law checks pick `depth` from the horizons of the maps
        they apply; reports list the relations on these elements.
        """
        out: list[El] = []
        for i, s in enumerate(self.segments):
            if s.kind == OMEGA:
                out.extend(El(i, n) for n in range(depth))
            else:
                out.append(El(i, 0))
        return out


def _not_an_element(e) -> InvalidParameter:
    """The error for a code e that is not an element of the chain."""
    return InvalidParameter(f"{e} is not an element of this chain")


def _check_sorted(vals, what: str):
    """vals, unless they descend: the row masks below bisect them."""
    for a, b in zip(vals, vals[1:]):
        if b < a:
            raise BrokenInvariant(f"{what} are not in chain order: {b!r} after {a!r}")
    return vals


def _above(vals, x, inclusive: bool) -> int:
    """Mask of the positions q of the sorted vals with vals[q] > x, or
    vals[q] == x when inclusive: one suffix, found by one bisection."""
    start = (bisect_left if inclusive else bisect_right)(vals, x)
    return (1 << len(vals)) - (1 << start)


def build_chain_frame(k: int, names: list[str] | None = None) -> ChainLikeFrame:
    """k omega blocks, each capped by a limit point; top is the last limit."""
    if k < 1:
        raise InvalidParameter(f"block count must be >= 1, got {k}")
    if names is not None and len(names) > k:
        raise InvalidParameter(f"{len(names)} block names for k = {k} blocks")
    segs: list[Segment] = []
    for i in range(k):
        block = names[i] if names and i < len(names) else f"S{i}"
        segs.append(Segment(OMEGA, block))
        segs.append(Segment(POINT, f"L{i + 1}"))
    seen: set[str] = set()
    for seg in segs:
        if seg.label in seen:
            raise InvalidParameter(f"duplicate chain label {seg.label!r}")
        seen.add(seg.label)
    return ChainLikeFrame(tuple(segs))


def succ(frame: ChainLikeFrame, block: int, n: int) -> El:
    """Element Succ(block, n) of a frame built by build_chain_frame."""
    return frame.check(El(2 * block, n))


def lim(frame: ChainLikeFrame, i: int) -> El:
    """Limit point Lim(i), 1 <= i <= k, of a build_chain_frame frame."""
    return frame.check(El(2 * i - 1, 0))


# -- eventually-affine sequences -------------------------------------------


class _SeqFields(NamedTuple):
    const: object
    seg: int
    a: int
    b: int
    exceptions: tuple[tuple[int, object], ...]


class Seq(_SeqFields):
    """Sequence n -> value: finitely many (index, value) exceptions, then a
    tail that is the constant `const` or, when the slope `a` is >= 1,
    n -> El(seg, a*n + b).

    This describes a map out of one omega block (or, with no exceptions
    and a constant tail, out of a point), and a monotone family of frame
    elements.  A Seq is an immutable tuple (const, seg, a, b, exceptions)
    that hashes and compares structurally.  Construction refuses repeated
    and negative exception indices, sorts the exceptions by index and
    drops those that agree with the tail, so equal sequences compare
    equal.
    """

    __slots__ = ()

    def __new__(cls, const=None, seg=0, a=0, b=0, exceptions=()):
        if exceptions:
            exc = tuple(exceptions)
            idx = [m for m, _ in exc]
            if len(set(idx)) != len(idx):
                raise InvalidParameter("repeated exception index")
            if any(m < 0 for m in idx):
                raise MalformedMap("negative exception index")
            if a:
                kept = (e for e in exc if e[1] != El(seg, a * e[0] + b))
            else:
                kept = (e for e in exc if e[1] != const)
            exceptions = tuple(sorted(kept, key=lambda e: e[0]))
        return tuple.__new__(cls, (const, seg, a, b, exceptions or ()))

    @staticmethod
    def constant(v, exceptions=()) -> "Seq":
        if exceptions:
            return Seq(const=v, exceptions=exceptions)
        return tuple.__new__(Seq, (v, 0, 0, 0, ()))

    @staticmethod
    def affine(seg: int, a: int, b: int, exceptions=()) -> "Seq":
        if a < 1:
            raise InvalidParameter("affine tail needs slope >= 1; use constant")
        if exceptions:
            return Seq(seg=seg, a=a, b=b, exceptions=exceptions)
        return tuple.__new__(Seq, (None, seg, a, b, ()))

    @property
    def is_affine(self) -> bool:
        return self.a > 0

    def tail(self, n: int):
        return El(self.seg, self.a * n + self.b) if self.a else self.const

    def value(self, n: int):
        for m, v in self.exceptions:
            if m == n:
                return v
        return self.tail(n)

    def horizon(self) -> int:
        """One past the largest exception index: the tail rules from here."""
        return self.exceptions[-1][0] + 1 if self.exceptions else 0

    def descent(self, leq) -> int | None:
        """The first n with value(n) not below value(n+1), or None; past
        the horizon the tail never descends."""
        for n in range(self.horizon()):
            if not leq(self.value(n), self.value(n + 1)):
                return n
        return None

    def sup(self, join):
        """(supremum, attained?) of a monotone sequence: the limit after
        an affine tail's block, else the join of the tail and exceptions."""
        if self.a:
            return El(self.seg + 1, 0), False
        out = self.const
        for _, v in self.exceptions:
            out = join(out, v)
        return out, True


def _seq_problem(seq: Seq, frame) -> str | None:
    """The first reason why the values of seq are not all elements of
    frame (a chain or a finite frame), or None.  An affine tail needs a
    chain frame and must land in one of its omega blocks at an offset
    b >= 0, so that every value it takes is an element."""
    if seq.is_affine:
        if not isinstance(frame, ChainLikeFrame):
            return "affine tails need a chain target"
        if not (0 <= seq.seg < len(frame.segments)
                and frame.segments[seq.seg].kind == OMEGA):
            return "affine tail must land in an omega block"
        if seq.b < 0:
            return "affine tail offset must be >= 0"
    for _, v in seq.exceptions:
        if not frame.contains(v):
            return f"value {v!r} is not in the target frame"
    if not (seq.is_affine or frame.contains(seq.const)):
        return f"value {seq.const!r} is not in the target frame"
    return None
