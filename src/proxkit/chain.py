"""Symbolic countable chains.

A chain-like frame is a total order assembled from finitely many segments,
each either an omega block (elements indexed 0, 1, 2, ...) or a single
point.  Elements are never materialized: every operation is arithmetic on
codes.  The user-facing family built by :func:`build_chain_frame` consists
of k omega blocks, each capped by a limit point; frames of round ideals
computed elsewhere reuse the same representation with different segment
layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameter, NotDirected

OMEGA = "omega"
POINT = "point"


@dataclass(frozen=True, order=True)
class El:
    """Element code: segment index plus position inside the segment.

    Point segments only carry position 0.  Lexicographic comparison of
    (seg, n) is exactly the chain order.
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
        if not (0 <= e.seg < len(self.segments)) or e.n < 0:
            return False
        return self.segments[e.seg].kind == OMEGA or e.n == 0

    def check(self, e: El) -> El:
        if not self.contains(e):
            raise InvalidParameter(f"{e} is not an element of this chain")
        return e

    @property
    def bot(self) -> El:
        return El(0, 0)

    @property
    def top(self) -> El:
        return El(len(self.segments) - 1, 0)

    def label(self, e: El) -> str:
        s = self.segments[e.seg]
        return s.label if s.kind == POINT else f"{s.label}.{e.n}"

    # -- order and lattice ops ----------------------------------------

    def leq(self, a: El, b: El) -> bool:
        return a <= b

    def meet(self, a: El, b: El) -> El:
        return min(a, b)

    def join(self, a: El, b: El) -> El:
        return max(a, b)

    def is_limit(self, e: El) -> bool:
        """True when e is the supremum of the strictly smaller elements."""
        return e.n == 0 and e.seg > 0 and self.segments[e.seg - 1].kind == OMEGA

    def limits(self) -> list[El]:
        return [
            El(i, 0)
            for i in range(1, len(self.segments))
            if self.segments[i - 1].kind == OMEGA
        ]

    def successor_of(self, e: El) -> El | None:
        """The immediate successor, or None for the top element."""
        if self.segments[e.seg].kind == OMEGA:
            return El(e.seg, e.n + 1)
        if e.seg + 1 < len(self.segments):
            return El(e.seg + 1, 0)
        return None

    def way_below(self, a: El, b: El) -> bool:
        """a << b on a chain: a <= b, excluding limit b with a = b."""
        self.check(a), self.check(b)
        return a < b or (a == b and not self.is_limit(a))

    # -- sampling -----------------------------------------------------

    def class_representatives(self, depth: int = 3) -> list[El]:
        """Finitely many elements covering every segment class.

        Omega blocks contribute their first `depth` elements; points
        contribute themselves.  Used by seed-driven sampling and by the
        per-class listings of reports.
        """
        out: list[El] = []
        for i, s in enumerate(self.segments):
            if s.kind == OMEGA:
                out.extend(El(i, n) for n in range(depth))
            else:
                out.append(El(i, 0))
        return out


def build_chain_frame(k: int, names: list[str] | None = None) -> ChainLikeFrame:
    """k omega blocks, each capped by a limit point; top is the last limit."""
    if k < 1:
        raise InvalidParameter(f"block count must be >= 1, got {k}")
    segs: list[Segment] = []
    for i in range(k):
        block = names[i] if names and i < len(names) else f"S{i}"
        segs.append(Segment(OMEGA, block))
        segs.append(Segment(POINT, f"L{i + 1}"))
    return ChainLikeFrame(tuple(segs))


def succ(frame: ChainLikeFrame, block: int, n: int) -> El:
    """Element Succ(block, n) of a frame built by build_chain_frame."""
    return frame.check(El(2 * block, n))


def lim(frame: ChainLikeFrame, i: int) -> El:
    """Limit point Lim(i), 1 <= i <= k, of a build_chain_frame frame."""
    return frame.check(El(2 * i - 1, 0))


# -- finitely-described monotone families ---------------------------------

AFFINE = "affine"
CONST = "const"


@dataclass(frozen=True)
class Tail:
    """Eventual behaviour of a family: affine into an omega segment
    (n -> El(seg, a*n + b) with slope a >= 1) or a constant element."""

    kind: str  # AFFINE | CONST
    seg: int = 0
    a: int = 0
    b: int = 0
    const: El | None = None

    @staticmethod
    def affine(seg: int, a: int, b: int) -> "Tail":
        if a < 1:
            raise InvalidParameter("affine tail needs slope >= 1; use const")
        return Tail(AFFINE, seg=seg, a=a, b=b)

    @staticmethod
    def constant(e: El) -> "Tail":
        return Tail(CONST, const=e)

    def value(self, n: int) -> El:
        if self.kind == AFFINE:
            return El(self.seg, self.a * n + self.b)
        return self.const


@dataclass(frozen=True)
class ElementFamily:
    """Monotone sequence n -> frame element, given by finitely many
    exceptions and a tail rule.  Suprema are computable from the tail."""

    frame: ChainLikeFrame = field(compare=False)
    tail: Tail = Tail.constant(El(0, 0))
    exceptions: tuple[tuple[int, El], ...] = ()

    def __post_init__(self):
        for _, e in self.exceptions:
            self.frame.check(e)
        if self.tail.kind == AFFINE:
            s = self.frame.segments[self.tail.seg]
            if s.kind != OMEGA:
                raise InvalidParameter("affine tail must land in an omega block")
            if self.tail.b < 0:
                raise InvalidParameter("affine tail offset must be >= 0")
        else:
            self.frame.check(self.tail.const)
        if not self._monotone():
            raise NotDirected("described family is not monotone nondecreasing")

    def _exc(self) -> dict[int, El]:
        return dict(self.exceptions)

    def value(self, n: int) -> El:
        exc = self._exc()
        if n in exc:
            return exc[n]
        return self.tail.value(n)

    def _monotone(self) -> bool:
        horizon = max([n for n, _ in self.exceptions], default=-1) + 2
        prev = None
        for n in range(horizon + 1):
            v = self.value(n)
            if prev is not None and v < prev:
                return False
            prev = v
        return True

    def sup(self) -> El:
        """Exact supremum: the limit after the tail's block, or the maximum."""
        if self.tail.kind == AFFINE:
            return El(self.tail.seg + 1, 0)
        horizon = max([n for n, _ in self.exceptions], default=-1) + 1
        return max(self.value(n) for n in range(horizon + 1))

    def attained(self) -> bool:
        """Whether the supremum is a value of the family."""
        return self.tail.kind == CONST
