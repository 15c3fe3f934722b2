"""Finite frames (= finite distributive lattices) from explicit data.

Frames store their order only as int bitmask rows: up[a] is the bitmask
of the elements above a, and down[b] that of the elements below b.  Full
meet/join tables make every lattice operation a table lookup.  Elements
are the canonical indices 0..n-1, ordered topologically by leq with ties
broken by name.

Distributivity is decided by Birkhoff's theorem: a finite lattice is
distributive exactly when it has as many elements as its poset of
join-irreducibles has downsets, and that count is read off the rows.
The O(n^3) scan of every triple runs only when the count says no, to
find the first failing triple for the `NotDistributive` witness.  Frames
over DISTRIBUTIVITY_SCAN_LIMIT elements are refused as soon as their
size is known, before any table is built.

A finite frame has the carrier methods of a chain frame (`check`,
`read`, `join_over`, `is_limit`, `limits`, `class_representatives`):
every element is a start and its own class, and none is a limit.  Every
join over a set of indices, such as the join of an element's
approximants, is taken by `join_over` through the rows of the join table.
A frame keeps, once asked, its `triangle`: (a, b, meet, join) for every
b <= a in backward row-major order, which the homomorphism validators of
`morphisms` scan by table lookup.  Kept tables are cached on the frame
they describe and go with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

from .errors import (
    InvalidParameter,
    NoBounds,
    NotALattice,
    NotAPoset,
    NotATopology,
    NotDistributive,
    TooLarge,
)

DISTRIBUTIVITY_SCAN_LIMIT = 64


@dataclass(frozen=True)
class FiniteFrame:
    names: tuple[str, ...]
    up: tuple[int, ...]  # up[a]: bitmask of the elements above a
    down: tuple[int, ...]  # down[b]: bitmask of the elements below b
    meet_t: tuple[tuple[int, ...], ...]
    join_t: tuple[tuple[int, ...], ...]
    bot: int
    top: int

    @property
    def n(self) -> int:
        return len(self.names)

    def elements(self) -> range:
        return range(self.n)

    # a map out of a finite frame is given at every element, its table
    starts = property(elements)

    def contains(self, v) -> bool:
        """Whether v is an element index; a bool is not one."""
        return type(v) is int and 0 <= v < len(self.names)

    def check(self, v) -> int:
        if not self.contains(v):
            raise InvalidParameter(f"{v!r} is not an element of this frame")
        return v

    def read(self, table: tuple, v):
        """The value at v of a map kept as `table`, its values at `starts`."""
        return table[self.check(v)]

    def is_limit(self, v) -> bool:
        """False: a finite frame has no limits."""
        self.check(v)
        return False

    def limits(self) -> list:
        return []

    def class_representatives(self, depth: int = 3) -> list[int]:
        """Every element: each is its own class."""
        return list(self.elements())

    def join_over(self, idx, values=None) -> int:
        """The join of values[b], or of b itself when values is None, over
        the indices b in idx, through the rows of the join table."""
        j, join_t = self.bot, self.join_t
        if values is None:
            for b in idx:
                j = join_t[j][b]
        else:
            for b in idx:
                j = join_t[j][values[b]]
        return j

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        return self.meet_t[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_t[a][b]

    @cached_property
    def triangle(self) -> tuple[tuple[int, int, int, int], ...]:
        """(a, b, meet(a, b), join(a, b)) for every b <= a, a from the top
        index down and b from a down: a backward row-major scan of a
        symmetric condition meets its last failing pair first."""
        meet_t, join_t = self.meet_t, self.join_t
        return tuple((a, b, meet_t[a][b], join_t[a][b])
                     for a in range(self.n - 1, -1, -1) for b in range(a, -1, -1))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidParameter(f"no element named {name!r}") from None

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        up, down = self.up, self.down
        return [(a, b) for a in self.elements() for b in _bits(up[a] & ~(1 << a))
                if up[a] & down[b] == 1 << a | 1 << b]

    def __repr__(self):
        return f"FiniteFrame({list(self.names)})"


def _transpose(rows, n: int) -> tuple[int, ...]:
    """The n columns of a relation given by its int rows: bit a of
    column b is set iff bit b of rows[a] is."""
    cols = [0] * n
    for a, row in enumerate(rows):
        for b in _bits(row):
            cols[b] |= 1 << a
    return tuple(cols)


def _bits(mask: int):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(rows, sel: int) -> int:
    """The union of rows[k] over the set bits k of sel."""
    out = 0
    for k in _bits(sel):
        out |= rows[k]
    return out


def _order_rows(names: list[str], leq_pairs) -> list[int]:
    """Closed up-rows of the order generated by leq_pairs: bit b of
    up[a] is set iff names[a] <= names[b].  Raises NotAPoset on duplicate
    ids, unlisted ids and cycles."""
    if len(set(names)) != len(names):
        raise NotAPoset("duplicate element ids")
    n = len(names)
    idx = {name: i for i, name in enumerate(names)}
    up = [1 << i for i in range(n)]
    for x, y in leq_pairs:
        if x not in idx or y not in idx:
            raise NotAPoset(f"pair ({x},{y}) references an unlisted id")
        up[idx[x]] |= 1 << idx[y]
    # transitive closure
    for k in range(n):
        bit, row = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    for a in range(n):
        for b in range(a + 1, n):
            if (up[a] >> b) & 1 and (up[b] >> a) & 1:
                raise NotAPoset(f"cycle through {names[a]} and {names[b]}")
    return up


def _frame_of_rows(names, up: list[int]) -> tuple[FiniteFrame, list[int]]:
    """Validate the poset with closed up-rows `up` as a finite frame and
    derive all tables.  Returns the frame and pos, where pos[i] is the
    canonical index of input element i.  Raises NotAPoset, NoBounds,
    TooLarge, NotALattice or NotDistributive."""
    if len(set(names)) != len(names):
        raise NotAPoset("duplicate element ids")
    n = len(names)
    if n == 0:
        raise NoBounds("empty element list")
    _check_size(n)
    down = _transpose(up, n)
    # canonical order: topological by leq, ties by id
    order = sorted(range(n), key=lambda i: (down[i].bit_count(), names[i]))
    pos = [0] * n
    for i, old in enumerate(order):
        pos[old] = i
    names2 = tuple(names[i] for i in order)
    up = [sum(1 << pos[b] for b in _bits(up[a])) for a in order]
    down = [sum(1 << pos[b] for b in _bits(down[a])) for a in order]

    # a bottom, if any, comes first and a top last in a linear extension
    full = (1 << n) - 1
    if up[0] != full or down[-1] != full:
        raise NoBounds("frame needs a global bottom and top")

    # In a linear extension the least upper bound, if any, is the lowest
    # common upper bound, and the greatest lower bound the highest common
    # lower bound.  Only joins need checking: if a and b have no meet, two
    # maximal common lower bounds below them have no join, and that pair
    # comes first in the scan.
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            m = (down[a] & down[b]).bit_length() - 1
            upper = up[a] & up[b]
            j = (upper & -upper).bit_length() - 1
            if upper & ~up[j]:
                raise NotALattice(f"no join for ({names2[a]},{names2[b]})")
            meet_t[a][b] = meet_t[b][a] = m
            join_t[a][b] = join_t[b][a] = j

    if not _distributive(down):
        raise NotDistributive(_distributivity_witness(names2, meet_t, join_t))

    return FiniteFrame(
        names=names2,
        up=tuple(up),
        down=tuple(down),
        meet_t=tuple(map(tuple, meet_t)),
        join_t=tuple(map(tuple, join_t)),
        bot=0,
        top=n - 1,
    ), pos


def _check_size(n: int) -> None:
    """Refuse a frame of n elements before its O(n^2) tables are built."""
    if n > DISTRIBUTIVITY_SCAN_LIMIT:
        raise TooLarge(
            f"distributivity scan rejects frames over {DISTRIBUTIVITY_SCAN_LIMIT} elements"
        )


def _distributive(down) -> bool:
    """Whether the finite lattice with canonical down-rows `down` is
    distributive, by Birkhoff's theorem.  x |-> the join-irreducibles below
    x embeds any finite lattice into the downsets of its poset J of
    join-irreducibles, and is onto exactly when the lattice is
    distributive; so it is distributive iff J has n downsets.  J is the
    set of x != bot whose strict downset is principal, generated by its
    highest element t.  The count stops once it passes n."""
    n = len(down)
    below = [d & ~(1 << x) for x, d in enumerate(down)]
    irreducible = sum(1 << x for x in range(1, n)
                      if below[x] == down[below[x].bit_length() - 1])
    # the elements outside J start out in every downset, so only J's count
    return len(_downsets(below, ((1 << n) - 1) & ~irreducible, limit=n)) == n


def _distributivity_witness(names, meet_t, join_t):
    """The names of the first triple (a, b, c), in the order of an
    O(n^3) scan, at which meet(a, join(b, c)) differs from
    join(meet(a, b), meet(a, c)); None if there is none."""
    n = len(names)
    for a in range(n):
        ma = meet_t[a]
        for b in range(n):
            jb, jab = join_t[b], join_t[ma[b]]
            for c in range(n):
                if ma[jb[c]] != jab[ma[c]]:
                    return names[a], names[b], names[c]
    return None


def build_finite_frame(names: list[str], leq_pairs: list[tuple[str, str]]) -> FiniteFrame:
    """Validate (names, leq_pairs) as a finite frame and derive all tables.

    leq_pairs may be any generating set; the reflexive-transitive closure
    is taken.  Raises NotAPoset, NoBounds, TooLarge, NotALattice or
    NotDistributive.
    """
    up = _order_rows(names, leq_pairs) if names else []
    return _frame_of_rows(names, up)[0]


def downset_frame(names: list[str], leq_pairs: list[tuple[str, str]]) -> FiniteFrame:
    """The frame of downsets of a finite poset, ordered by inclusion."""
    up = _order_rows(names, leq_pairs)
    n = len(names)
    if n > 16:
        raise TooLarge("downset enumeration limited to posets of 16 elements")
    downs = _downsets([d & ~(1 << x) for x, d in enumerate(_transpose(up, n))],
                      limit=DISTRIBUTIVITY_SCAN_LIMIT)
    _check_size(len(downs))
    return _frame_of_masks(_set_names(names, downs), downs)[0]


def _downsets(below: list[int], start: int = 0, limit: int | None = None) -> list[int]:
    """The downsets that contain the downset `start`, of the order in
    which below[i] is the bitmask of the elements strictly below i.  The
    downsets of a down-closed prefix of a linear extension are extended by
    the next element wherever everything strictly below it is in.  Once
    there are more than `limit` of them, the unfinished list is returned."""
    downs = [start]
    for i in sorted(range(len(below)), key=lambda i: below[i].bit_count()):
        if not start >> i & 1:
            downs += [d | 1 << i for d in downs if not below[i] & ~d]
            if limit is not None and len(downs) > limit:
                break
    return downs


def open_set_frame(points: list[str], opens: list[list[str]]) -> FiniteFrame:
    """The frame of open sets of a finite topology, ordered by inclusion."""
    dups = sorted({p for p in points if points.count(p) > 1})
    if dups:
        raise InvalidParameter("duplicate point ids: " + ", ".join(map(repr, dups)))
    idx = {p: i for i, p in enumerate(points)}
    masks = []
    for o in opens:
        m = 0
        for p in o:
            if p not in idx:
                raise NotATopology(o, "membership")
            m |= 1 << idx[p]
        masks.append(m)
    masks = sorted(set(masks))
    full = (1 << len(points)) - 1
    if 0 not in masks or full not in masks:
        raise NotATopology(("empty set", "whole space"), "bounds")
    mask_set = set(masks)
    for a, b in combinations(masks, 2):
        if a | b not in mask_set:
            raise NotATopology((a, b), "union")
        if a & b not in mask_set:
            raise NotATopology((a, b), "intersection")
    return _frame_of_masks(_set_names(points, masks), masks)[0]


def _set_names(points: list[str], masks: list[int]) -> list[str]:
    """Each bitset over points named by its members, as {p,q}."""
    return ["{" + ",".join(sorted(points[i] for i in _bits(m))) + "}" for m in masks]


def _frame_of_masks(names, masks: list[int]) -> tuple[FiniteFrame, tuple[int, ...]]:
    """The frame of a family of distinct bitsets ordered by inclusion,
    names[i] naming masks[i].  Returns the frame and the masks in its
    canonical order."""
    _check_size(len(masks))
    up = [sum(1 << j for j, b in enumerate(masks) if a & b == a) for a in masks]
    frame, pos = _frame_of_rows(names, up)
    order = [0] * len(masks)
    for m, p in zip(masks, pos):
        order[p] = m
    return frame, tuple(order)


def _renamed(frame: FiniteFrame, names: tuple[str, ...]) -> FiniteFrame | None:
    """The frame with element i renamed names[i] and every table kept, if
    the new names keep the canonical order; else None.  Elements are in
    order of the size of their downset, ties by name, and a renaming can
    flip a tie: "a" sorts before "a!", but "dn(a!)" before "dn(a)"."""
    sizes = [d.bit_count() for d in frame.down]
    for i in range(1, frame.n):
        if sizes[i - 1] == sizes[i] and names[i - 1] > names[i]:
            return None
    return replace(frame, names=names)


def _product(f: FiniteFrame, g: FiniteFrame) -> tuple[FiniteFrame, list[int]]:
    """The product frame and pos, where pos[a * g.n + b] is the index of
    the pair (a, b)."""
    names = [f"({x},{y})" for x in f.names for y in g.names]
    uf, ug, m = f.up, g.up, g.n
    up = [sum(ug[b] << a2 * m for a2 in _bits(uf[a]))
          for a in f.elements() for b in g.elements()]
    return _frame_of_rows(names, up)


def product(f: FiniteFrame, g: FiniteFrame) -> FiniteFrame:
    """Componentwise-ordered product of two finite frames."""
    return _product(f, g)[0]


def hasse_dot(frame: FiniteFrame, title: str = "frame") -> str:
    """DOT rendering of the Hasse diagram: covering edges only,
    deterministic node and edge order."""
    lines = [f'digraph "{title}" {{', "  rankdir=BT;"]
    for i, name in enumerate(frame.names):
        lines.append(f'  n{i} [label="{name}"];')
    for a, b in sorted(frame.covers()):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
