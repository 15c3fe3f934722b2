"""Finite frames (= finite distributive lattices) from explicit data.

Frames store their order only as int bitmask rows: up[a] is the bitmask
of the elements above a, and down[b] that of the elements below b.
Elements are the canonical indices 0..n-1, ordered by downset size (a
linear extension of leq), ties broken by name.

By Birkhoff's theorem a finite distributive lattice is the ring of
downsets of its poset J of join-irreducibles.  A ring of sets (downsets,
open sets) is built from its point columns with no lattice check.  An
explicit poset passes one test: x |-> the elements of J below x is an
order isomorphism onto the downsets of J.  Only a poset that fails it
is scanned, for the first pair with no join (`NotALattice`) and then the
first non-distributive triple (`NotDistributive`).  FINITE_FRAME_LIMIT
is the one size limit: each builder checks it before any per-pair work,
with the size it knows (elements, distinct opens, pairs of a product,
and for downsets n + 1 and then their count).

A finite frame has the carrier methods of a chain frame (`check`,
`read`, `join_over`, `is_limit`, `limits`, `class_representatives`):
every element is a start and its own class, and none is a limit.  Its
tables are built on first use and cached on the frame: meet and join
(the highest common lower and lowest common upper bound), which
`join_over` folds, the `triangle` (a, b, meet, join) for every b <= a
that the homomorphism validators of `morphisms` scan, and the `hom_plan`
by which `enumerate_proxhoms` fills the maps out of the frame.
`search_frames` gives the frames the exhaustive searches run over.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, cached_property
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

FINITE_FRAME_LIMIT = 64


@dataclass(frozen=True)
class FiniteFrame:
    names: tuple[str, ...]
    up: tuple[int, ...]  # up[a]: bitmask of the elements above a
    down: tuple[int, ...]  # down[b]: bitmask of the elements below b
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
    def meet_t(self) -> tuple[tuple[int, ...], ...]:
        """meet_t[a][b]: the highest common lower bound of a and b."""
        down = self.down
        return tuple(tuple((da & db).bit_length() - 1 for db in down) for da in down)

    @cached_property
    def join_t(self) -> tuple[tuple[int, ...], ...]:
        """join_t[a][b]: the lowest common upper bound of a and b."""
        up = self.up
        return tuple(tuple((ua & ub & -(ua & ub)).bit_length() - 1 for ub in up)
                     for ua in up)

    @cached_property
    def triangle(self) -> tuple[tuple[int, int, int, int], ...]:
        """(a, b, meet(a, b), join(a, b)) for every b <= a, a from the top
        index down and b from a down: a backward row-major scan of a
        symmetric condition meets its last failing pair first."""
        meet_t, join_t = self.meet_t, self.join_t
        return tuple((a, b, meet_t[a][b], join_t[a][b])
                     for a in range(self.n - 1, -1, -1) for b in range(a, -1, -1))

    @cached_property
    def hom_plan(self) -> tuple[tuple[tuple[int, int] | None, tuple], ...]:
        """Per element c, (split, meets) for `enumerate_proxhoms`: a
        join-reducible c has a split, a pair x, y < c with join c, and no
        meets; any other c the pairs (meet(c, b), b) for b < c."""
        meet_t = self.meet_t
        splits = {c: (x, y) for x, y, _, c in self.triangle if c not in (x, y)}
        return tuple((splits[c], ()) if c in splits
                     else (None, tuple((meet_t[c][b], b) for b in range(c)))
                     for c in self.elements())

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
        bit = 1 << a
        while row:  # the loop of _bits, inline in the hot helpers
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
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
    while sel:
        low = sel & -sel
        out |= rows[low.bit_length() - 1]
        sel ^= low
    return out


def _intersection(rows, sel: int, full: int) -> int:
    """The intersection of rows[k] over the set bits k of sel, inside full."""
    while sel:
        low = sel & -sel
        full &= rows[low.bit_length() - 1]
        sel ^= low
    return full


def _order_rows(names: list[str], leq_pairs) -> tuple[int, ...]:
    """Closed down-rows of the order generated by leq_pairs: bit a of
    down[b] is set iff names[a] <= names[b].  Raises NotAPoset on
    duplicate ids, unlisted ids and cycles."""
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
    # a is on a cycle iff something else is both above and below it.  The
    # first such a has all its cycle partners above it, so the lowest of
    # them makes the pair a row-major scan of a < b meets first
    down = _transpose(up, n)
    for a in range(n):
        cycle = up[a] & down[a] & ~(1 << a)
        if cycle:
            raise NotAPoset(f"cycle through {names[a]} and {names[next(_bits(cycle))]}")
    return down


def _frame_of_rows(names, down) -> tuple[FiniteFrame, list[int]]:
    """The finite frame of the poset with closed down-rows `down`, and pos,
    where pos[i] is the canonical index of input element i.  The caller
    has checked the size.  Raises NotAPoset, NoBounds, NotALattice or
    NotDistributive."""
    if len(set(names)) != len(names):
        raise NotAPoset("duplicate element ids")
    n = len(names)
    if n == 0:
        raise NoBounds("empty element list")
    # canonical order: topological by leq, ties by id; the columns of the
    # permuted down-rows, taken in the new order, are the new up-rows
    order = sorted(range(n), key=lambda i: (down[i].bit_count(), names[i]))
    cols = _transpose([down[a] for a in order], n)
    up = tuple(cols[a] for a in order)
    down = _transpose(up, n)
    names = tuple(names[i] for i in order)
    full = (1 << n) - 1  # a bottom comes first and a top last, if any
    if up[0] != full or down[-1] != full:
        raise NoBounds("frame needs a global bottom and top")
    frame = FiniteFrame(names=names, up=up, down=down, bot=0, top=n - 1)
    if not _birkhoff(up, down):
        _join_scan(names, up)
        raise NotDistributive(_distributivity_witness(names, frame.meet_t, frame.join_t))
    return frame, sorted(range(n), key=order.__getitem__)  # order's inverse


def _check_size(n: int) -> None:
    if n > FINITE_FRAME_LIMIT:
        raise TooLarge(f"finite frames are limited to {FINITE_FRAME_LIMIT} elements")


def _irreducibles(down) -> int:
    """The bitmask of the join-irreducibles of a poset with canonical
    down-rows and bottom 0: the x != 0 whose strict downset is principal,
    generated by its highest element."""
    below = [d & ~(1 << x) for x, d in enumerate(down)]
    return sum(1 << x for x in range(1, len(down))
               if below[x] == down[below[x].bit_length() - 1])


def _birkhoff(up, down) -> bool:
    """Whether the bounded poset with canonical rows is a distributive
    lattice, by Birkhoff: with J the join-irreducibles, J has n downsets
    (the count stops past n), and up[x] is the meet of up[j] over the j in
    x's mask down[x] & J.  Then x |-> its mask is one to one and reflects
    the order, so it is an order isomorphism onto the downsets of J; every
    distributive lattice passes."""
    n, irr = len(down), _irreducibles(down)
    full = (1 << n) - 1
    below = [d & ~(1 << x) for x, d in enumerate(down)]
    # the elements outside J start out in every downset, so only J's count
    return (len(_downsets(below, full & ~irr, limit=n)) == n
            and all(_intersection(up, d & irr, full) == up[x] for x, d in enumerate(down)))


def _join_scan(names, up) -> None:
    """Raise NotALattice at the first pair a <= b in row-major order whose
    lowest common upper bound is not below all the others.  Where a meet
    is missing, an earlier pair has no join."""
    for a in range(len(up)):
        for b in range(a, len(up)):
            upper = up[a] & up[b]
            if upper & ~up[(upper & -upper).bit_length() - 1]:
                raise NotALattice(f"no join for ({names[a]},{names[b]})")


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
    """Validate (names, leq_pairs) as a finite frame.

    leq_pairs may be any generating set; the reflexive-transitive closure
    is taken.  Raises TooLarge, NotAPoset, NoBounds, NotALattice or
    NotDistributive.
    """
    _check_size(len(names))
    down = _order_rows(names, leq_pairs) if names else ()
    return _frame_of_rows(names, down)[0]


def downset_frame(names: list[str], leq_pairs: list[tuple[str, str]]) -> FiniteFrame:
    """The frame of downsets of a finite poset, ordered by inclusion.  The
    n points have at least n + 1 downsets, the empty one and the n
    principal ones, so that bound is checked before the closure."""
    _check_size(len(names) + 1)
    downs = _downsets([d & ~(1 << x) for x, d in enumerate(_order_rows(names, leq_pairs))],
                      limit=FINITE_FRAME_LIMIT)
    _check_size(len(downs))
    return _ring_of_sets(_set_names(names, downs), downs)[0]


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
    """The frame of open sets of a finite topology, ordered by inclusion.

    The opens are read as bitsets over membership classes, the points that
    lie in exactly the same opens, numbered by their highest point: then
    the bitsets sort, join and meet as the sets of points do.  A topology
    has fewer classes than opens, as each class has its own least open.
    The points are handled as sets, never one at a time, and each open is
    named by its listed members."""
    idx = dict(zip(points, range(len(points))))
    if len(idx) < len(points):
        dups = sorted(p for p, count in Counter(points).items() if count > 1)
        raise InvalidParameter("duplicate point ids: " + ", ".join(map(repr, dups)))
    distinct: dict[frozenset, None] = {}
    for o in opens:
        members = frozenset(o)
        if not members <= idx.keys():
            raise NotATopology(next(p for p in o if p not in idx), "membership")
        distinct[members] = None
    _check_size(len(distinct))
    # the membership classes: the points split by each open in turn, a
    # class giving up only the part the open holds
    classes = [set(idx)] if idx else []
    for members in distinct:
        for c in classes[:]:
            inside = c & members
            if inside and len(inside) < len(c):
                c -= inside
                classes.append(inside)
    # class k by highest point is bit k: an open's binary digits run from
    # the class with the highest point down
    classes.sort(key=lambda c: max(map(idx.__getitem__, c)))
    reps = [next(iter(c)) for c in reversed(classes)]
    name_of = {int("0" + "".join(["1" if r in members else "0" for r in reps]), 2):
               "{" + ",".join(sorted(members)) + "}" for members in distinct}
    masks = sorted(name_of)
    full = (1 << len(classes)) - 1
    if 0 not in name_of or full not in name_of:
        raise NotATopology(("empty set", "whole space"), "bounds")
    for a, b in combinations(masks, 2):
        if a | b not in name_of:
            raise NotATopology((name_of[a], name_of[b]), "union")
        if a & b not in name_of:
            raise NotATopology((name_of[a], name_of[b]), "intersection")
    return _ring_of_sets([name_of[m] for m in masks], masks)[0]


def _set_names(points: list[str], masks: list[int]) -> list[str]:
    """Each bitset over points named by its members, as {p,q}."""
    return ["{" + ",".join(sorted(points[i] for i in _bits(m))) + "}" for m in masks]


def _ring_of_sets(names, masks: list[int]) -> tuple[FiniteFrame, list[int]]:
    """The frame of distinct bitsets `masks`, among them the empty set,
    closed under union and intersection and ordered by inclusion, names[i]
    naming masks[i]; and order[i], the input index of canonical element i.
    A ring of sets is a distributive lattice with meet and join its
    intersection and union: only the names are checked."""
    if len(set(names)) != len(names):
        raise NotAPoset("duplicate element ids")
    down = _inclusion_rows(masks)[1]
    order = sorted(range(len(masks)), key=lambda i: (down[i].bit_count(), names[i]))
    up, down = _inclusion_rows([masks[i] for i in order])
    return FiniteFrame(names=tuple(names[i] for i in order), up=up, down=down,
                       bot=0, top=len(masks) - 1), order


def _inclusion_rows(masks: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The inclusion rows of a ring of sets, read off its k point columns
    in O(n*k): the sets above a hold every point of a, and the sets below
    b no point of the largest set, top, outside b."""
    top, full = max(masks), (1 << len(masks)) - 1
    cols = _transpose(masks, top.bit_length())
    return (tuple(_intersection(cols, a, full) for a in masks),
            tuple(full & ~_union(cols, top & ~b) for b in masks))


def _renamed(frame: FiniteFrame, names: tuple[str, ...]) -> FiniteFrame | None:
    """The frame with element i renamed names[i] and the tables built so
    far kept, if the new names keep the canonical order (downset size, then
    name); else None.  A renaming can flip a tie: "a" sorts before "a!",
    but "dn(a!)" before "dn(a)"."""
    sizes = [d.bit_count() for d in frame.down]
    for i in range(1, frame.n):
        if sizes[i - 1] == sizes[i] and names[i - 1] > names[i]:
            return None
    renamed = replace(frame, names=names)  # the tables hold indices only
    vars(renamed).update((k, v) for k, v in vars(frame).items() if k not in vars(renamed))
    return renamed


def _product(f: FiniteFrame, g: FiniteFrame) -> tuple[FiniteFrame, list[int]]:
    """The product frame and pos, where pos[a * g.n + b] is the index of
    the pair (a, b)."""
    _check_size(f.n * g.n)
    names = [f"({x},{y})" for x in f.names for y in g.names]
    df, dg, m = f.down, g.down, g.n
    down = [sum(dg[b] << a2 * m for a2 in _bits(df[a]))
            for a in f.elements() for b in g.elements()]
    return _frame_of_rows(names, down)


def product(f: FiniteFrame, g: FiniteFrame) -> FiniteFrame:
    """Componentwise-ordered product of two finite frames."""
    return _product(f, g)[0]


def search_frames(max_size: int) -> list[tuple[str, FiniteFrame]]:
    """The searched frames of at most max_size elements, by name: total
    orders, Boolean cubes, and the downsets of two points under one.  Each
    is built once per process, as the tables it caches depend on it alone."""
    out = [(f"order{n}", _order_frame(n)) for n in range(2, max_size + 1)]
    # cube k has 2^k elements
    out += [(f"cube{k}", _cube_frame(k)) for k in range(1, max_size.bit_length())]
    if max_size >= 5:
        out.append(("vee", _vee_frame()))
    return out


@cache
def _order_frame(n: int) -> FiniteFrame:
    names = [f"c{i}" for i in range(n)]
    return build_finite_frame(names, list(zip(names, names[1:])))


@cache
def _cube_frame(k: int) -> FiniteFrame:
    return downset_frame([f"x{i}" for i in range(k)], [])


@cache
def _vee_frame() -> FiniteFrame:
    return downset_frame(["a", "b", "c"], [("a", "c"), ("b", "c")])


def dot_quoted(text: str) -> str:
    """text as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(frame: FiniteFrame, title: str = "frame") -> str:
    """DOT rendering of the Hasse diagram: covering edges only,
    deterministic node and edge order."""
    lines = [f"digraph {dot_quoted(title)} {{", "  rankdir=BT;"]
    for i, name in enumerate(frame.names):
        lines.append(f"  n{i} [label={dot_quoted(name)}];")
    for a, b in sorted(frame.covers()):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
