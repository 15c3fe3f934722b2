"""Represented morphisms between proximity frames.

Finite-source maps are full tables.  Chain-source maps carry one
:class:`~proxkit.chain.Seq` per segment: finitely many exceptions plus an
eventually-affine tail (or a constant).  A Seq is normalized on
construction, so map equality is a normal-form comparison and the
identities checked by the law harness are exact, not sampled.

The public constructors `FiniteMap(...)` and `ChainMap(...)` check their
input: one value or rule per source element or segment, every value in
the target frame, constants on point segments, and affine tails landing
in an omega block.  The internal builders (`compose`, `star_compose`,
`enumerate_proxhoms`, `_block_map`, `_image_map` and the re-tagging in
`comonads`) take their values from maps or ideal frames that already lie
in the target, and build through the private `_unchecked` constructors,
which skip those checks.

`_block_map` builds the identity, sigma, kappa and alpha from their
values at a frame's `starts`: the starts themselves, and the `joins`
and kappa and alpha code tables kept on the ideal frame.  theta and R(f)
are one pass of `_image_map` over f's table or rules.  `compose` indexes
g's table, or reads g's rules at f's values without re-checking them,
and a chain rule n -> (s, n) of f takes g's rule for block s as it
stands.  Finite maps are validated by table lookup.  `_star_table`
joins a composite table over the index tuples of the source relation's
columns, kept as `FiniteProximity.col_bits`, through the join table of
a finite target: `star_compose` and the star-vs-compose search read it
off the plain composite table, and build no plain composite map.
The meet and join checks of the validators scan the source frame's kept
`FiniteFrame.triangle` and ask the target frame's `meet` and `join`.
`enumerate_proxhoms` takes two orders (`FiniteProximity.is_order`)
only, tests a free value against a row of the target's meet table,
forces the value of every join-reducible element and judges no
complete table.  These tables are cached on the frame or proximity they
describe, so they last as long as it does.

theta(f) sends the ideal I_e of a finite source to f(joins[e]), the join
of kappa(f(join of I_e)): the target is the order, the one finite
proximity, whose approximants of v join to v.  `is_proper` is the
preserves-rel check run on the way-below proximities of both frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import OMEGA, El, Seq, _seq_problem
from .errors import MalformedMap, NotComposable, NotStablyCompact, UnsupportedRepresentation
from .proximity import ChainProximity, FiniteProximity, Proximity, way_below_proximity
from .reports import FAIL, PASS, SYMBOLIC, AxiomReport, Verdict
from .roundideal import BelowLim, RFrameData, is_stably_compact, kept_on_rframe


@dataclass(frozen=True)
class FiniteMap:
    src: Proximity
    dst: Proximity
    table: tuple

    def __post_init__(self):
        if len(self.table) != self.src.frame.n:
            raise MalformedMap("table length does not match the source frame")
        contains = self.dst.frame.contains
        for v in self.table:
            if not contains(v):
                raise MalformedMap(f"value {v!r} is not in the target frame")

    @classmethod
    def _unchecked(cls, src: Proximity, dst: Proximity, table: tuple) -> "FiniteMap":
        """A map whose table the caller built, one value per source
        element, from values already in the target frame; the checks of
        the public constructor, kept for parsed input, are skipped."""
        f = object.__new__(cls)
        f.__dict__.update(src=src, dst=dst, table=table)
        return f

    def apply(self, x):
        return self.table[x]

    def horizon(self) -> int:
        """0: a table has no tail to reach."""
        return 0

    def __repr__(self):
        names = self.src.frame.names
        return "FiniteMap{" + ", ".join(
            f"{names[i]}->{self._lab(v)}" for i, v in enumerate(self.table)
        ) + "}"

    def _lab(self, v):
        return self.dst.label(v)


@dataclass(frozen=True)
class ChainMap:
    src: ChainProximity
    dst: Proximity
    rules: tuple[Seq, ...]  # one per source segment

    def __post_init__(self):
        segs = self.src.frame.segments
        if len(self.rules) != len(segs):
            raise MalformedMap("one rule per source segment required")
        for s, rule in zip(segs, self.rules):
            if s.kind != OMEGA and (rule.exceptions or rule.is_affine):
                raise MalformedMap("point segments take a single constant value")
            problem = _seq_problem(rule, self.dst.frame)
            if problem is not None:
                raise MalformedMap(problem)

    @classmethod
    def _unchecked(cls, src: ChainProximity, dst: Proximity,
                   rules: tuple) -> "ChainMap":
        """A map whose rules the caller built, one per source segment and
        a constant on each point segment, from values already in the
        target frame; the checks of the public constructor, kept for
        parsed input, are skipped."""
        f = object.__new__(cls)
        f.__dict__.update(src=src, dst=dst, rules=rules)
        return f

    def apply(self, x: El):
        self.src.frame.check(x)
        return self.rules[x.seg].value(x.n)

    def horizon(self) -> int:
        """The largest horizon of the rules: past it every rule is its tail."""
        return max(rule.horizon() for rule in self.rules)

    def block_sup(self, seg: int):
        """(supremum of the map over an omega segment, attained?)."""
        return self.rules[seg].sup(self.dst.frame.join)

    def __repr__(self):
        parts = []
        for i, r in enumerate(self.rules):
            lab = self.src.frame.segments[i].label
            if not (r.is_affine or r.exceptions):
                parts.append(f"{lab}->{self._lab(r.const)}")
            else:
                t = (
                    f"affine({r.seg},{r.a},{r.b})"
                    if r.is_affine
                    else self._lab(r.const)
                )
                exc = {m: self._lab(v) for m, v in r.exceptions}
                parts.append(f"{lab}:{exc if exc else ''}{t}")
        return "ChainMap{" + ", ".join(parts) + "}"

    def _lab(self, v):
        return self.dst.label(v)


Morphism = FiniteMap | ChainMap


def _block_map(src: Proximity, dst: Proximity, values) -> Morphism:
    """The map with the given values at the `starts` of src's frame: its
    table on a finite source; on a chain an omega block goes onto the
    omega block holding its value, n -> n, and a point to its value."""
    if isinstance(src, FiniteProximity):
        return FiniteMap._unchecked(src, dst, tuple(values))
    return ChainMap._unchecked(src, dst, tuple(
        Seq.affine(v.seg, 1, 0) if s.kind == OMEGA else Seq.constant(v)
        for s, v in zip(src.frame.segments, values)))


def block_map(src: Proximity, dst: Proximity, at) -> Morphism:
    """The map a -> at(a), with at asked only at the `starts` of src's
    frame: on a chain each segment's El(i, 0), its omega blocks n -> n."""
    return _block_map(src, dst, map(at, src.frame.starts))


def identity_map(prox: Proximity) -> Morphism:
    return _block_map(prox, prox, prox.frame.starts)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Plain pointwise composition, exact on representations."""
    if f.dst is not g.src and f.dst != g.src:
        raise NotComposable("codomain of f must be the domain of g")
    if isinstance(f, FiniteMap):
        return FiniteMap._unchecked(f.src, g.dst, _composite(g, f))
    at = _reader(g)
    rules = []
    for rule in f.rules:
        exc = [(m, at(v)) for m, v in rule.exceptions]
        if not rule.is_affine:
            rules.append(Seq.constant(at(rule.const), exc))
            continue
        a, b = rule.a, rule.b
        grule = g.rules[rule.seg]
        if a == 1 and not b and not exc:
            # n -> (seg, n) takes g's own rule, already in normal form
            rules.append(grule)
            continue
        taken = {m for m, _ in exc}
        for m, w in grule.exceptions:
            if m >= b and (m - b) % a == 0:
                n = (m - b) // a
                if n not in taken:
                    exc.append((n, w))
        if grule.is_affine:
            rules.append(Seq.affine(grule.seg, grule.a * a, grule.a * b + grule.b, exc))
        else:
            rules.append(Seq.constant(grule.const, exc))
    return ChainMap._unchecked(f.src, g.dst, tuple(rules))


def _composite(g: Morphism, f: FiniteMap) -> tuple:
    """The table a -> g(f(a)) of a composable pair with a finite source."""
    return tuple(map(_reader(g), f.table))


def _reader(g: Morphism):
    """v -> g(v) for values in g's source: g's table indexed, or the rule
    of v's segment read without the element check of `ChainMap.apply`."""
    if isinstance(g, FiniteMap):
        return g.table.__getitem__
    rules = g.rules
    return lambda v: rules[v.seg].value(v.n)


def star_compose(g: Morphism, f: Morphism) -> Morphism:
    """Composition in the proximity-homomorphism category: the value at a
    is the join of g(f(b)) over the approximants b of a.

    Coincides with plain composition everywhere except at source elements
    that do not approximate themselves.  On a finite source the join runs
    over the composite table itself, so no plain composite map is built;
    on a chain the plain composite's rules are patched at the
    non-reflexive limits."""
    if f.dst != g.src:
        raise NotComposable("codomain of f must be the domain of g")
    if isinstance(f, FiniteMap):
        return FiniteMap._unchecked(f.src, g.dst, _star_table(g, f, _composite(g, f)))
    comp = compose(g, f)
    rules = list(comp.rules)
    for i, s in enumerate(f.src.frame.segments):
        e = El(i, 0)
        if s.kind == OMEGA or f.src.reflexive(e):
            continue
        # non-reflexive limit: the approximants are the block below it
        sup, _ = comp.block_sup(i - 1)
        rules[i] = Seq.constant(sup)
    return ChainMap._unchecked(f.src, g.dst, tuple(rules))


def _star_table(g: Morphism, f: FiniteMap, composite: tuple) -> tuple:
    """g * f's table: at a, the join of the composite table over a's approximants."""
    join_over = g.dst.frame.join_over
    return tuple(join_over(col, composite) for col in f.src.col_bits)


# -- validators -------------------------------------------------------------


def validate_proxhom(f: Morphism) -> AxiomReport:
    """Meet-semilattice map with f(0)=0, f(1)=1, joint subadditivity on
    related pairs, and exact approximation of every value."""
    return _validate_hom(f, frame_map=False)


def validate_pframemap(f: Morphism) -> AxiomReport:
    """Frame homomorphism (finite and described directed joins) that
    preserves the proximities; use is_proper for the way-below flag."""
    return _validate_hom(f, frame_map=True)


def _validate_hom(f: Morphism, frame_map: bool) -> AxiomReport:
    if isinstance(f, FiniteMap):
        return _validate_finite_hom(f, frame_map)
    return _validate_chain_hom(f, frame_map)


def is_proper(f: Morphism) -> bool:
    """Whether the map, assumed monotone, preserves the way-below relation."""
    src, dst = way_below_proximity(f.src.frame), way_below_proximity(f.dst.frame)
    if isinstance(f, FiniteMap):
        return _finite_preserves(f, src, dst) is None
    return _chain_preserves(f, src, dst) is None


def _finite_preserves(f: FiniteMap, src: FiniteProximity, dst: Proximity):
    """The last pair of src, row-major, whose images dst does not relate,
    or None."""
    table, drel = f.table, dst.rel
    for a, b in reversed(src.pairs()):
        if not drel(table[a], table[b]):
            return a, b
    return None


# one shared passing verdict: the validators below return many reports
_PASSED = Verdict(PASS)


def _validate_finite_hom(f: FiniteMap, frame_map: bool) -> AxiomReport:
    """Each failing axiom reports its last witness in row-major order, of
    element pairs (a, b) or of pairs of related pairs.  The scans run
    backwards and stop at the first failure.  The meet, join and joint
    subadditivity conditions are symmetric in their two arguments, so the
    last failing pair has its second index at most its first, and only
    those are scanned: meets and joins along the source's `triangle`.

    Between two order proximities (on a finite frame, by the collapse
    theorem, the only valid ones), a meet-preserving map that also preserves
    joins passes joint subadditivity, f(a1 v a2) <= f(b1 v b2) =
    f(b1) v f(b2), and value approximation, the join of f over the
    elements below a being f(a).  That is decided in O(n^2) table
    lookups; only when it fails do the two scans below run."""
    sf, df = f.src.frame, f.dst.frame
    names = sf.names
    dl = f.dst.label
    table, join_t = f.table, sf.join_t
    djoin, drel = df.join, f.dst.rel
    axioms = []

    w = _last_unkept(f, 2)
    meets_kept = w is None
    v = _PASSED if meets_kept else Verdict(
        FAIL, (names[w[0]], names[w[1]]), "meets not preserved")
    axioms.append(("meet-hom", v))

    v = _PASSED if table[sf.bot] == df.bot else Verdict(
        FAIL, (names[sf.bot], dl(table[sf.bot])), "bottom not preserved"
    )
    axioms.append(("zero", v))
    v = _PASSED if table[sf.top] == df.top else Verdict(
        FAIL, (names[sf.top], dl(table[sf.top])), "top not preserved"
    )
    axioms.append(("top", v))

    if frame_map:
        w = _last_unkept(f, 3)
        v = _PASSED if w is None else Verdict(
            FAIL, (names[w[0]], names[w[1]]), "joins not preserved")
        axioms.append(("join-hom", v))
        w = _finite_preserves(f, f.src, f.dst)
        v = _PASSED if w is None else Verdict(
            FAIL, (names[w[0]], names[w[1]]), "relation not preserved")
        axioms.append(("preserves-rel", v))
    elif meets_kept and f.src.is_order and f.dst.is_order and _last_unkept(f, 3) is None:
        axioms += [("join-subadditive", _PASSED),
                   ("value-approximation", _PASSED)]
    else:
        v = _PASSED
        pairs = f.src.pairs()
        images = [table[b] for _, b in pairs]
        for i in range(len(pairs) - 1, -1, -1):
            a1, b1 = pairs[i]
            ja, fb1 = join_t[a1], images[i]
            for j in range(i, -1, -1):
                a2, b2 = pairs[j]
                if not drel(table[ja[a2]], djoin(fb1, images[j])):
                    v = Verdict(
                        FAIL, (names[a1], names[b1], names[a2], names[b2]),
                        "joint subadditivity fails",
                    )
                    break
            if not v.ok:
                break
        axioms.append(("join-subadditive", v))

        v = _PASSED
        cols = f.src.col_bits
        for a in range(sf.n - 1, -1, -1):
            j = df.join_over(cols[a], table)
            if j != table[a]:
                v = Verdict(FAIL, (names[a], dl(j)), "approximation of values fails")
                break
        axioms.append(("value-approximation", v))
    return AxiomReport(tuple(axioms))


def _last_unkept(f: FiniteMap, k: int):
    """The first pair (a, b) of the source's `triangle`, so the last in
    row-major order with b <= a, at which f(op(a, b)) differs from
    op(f(a), f(b)), or None; op is the target's meet for k = 2 and its
    join for k = 3, the columns of the triangle that hold them."""
    table, df = f.table, f.dst.frame
    op = df.meet if k == 2 else df.join
    for t in f.src.frame.triangle:
        if table[t[k]] != op(table[t[0]], table[t[1]]):
            return t[:2]
    return None


def _chain_monotone(f: ChainMap):
    """Witness pair if f is not monotone, else None."""
    frame = f.src.frame
    leq = f.dst.frame.leq
    for i, s in enumerate(frame.segments):
        rule = f.rules[i]
        n = rule.descent(leq)
        if n is not None:
            return El(i, n), El(i, n + 1)
        if i + 1 < len(frame.segments):
            nxt = f.rules[i + 1].value(0)
            if s.kind == OMEGA:
                # the next value must dominate the whole block: exactly
                # sup <= next, whether or not the sup is attained
                sup, _ = f.block_sup(i)
                if not leq(sup, nxt):
                    return El(i, rule.horizon() + 1), El(i + 1, 0)
            else:
                if not leq(rule.value(0), nxt):
                    return El(i, 0), El(i + 1, 0)
    return None


def _chain_preserves(f: ChainMap, src: ChainProximity, dst: Proximity):
    """Witness element if f fails to map the relation src on its frame
    into the relation dst on its target's; assumes f monotone."""
    frame, src_refl, dst_refl = f.src.frame, src.reflexive, dst.reflexive
    for i, s in enumerate(frame.segments):
        rule = f.rules[i]
        e = El(i, 0)
        if s.kind == OMEGA:
            # every omega element is reflexive for any chain relation
            for m, v in rule.exceptions:
                if not dst_refl(v):
                    return El(i, m)
            if not rule.is_affine and not dst_refl(rule.const):
                return El(i, rule.horizon())
        elif src_refl(e):
            if not dst_refl(rule.value(0)):
                return e
        else:
            # strict pairs out of a non-reflexive point: a plateau right
            # above it must land on a reflexive value
            succ = frame.successor_of(e)
            if succ is not None and f.apply(e) == f.apply(succ):
                if not dst_refl(f.apply(e)):
                    return e
    return None


# the verdicts of the chain validator below that need no witness
_CHAIN_MONOTONE = Verdict(SYMBOLIC, note="monotone on a chain")
_CHAIN_PER_CLASS = Verdict(SYMBOLIC, note="relation mapped per class")
_CHAIN_DIRECTED = Verdict(SYMBOLIC, note="described directed joins preserved")
_CHAIN_APPROXIMATED = Verdict(SYMBOLIC, note="approximation checked per limit class")


def _validate_chain_hom(f: ChainMap, frame_map: bool) -> AxiomReport:
    frame = f.src.frame
    w = _chain_monotone(f)
    if w is not None:
        return AxiomReport((
            ("meet-hom", Verdict(FAIL, tuple(frame.label(x) for x in w), "not monotone")),
        ))
    axioms = [("meet-hom", _CHAIN_MONOTONE)]

    v = _PASSED if f.apply(frame.bot) == f.dst.frame.bot else Verdict(
        FAIL, (frame.label(frame.bot),), "bottom not preserved"
    )
    axioms.append(("zero", v))
    v = _PASSED if f.apply(frame.top) == f.dst.frame.top else Verdict(
        FAIL, (frame.label(frame.top),), "top not preserved"
    )
    axioms.append(("top", v))

    w = _chain_preserves(f, f.src, f.dst)
    name = "preserves-rel" if frame_map else "join-subadditive"
    axioms.append((name, _CHAIN_PER_CLASS if w is None else Verdict(FAIL, (frame.label(w),))))

    # value behaviour at limit points; a reflexive one approximates itself
    if frame_map:
        name, v, fails = "directed-joins", _CHAIN_DIRECTED, "directed join not preserved"
    else:
        name, v, fails = "value-approximation", _CHAIN_APPROXIMATED, "value not approximated"
    for ell in frame.limits():
        if frame_map or not f.src.reflexive(ell):
            sup, _ = f.block_sup(ell.seg - 1)
            if f.apply(ell) != sup:
                v = Verdict(FAIL, (frame.label(ell),), fails)
    axioms.append((name, v))
    return AxiomReport(tuple(axioms))


# -- theta / rho ------------------------------------------------------------


@kept_on_rframe
def sigma_map(rfd: RFrameData) -> Morphism:
    """The join map from the ideal frame back to the base, as a morphism."""
    return _block_map(rfd.wb, rfd.base, rfd.joins)


@kept_on_rframe
def kappa_map(rfd: RFrameData) -> Morphism:
    """a -> its ideal of approximants, as a morphism into the ideal frame."""
    return _block_map(rfd.base, rfd.wb, rfd.kappa_codes)


@kept_on_rframe
def alpha_map(rfd: RFrameData) -> Morphism:
    """a -> its way-below ideal; only on stably compact instances."""
    if not is_stably_compact(rfd.base):
        raise NotStablyCompact("left adjoint needs a stably compact base")
    return _block_map(rfd.base, rfd.wb, rfd.alpha_codes)


def theta(f: Morphism, rfd: RFrameData) -> Morphism:
    """Turn a proximity homomorphism into the frame map on round ideals
    that joins the pushed ideal.  rfd is the ideal frame of f's source;
    the ideal frame of another proximity is refused.  The ideal I goes to
    the join of the approximants of f(join of I), which is that value
    itself: kappa(v) has join v, on a finite target the order, as the
    ideal under a limit v has.  A finite target relation other than the
    order is refused, as rframe refuses it."""
    if rfd.base is not f.src and rfd.base != f.src:
        raise NotComposable("f is not defined on the base of the given ideal frame")
    return _image_map(f, rfd, f.dst, _same, _same)


def _same(v):
    return v


def rho(psi: Morphism, rfd: RFrameData) -> Morphism:
    """Restrict a frame map on round ideals back to the base along the
    approximant-ideal map.  rfd is the ideal-frame data for the domain."""
    if psi.src != rfd.wb:
        raise NotComposable("psi is not defined on the given ideal frame")
    return compose(psi, kappa_map(rfd))


def rmap_map(f: Morphism, src_rfd: RFrameData, dst_rfd: RFrameData) -> Morphism:
    """The ideal-frame functor action on a represented morphism; src_rfd
    and dst_rfd are the ideal frames of f's source and target, and those
    of other proximities are refused.  I goes to kappa(f(join of I))."""
    if src_rfd.base is not f.src and src_rfd.base != f.src:
        raise NotComposable("f is not defined on the base of the given ideal frame")
    if dst_rfd.base is not f.dst and dst_rfd.base != f.dst:
        raise UnsupportedRepresentation(
            "the ideals of f's values are not in the classification: "
            "each is a round ideal of another proximity")
    return _image_map(f, src_rfd, dst_rfd.wb, dst_rfd.kappa_of,
                      lambda v: dst_rfd.el_of(BelowLim(f.dst, v)))


def _image_map(f: Morphism, rfd: RFrameData, dst: Proximity, code, below) -> Morphism:
    """The map on rfd.wb, the ideal frame of f's source, that sends the
    ideal I to code(f(join of I)), or to below(l) where f sends the block
    under I's limit onto a block under the limit l; code must send each
    omega block n -> n onto one.  On a chain Prin(El(j, 0))'s segment
    reads f's rule for segment j through code."""
    if isinstance(f, FiniteMap):
        dst.require_order()
        table = f.table
        return FiniteMap._unchecked(rfd.wb, dst, tuple(code(table[j]) for j in rfd.joins))
    rules = []
    for ideal in rfd.ideals:
        if type(ideal) is BelowLim:
            sup, attained = f.block_sup(ideal.lim.seg - 1)
            rules.append(Seq.constant(code(sup) if attained else below(sup)))
            continue
        rule = f.rules[ideal.a.seg]
        exc = [(m, code(v)) for m, v in rule.exceptions]
        if rule.is_affine:
            rules.append(Seq.affine(code(El(rule.seg, 0)).seg, rule.a, rule.b, exc))
        else:
            rules.append(Seq.constant(code(rule.const), exc))
    return ChainMap._unchecked(rfd.wb, dst, tuple(rules))


# -- exhaustive enumeration (finite frames) ---------------------------------


def enumerate_proxhoms(src: FiniteProximity, dst: FiniteProximity) -> list[FiniteMap]:
    """All valid proximity homomorphisms between two small finite frames,
    in the order of their codes sum(table[i] * m**i).

    Tables are filled depth-first in canonical index order, a linear
    extension of the source, so meet(a, b) is assigned for every b < a.
    A branch is cut as soon as f(bot) != bot, f(top) != top or
    f(meet(a, b)) != meet(f(a), f(b)): every completion would fail the
    zero, top or meet-hom axiom.

    By the finite collapse theorem the order is the only finite
    proximity, so any other relation is refused before the search.
    Between two orders the homomorphisms are the bounded lattice
    homomorphisms: subadditivity on (x, x), (y, y) gives
    f(x v y) <= f(x) v f(y).  So a join-reducible c takes the forced
    value f(x) v f(y) for one pair x, y < c with join c, and every
    complete table is accepted.  One pair is enough on a distributive
    lattice: if f keeps meets and the joins below c, and c = u v v too,
    then f(x) = f((x ^ u) v (x ^ v)) <= f(u) v f(v), and so is f(y).
    A forced value needs no meet test either: for b before c, c ^ b =
    (x ^ b) v (y ^ b) is a join below c, so f(c ^ b) = (f(x) ^ f(b)) v
    (f(y) ^ f(b)), which is f(c) ^ f(b) as the target is distributive.
    """
    src.require_order()
    dst.require_order()
    sf, df = src.frame, dst.frame
    n, m = sf.n, df.n
    meet_t, dmeet_t, djoin_t = sf.meet_t, df.meet_t, df.join_t
    # per join-reducible c: a pair below c with join c
    parts = {c: (x, y) for x, y, _, c in sf.triangle if c not in (x, y)}
    # per element a: the pairs (meet(a, b), b) for b < a, none where a is
    # forced, and the values the bounds leave it
    meets = [() if a in parts else tuple((meet_t[a][b], b) for b in range(a))
             for a in range(n)]
    allowed = [[v for v in range(m) if (a != sf.bot or v == df.bot)
                and (a != sf.top or v == df.top)] for a in range(n)]
    out = []
    table = [0] * n

    def extend(a: int):
        if a == n:
            out.append(FiniteMap._unchecked(src, dst, tuple(table)))
            return
        vals = allowed[a]
        if a in parts:
            x, y = parts[a]
            v = djoin_t[table[x]][table[y]]
            vals = (v,) if v in vals else ()
        for v in vals:
            row = dmeet_t[v]
            if all(table[c] == row[table[b]] for c, b in meets[a]):
                table[a] = v
                extend(a + 1)

    extend(0)
    out.sort(key=lambda f: f.table[::-1])
    return out
