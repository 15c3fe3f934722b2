import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxkit
import reference as ref
from proxkit.catalog import catalog_instances, load_instance
from proxkit.errors import (
    NoBounds,
    NotALattice,
    NotAPoset,
    NotATopology,
    NotDistributive,
    ProxkitError,
    TooLarge,
)
from proxkit import finite
from proxkit.finite import (
    FINITE_FRAME_LIMIT,
    FiniteFrame,
    _distributivity_witness,
    build_finite_frame,
    downset_frame,
    hasse_dot,
    open_set_frame,
    product,
)
from proxkit.proximity import (
    FiniteProximity,
    order_proximity,
    product_proximity,
    validate_proximity,
)


def test_diamond_tables():
    f = ref.diamond()
    a, b = f.index("a"), f.index("b")
    assert f.meet(a, b) == f.bot
    assert f.join(a, b) == f.top
    assert f.leq(f.bot, a) and not f.leq(a, b)


def test_builder_primes_the_order_rows():
    # the builder stores the order only as its up- and down-rows; they
    # agree with leq and with the meet table, the order proximity's
    # columns are the down-rows, and the predicates return bools
    for f in (ref.diamond(), product(ref.diamond(), ref.diamond()),
              downset_frame(["x", "y", "z"], [("x", "y")])):
        assert {"up", "down"} <= vars(f).keys()
        n = f.n
        assert f.up == tuple(sum(1 << b for b in range(n) if f.leq(a, b))
                             for a in range(n))
        assert f.down == tuple(sum(1 << a for a in range(n) if f.leq(a, b))
                               for b in range(n))
        assert f.up == tuple(sum(1 << b for b in range(n) if f.meet(a, b) == a)
                             for a in range(n))
        assert f.contains(n - 1) and not f.contains(n) and not f.contains("0")
        p = order_proximity(f)
        assert p.cols == f.down
        for a in range(n):
            assert type(p.reflexive(a)) is bool
            for b in range(n):
                assert type(f.leq(a, b)) is bool and type(p.rel(a, b)) is bool


def test_canonical_element_order_is_stable():
    f1 = build_finite_frame(["1", "0"], [("0", "1")])
    f2 = build_finite_frame(["0", "1"], [("0", "1")])
    assert f1.names == f2.names == ("0", "1")


def test_transitive_closure_of_generating_pairs():
    f = build_finite_frame(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert f.leq(f.index("x"), f.index("z"))


def test_cycle_rejected():
    with pytest.raises(NotAPoset):
        build_finite_frame(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(NotAPoset):
        build_finite_frame(["x", "x"], [])


def test_missing_bounds_rejected():
    with pytest.raises(NoBounds):
        build_finite_frame(["x", "y"], [])


def test_non_lattice_rejected():
    # two incomparable elements with two minimal upper bounds
    with pytest.raises(NotALattice):
        build_finite_frame(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
             ("b", "d"), ("c", "1"), ("d", "1")],
        )


def test_n5_not_distributive():
    with pytest.raises(NotDistributive) as exc:
        build_finite_frame(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "c"), ("a", "b"), ("b", "1"), ("c", "1")],
        )
    assert len(exc.value.witness) == 3  # witness triple


def test_downset_frame_of_antichain_is_cube():
    f = downset_frame(["x", "y", "z"], [])
    assert f.n == 8
    assert f.names[0] == "{}"
    assert f.names[-1] == "{x,y,z}"


def test_open_set_frame_checks_closure():
    f = open_set_frame(["p", "q"], [[], ["p"], ["p", "q"]])
    assert f.n == 3
    with pytest.raises(NotATopology):
        open_set_frame(["p", "q"], [["p"], ["p", "q"]])  # missing empty set
    with pytest.raises(NotATopology):
        open_set_frame(["p", "q", "r"], [[], ["p"], ["q"], ["p", "q", "r"]])


def test_product_of_two_chains_is_grid():
    two = build_finite_frame(["0", "1"], [("0", "1")])
    g = product(two, two)
    assert g.n == 4
    assert sorted(g.names) == sorted(["(0,0)", "(0,1)", "(1,0)", "(1,1)"])
    x = g.index("(0,1)")
    y = g.index("(1,0)")
    assert g.join(x, y) == g.top and g.meet(x, y) == g.bot


def test_hasse_dot_deterministic_covers_only():
    f = ref.diamond()
    dot = hasse_dot(f, "diamond")
    assert dot == hasse_dot(f, "diamond")
    assert dot.count("->") == 4  # covering edges only, not 0 -> 1


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = [f"e{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            max_size=8,
        )
    )
    # orient pairs by index so the relation is acyclic
    pairs = [(a, b) for a, b in pairs if int(a[1:]) < int(b[1:])]
    return names, pairs


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_downset_frames_are_distributive_lattices(poset):
    names, pairs = poset
    f = downset_frame(names, pairs)
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                lhs = f.meet(a, f.join(b, c))
                rhs = f.join(f.meet(a, b), f.meet(a, c))
                assert lhs == rhs
    assert all(f.leq(f.bot, a) and f.leq(a, f.top) for a in f.elements())


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(proxkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c", "import proxkit, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )


# -- differential oracle -------------------------------------------------------
#
# The scan construction that the up-row builder replaced: a boolean matrix
# closure, least-upper-bound and greatest-lower-bound scans over all
# elements, a fold of joins for the pseudocomplement, and products built
# from name-string pair lists.  The row builder must give equal frames, or an exception of the same type with the same message.


def _oracle_closure(names, leq_pairs):
    if len(set(names)) != len(names):
        raise NotAPoset("duplicate element ids")
    n = len(names)
    idx = {name: i for i, name in enumerate(names)}
    rel = [[i == j for j in range(n)] for i in range(n)]
    for x, y in leq_pairs:
        if x not in idx or y not in idx:
            raise NotAPoset(f"pair ({x},{y}) references an unlisted id")
        rel[idx[x]][idx[y]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    for a in range(n):
        for b in range(a + 1, n):
            if rel[a][b] and rel[b][a]:
                raise NotAPoset(f"cycle through {names[a]} and {names[b]}")
    return rel


def _oracle_lub(leq, a, b):
    ubs = [c for c in range(len(leq)) if leq[a][c] and leq[b][c]]
    least = [c for c in ubs if all(leq[c][d] for d in ubs)]
    return least[0] if least else None


def _oracle_glb(leq, a, b):
    lbs = [c for c in range(len(leq)) if leq[c][a] and leq[c][b]]
    greatest = [c for c in lbs if all(leq[d][c] for d in lbs)]
    return greatest[0] if greatest else None


def _matrix_rows(mat):
    """The int bitmask rows of a boolean matrix: bit b of row a is mat[a][b]."""
    return tuple(sum(1 << b for b, x in enumerate(row) if x) for row in mat)


def oracle_frame(names, leq_pairs):
    if len(set(names)) != len(names):
        raise NotAPoset("duplicate element ids")
    n = len(names)
    if n == 0:
        raise NoBounds("empty element list")
    rel = _oracle_closure(names, leq_pairs)
    # the size cap is checked as soon as the poset is known
    if n > FINITE_FRAME_LIMIT:
        raise TooLarge(f"finite frames are limited to {FINITE_FRAME_LIMIT} elements")
    order = sorted(range(n), key=lambda i: (sum(rel[j][i] for j in range(n)), names[i]))
    names2 = tuple(names[i] for i in order)
    leq = [[rel[a][b] for b in order] for a in order]
    bots = [a for a in range(n) if all(leq[a][b] for b in range(n))]
    tops = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    if not bots or not tops:
        raise NoBounds("frame needs a global bottom and top")
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m, j = _oracle_glb(leq, a, b), _oracle_lub(leq, a, b)
            if m is None:
                raise NotALattice(f"no meet for ({names2[a]},{names2[b]})")
            if j is None:
                raise NotALattice(f"no join for ({names2[a]},{names2[b]})")
            meet_t[a][b], join_t[a][b] = m, j
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet_t[a][join_t[b][c]] != join_t[meet_t[a][b]][meet_t[a][c]]:
                    raise NotDistributive((names2[a], names2[b], names2[c]))
    frame = FiniteFrame(
        names=names2,
        up=_matrix_rows(leq),
        down=_matrix_rows(zip(*leq)),
        bot=bots[0],
        top=tops[0],
    )
    # the brute-force tables, kept where the frame keeps its own
    vars(frame).update(meet_t=tuple(map(tuple, meet_t)), join_t=tuple(map(tuple, join_t)))
    return frame


def _oracle_frame_of_masks(base_names, masks):
    def name(mask):
        members = [base_names[i] for i in range(len(base_names)) if (mask >> i) & 1]
        return "{" + ",".join(sorted(members)) + "}"

    pairs = [(name(a), name(b)) for a in masks for b in masks if a != b and a & b == a]
    return oracle_frame([name(m) for m in masks], pairs)


def oracle_downset_frame(names, leq_pairs):
    rel = _oracle_closure(names, leq_pairs)
    n = len(names)
    if n > 16:
        raise TooLarge("downset enumeration limited to posets of 16 elements")
    downs = [
        mask
        for mask in range(1 << n)
        if all(
            not (mask >> b) & 1 or (mask >> a) & 1
            for a in range(n)
            for b in range(n)
            if rel[a][b]
        )
    ]
    return _oracle_frame_of_masks(names, downs)


def oracle_open_set_frame(points, opens):
    # membership, bounds and closure checks are unchanged; only the frame
    # construction is under test
    masks = sorted({sum(1 << points.index(p) for p in o) for o in opens})
    return _oracle_frame_of_masks(points, masks)


def _pair(f, g, a, b):
    return f"({f.names[a]},{g.names[b]})"


def oracle_product(f, g):
    names = [_pair(f, g, a, b) for a in f.elements() for b in g.elements()]
    pairs = [
        (_pair(f, g, a1, b1), _pair(f, g, a2, b2))
        for a1 in f.elements()
        for b1 in g.elements()
        for a2 in f.elements()
        for b2 in g.elements()
        if f.leq(a1, a2) and g.leq(b1, b2)
    ]
    return oracle_frame(names, pairs)


def oracle_product_proximity(p, q):
    pf = oracle_product(p.frame, q.frame)
    pos = {name: i for i, name in enumerate(pf.names)}
    mat = [[False] * pf.n for _ in range(pf.n)]
    for a1, a2 in p.pairs():
        for b1, b2 in q.pairs():
            mat[pos[_pair(p.frame, q.frame, a1, b1)]][pos[_pair(p.frame, q.frame, a2, b2)]] = True
    return FiniteProximity(pf, _matrix_rows(mat))


def outcome(build, *args):
    try:
        return build(*args)
    except ProxkitError as exc:
        return type(exc).__name__, str(exc)


def assert_same(build, oracle, *args):
    """The same frame with the same tables, or the same exception; the
    oracle's tables are its brute-force ones."""
    got, expected = outcome(build, *args), outcome(oracle, *args)
    assert got == expected
    if isinstance(expected, FiniteFrame):
        assert got.meet_t == expected.meet_t and got.join_t == expected.join_t


def test_oracle_shuffled_chains():
    rng = random.Random(4)
    for n in range(1, 12):
        names = [f"e{i}" for i in range(n)]
        covers = list(zip(names, names[1:]))
        rng.shuffle(names)
        rng.shuffle(covers)
        assert_same(build_finite_frame, oracle_frame, names, covers)
        f = build_finite_frame(names, covers)
        assert f.names == tuple(sorted(names, key=lambda nm: int(nm[1:])))


def test_oracle_cubes():
    for k in range(7):
        names = [f"x{i}" for i in range(k)]
        assert downset_frame(names, []).n == 2 ** k
        assert_same(downset_frame, oracle_downset_frame, names, [])


def test_oracle_named_lattices():
    n5 = (["0", "a", "b", "c", "1"],
          [("0", "a"), ("0", "c"), ("a", "b"), ("b", "1"), ("c", "1")])
    m3 = (["0", "a", "b", "c", "1"],
          [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
    bowtie = (["0", "a", "b", "c", "d", "1"],
              [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
               ("b", "d"), ("c", "1"), ("d", "1")])
    # a and b have the minimal upper bounds c and d.  The join-irreducibles
    # a < e < f, e < c and b have 8 downsets, one for each element, and each
    # element has its own set of them below it, but d is not below c,
    # although the irreducibles below d, a and b, are below c
    uneven = (["0", "a", "b", "c", "d", "e", "f", "1"],
              [("0", "a"), ("0", "b"), ("a", "e"), ("e", "c"), ("e", "f"),
               ("b", "c"), ("a", "d"), ("b", "d"), ("c", "1"), ("d", "1"), ("f", "1")])
    for names, pairs in (n5, m3, bowtie, uneven):
        assert not isinstance(outcome(build_finite_frame, names, pairs), FiniteFrame)
        assert_same(build_finite_frame, oracle_frame, names, pairs)
        assert_same(build_finite_frame, oracle_frame, names[::-1], pairs[::-1])
    assert_same(build_finite_frame, oracle_frame, [], [])
    assert_same(build_finite_frame, oracle_frame, [], [("a", "b")])
    assert_same(downset_frame, oracle_downset_frame, [], [])
    # two downsets both named {a,b}
    assert_same(downset_frame, oracle_downset_frame, ["a", "b", "a,b"], [])
    # a downset frame over the size limit
    assert_same(downset_frame, oracle_downset_frame, list("abcdefg"), [])
    # a non-lattice over the limit: refused for its size before its joins
    # are looked at
    big = [f"e{i:02}" for i in range(63)]
    bowtie_over = (bowtie[0] + big, bowtie[1] + [("1", e) for e in big])
    assert outcome(build_finite_frame, *bowtie_over)[0] == "TooLarge"
    assert_same(build_finite_frame, oracle_frame, *bowtie_over)


def test_oracle_open_sets():
    for points, opens in (
        (["p", "q"], [[], ["p"], ["p", "q"]]),
        (["p", "q", "r"], [[], ["q"], ["p", "q"], ["q", "r"], ["p", "q", "r"]]),
        ([], [[]]),
    ):
        assert_same(open_set_frame, oracle_open_set_frame, points, opens)


def test_open_set_frame_matches_the_point_bitset_builder():
    # the builder over membership classes gives the frame, the names and
    # the first failing witness of the builder over point bitsets
    seen = set()
    for points, opens in ref.topologies(random.Random(8), 600):
        expected = outcome(ref.open_set_frame, points, opens)
        assert outcome(open_set_frame, points, opens) == expected
        seen.add(expected[0] if isinstance(expected, tuple) else "frame")
        if isinstance(expected, tuple) and expected[0] == "NotATopology":
            seen.add(str(expected[1]).split(":")[0])
    assert seen == {"frame", "InvalidParameter", "NotAPoset", "NotATopology", "TooLarge",
                    "not closed under membership", "not closed under bounds",
                    "not closed under union", "not closed under intersection"}, seen


SMALL_FRAMES = [f for _, f in ref.chains((1, 2, 3)) + ref.cubes((2,)) + [ref.vee()]]


def test_oracle_products():
    frames = SMALL_FRAMES
    for f in frames:
        for g in frames:
            assert_same(product, oracle_product, f, g)
    # names that collide in the product
    f = build_finite_frame(["a", "a,b"], [("a", "a,b")])
    g = build_finite_frame(["b,c", "c"], [("b,c", "c")])
    assert_same(product, oracle_product, f, g)


def test_oracle_product_proximity():
    finite = [p for p in catalog_instances().values() if isinstance(p, FiniteProximity)]
    proxes = [order_proximity(f) for f in SMALL_FRAMES[:3]] + finite[:3]
    for p in proxes:
        for q in proxes:
            assert product_proximity(p, q) == oracle_product_proximity(p, q)


@settings(max_examples=80, deadline=None)
@given(small_posets())
def test_oracle_posets(poset):
    names, pairs = poset
    assert_same(build_finite_frame, oracle_frame, names, pairs)
    assert_same(downset_frame, oracle_downset_frame, names, pairs)


@st.composite
def generating_relations(draw):
    names = draw(st.lists(st.sampled_from("abcdefg"), max_size=6))
    ids = sorted(set(names)) + ["z"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=10))
    return names, pairs


@settings(max_examples=150, deadline=None)
@given(generating_relations())
def test_oracle_generating_relations(rel):
    names, pairs = rel
    assert_same(build_finite_frame, oracle_frame, names, pairs)
    assert_same(downset_frame, oracle_downset_frame, names, pairs)


def test_oracle_downset_lattices_and_their_covers():
    # every poset of at most 5 points: its downset frame, and the same
    # lattice given to the explicit builder by its covering pairs, with
    # its names shuffled among its elements
    rng = random.Random(5)
    for names, pairs in ref.posets(5):
        assert_same(downset_frame, oracle_downset_frame, names, pairs)
        lattice = downset_frame(names, pairs)
        shuffled = list(lattice.names)
        rng.shuffle(shuffled)
        covers = [(shuffled[a], shuffled[b]) for a, b in lattice.covers()]
        rng.shuffle(covers)
        assert_same(build_finite_frame, oracle_frame, shuffled, covers)


def test_validate_builds_no_meet_or_join_table(tmp_path):
    docs = [{"builder": "downsets", "elements": ["x", "y", "z"], "leq": [["x", "y"]]},
            {"builder": "finite", "elements": ["0", "a", "b", "1"],
             "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]},
            {"builder": "topology", "points": ["p", "q"], "opens": [[], ["p"], ["p", "q"]]}]
    for doc in docs:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        prox = load_instance(str(path))[1]
        assert validate_proximity(prox).ok
        assert not {"meet_t", "join_t"} & vars(prox.frame).keys(), doc


# -- Birkhoff's count against the distributivity scan --------------------------


def birkhoff_and_scan(names, pairs):
    """(Birkhoff's verdict, the scan's witness) on the lattice built from
    (names, pairs), or None if building it fails before distributivity
    is decided.  The frame is built with the verdict recorded and forced
    to yes once the join scan has passed, so that the scan gets the
    tables of any lattice."""
    verdicts = []
    birkhoff = finite._birkhoff

    def recording(up, down):
        verdicts.append(birkhoff(up, down))
        finite._join_scan(range(len(up)), up)
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_birkhoff", recording)
        try:
            f = build_finite_frame(names, pairs)
        except ProxkitError:
            return None
    return verdicts[0], _distributivity_witness(f.names, f.meet_t, f.join_t)


def assert_birkhoff_agrees(names, pairs):
    """Birkhoff's count says yes exactly when the scan finds no triple,
    and a refused lattice is refused with the scan's witness."""
    decided = birkhoff_and_scan(names, pairs)
    if decided is None:
        return None
    distributive, witness = decided
    assert distributive == (witness is None), (names, pairs)
    if not distributive:
        with pytest.raises(NotDistributive) as exc:
            build_finite_frame(names, pairs)
        assert exc.value.witness == witness
    return distributive


def _bounded(names, pairs):
    """The poset with a new bottom and top adjoined."""
    return (["bot", "top"] + names,
            pairs + [("bot", x) for x in names] + [(x, "top") for x in names])


def non_distributive_lattices():
    """N5 and M3, M3 with a chain under one atom, N5 with an atom doubled,
    M4, and the bounded 2 + 2, which holds an N5."""
    n5 = (["0", "a", "b", "c", "1"],
          [("0", "a"), ("0", "c"), ("a", "b"), ("b", "1"), ("c", "1")])
    return [n5, _bounded(["a", "b", "c"], []),
            _bounded(["a0", "a", "b", "c"], [("a0", "a")]),
            _bounded(["a", "b", "c", "d"], [("a", "b"), ("d", "b")]),
            _bounded(list("abcd"), []),
            _bounded(list("abcd"), [("a", "b"), ("c", "d")])]


def test_birkhoff_agrees_with_the_scan_on_named_lattices():
    square = _bounded(["a", "b"], [])
    grid = ([f"{i}{j}" for i in range(3) for j in range(2)],
            [(f"{i}0", f"{i}1") for i in range(3)]
            + [(f"{i}{j}", f"{i + 1}{j}") for i in range(2) for j in range(2)])
    for names, pairs in non_distributive_lattices():
        assert assert_birkhoff_agrees(names, pairs) is False
        assert assert_birkhoff_agrees(names[::-1], pairs[::-1]) is False
    for names, pairs in (square, grid, (["0"], [])):
        assert assert_birkhoff_agrees(names, pairs) is True


def test_valid_frames_run_no_scan():
    # Birkhoff's test passes every valid frame, so neither scan runs ...
    def scan(*args):
        raise AssertionError("a scan ran on a valid frame")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_join_scan", scan)
        mp.setattr(finite, "_distributivity_witness", scan)
        for names, pairs in ref.posets(4):
            lattice = downset_frame(names, pairs)
            covers = [(lattice.names[a], lattice.names[b]) for a, b in lattice.covers()]
            assert build_finite_frame(list(lattice.names), covers) == lattice
        for f in SMALL_FRAMES:
            for g in SMALL_FRAMES:
                product(f, g)
        open_set_frame(["p", "q"], [[], ["p"], ["p", "q"]])
    # ... and with the test forced to say no, the scans find the witness
    # of each non-lattice and non-distributive lattice
    bowtie = (["0", "a", "b", "c", "d", "1"],
              [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
               ("b", "d"), ("c", "1"), ("d", "1")])
    failing = non_distributive_lattices() + [bowtie]
    expected = [outcome(build_finite_frame, *poset) for poset in failing]
    assert [e[0] for e in expected] == ["NotDistributive"] * 6 + ["NotALattice"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_birkhoff", lambda up, down: False)
        for poset, before in zip(failing, expected):
            assert outcome(build_finite_frame, *poset) == before
            assert_same(build_finite_frame, oracle_frame, *poset)


def test_birkhoff_agrees_with_the_scan_on_cubes():
    for k in range(7):
        f = downset_frame([f"x{i}" for i in range(k)], [])
        assert finite._birkhoff(f.up, f.down)
        assert _distributivity_witness(f.names, f.meet_t, f.join_t) is None


def test_birkhoff_count_stops_past_n():
    # M_k has k + 2 elements but its k atoms have 2**k downsets; the
    # count stops once it passes n
    counted = []
    downsets = finite._downsets

    def recording(below, start=0, limit=None):
        counted.append(len(downsets(below, start, limit)))
        return downsets(below, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_downsets", recording)
        assert birkhoff_and_scan(*_bounded([f"a{i}" for i in range(10)], []))[0] is False
    assert counted and counted[0] <= 2 * 12


@settings(max_examples=120, deadline=None)
@given(small_posets())
def test_birkhoff_agrees_with_the_scan_on_posets(poset):
    names, pairs = poset
    assert_birkhoff_agrees(names, pairs)
    assert_birkhoff_agrees(*_bounded(names, pairs))
    f = downset_frame(names, pairs)
    assert finite._birkhoff(f.up, f.down)
    assert _distributivity_witness(f.names, f.meet_t, f.join_t) is None


def test_size_cap_is_checked_before_the_downsets_are_listed():
    # the 16-point antichain has 65,536 downsets; the enumeration stops
    # once it passes the cap, and no table is built
    listed = []
    downsets = finite._downsets

    def recording(below, start=0, limit=None):
        listed.append(downsets(below, start, limit))
        return listed[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "_downsets", recording)
        mp.setattr(finite, "_ring_of_sets", None)
        with pytest.raises(TooLarge, match="limited to 64 elements"):
            downset_frame([f"x{i}" for i in range(16)], [])
    assert FINITE_FRAME_LIMIT < len(listed[0]) <= 2 * FINITE_FRAME_LIMIT


def test_builders_refuse_an_oversized_input_before_the_closure(monkeypatch):
    # 65 elements, or 64 points with at least 65 downsets: refused by
    # their count alone, so the closure never runs
    def closure(*args):
        raise AssertionError("the closure ran on an oversized input")

    monkeypatch.setattr(finite, "_order_rows", closure)
    chain = [f"e{i:02}" for i in range(65)]
    covers = list(zip(chain, chain[1:]))
    with pytest.raises(TooLarge, match="limited to 64 elements"):
        build_finite_frame(chain, covers)
    for names in (chain, chain[:64]):
        with pytest.raises(TooLarge, match="limited to 64 elements"):
            downset_frame(names, covers[:len(names) - 1])


def test_open_sets_over_the_limit_are_refused_before_the_closure_scan(monkeypatch):
    # the empty set, the whole space and 63 singletons: 65 distinct opens,
    # not closed under union
    monkeypatch.setattr(finite, "combinations", None)
    points = [f"p{i}" for i in range(64)]
    opens = [[], points] + [[p] for p in points[:63]]
    with pytest.raises(TooLarge, match="limited to 64 elements"):
        open_set_frame(points, opens)


def test_products_over_the_limit_are_refused_before_their_rows(monkeypatch):
    f = ref.chains((9,))[0][1]
    monkeypatch.setattr(finite, "_bits", None)
    with pytest.raises(TooLarge, match="limited to 64 elements"):
        product(f, f)
    with pytest.raises(TooLarge, match="limited to 64 elements"):
        product_proximity(order_proximity(f), order_proximity(f))


def test_downset_frame_takes_posets_over_16_points():
    # a 30-point chain has 31 downsets, one per prefix
    names = [f"c{i:02}" for i in range(30)]
    f = downset_frame(names, list(zip(names, names[1:])))
    assert f.n == 31 and len(f.covers()) == 30
    assert f.names[:3] == ("{}", "{c00}", "{c00,c01}")


def test_cycle_messages_match_the_pair_scan():
    # the oracle's closure keeps the row-major pair scan for cycles
    rng = random.Random(6)
    cycles = 0
    for _ in range(400):
        names = [f"v{i}" for i in range(rng.randint(2, 9))]
        rng.shuffle(names)
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(2, 12))]
        expected = outcome(_oracle_closure, names, pairs)
        if isinstance(expected, tuple):
            assert outcome(finite._order_rows, names, pairs) == expected
            assert_same(build_finite_frame, oracle_frame, names, pairs)
            assert_same(downset_frame, oracle_downset_frame, names, pairs)
            cycles += 1
    assert cycles > 100
