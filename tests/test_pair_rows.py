"""The pair laws decided on bitmask rows, against the definitions.

The laws `maxrel.agreement`, `maxrel.contains-wb` and
`C.doubled-membership` build int rows over the representatives and
report the first set bit of the first nonzero "bad" row.  The reference
evaluates each law at every pair of points of a deeper window; its first
violating pair must be the report's witness, counted at its place among
the law's representatives, also where the law fails: the RFrameData is fed
a tampered maximal or way-below relation.  The compactify relation lists
and the inverse codec `RFrameData.el_of` are checked as well, and the
number of primitive calls the pair laws make must grow linearly in k.
"""

from dataclasses import replace
from itertools import combinations, product

import pytest

import proxkit.roundideal as roundideal
import reference as ref
from proxkit.catalog import catalog_instances
from proxkit.chain import El, build_chain_frame
from proxkit.cli import _compact_json
from proxkit.comonads import _reps, check_laws, describe_instance, epsilon_map
from proxkit.errors import BrokenInvariant, ProxkitError, UnsupportedRepresentation
from proxkit.morphisms import kappa_map, sigma_map
from proxkit.proximity import ChainProximity, FiniteProximity, chain_proximity
from proxkit.reports import law_fail, law_pass
from proxkit.roundideal import BelowLim, Prin, rframe, way_below_ideals

from test_block_map import CHAIN_DOCS, _tower

FINITE_NAMES = ("two", "chain3", "diamond", "cube3")
LAWS = ("maxrel.agreement", "C.doubled-membership", "maxrel.contains-wb")


def one_law(law, rfd):
    """The report of the law named `law` on rfd."""
    (report,) = check_laws(rfd, law)
    return report


def reference_report(law, rfd, **kw):
    """The report of `law` on rfd as the reference finds it: its first
    violating pair in a window deeper than the law's representatives,
    which must hold the pair, and the pairs a row-major scan of those
    representatives checks up to it."""
    base = rfd.base
    if law == "C.doubled-membership":
        maps = (epsilon_map(rfd.cc),)
        rows, cols = _reps(rfd.cc, maps, pairs=True), _reps(rfd, maps, pairs=True)
        found = ref.doubled_membership
    else:
        maps = (sigma_map(rfd), kappa_map(rfd)) if law == "maxrel.agreement" else ()
        rows = cols = _reps(rfd, maps, pairs=True)
        found = ref.maxrel_agreement if maps else ref.maxrel_contains_wb
    depth = ref.depth_for(*maps)
    first = next(found(rfd, depth, **kw), None)
    inst = describe_instance(base)
    if first is None:
        return law_pass(law, inst, samples=len(rows) * len(cols))
    x, y = first
    ideals = ref.codec(base, rfd.frame, depth)
    if law == "maxrel.agreement":
        x, y = ideals[x], ideals[y]
    elif law == "C.doubled-membership":
        y = ideals[y]
    return law_fail(law, inst, witness=(repr(x), repr(y)),
                    samples=rows.index(first[0]) * len(cols) + cols.index(first[1]) + 1)


def tampered(prox, maxp=None, wb=None):
    """rframe(prox) with its maximal relation, its way-below relation or
    both replaced; a fresh object each time, so nothing else built from
    the true relations is kept on it.  On a finite instance the doubled
    frame `cc` is the true one: rframe refuses a tampered relation, which
    is not the order."""
    rfd = rframe(prox)
    cc = rfd.cc if isinstance(prox, FiniteProximity) else None
    if wb is not None:
        rfd = replace(rfd, wb=wb)
    if maxp is not None:
        vars(rfd)["maxp"] = maxp
    if cc is not None:
        vars(rfd)["cc"] = cc
    return rfd


def chain_tamperings(prox):
    """Every reflexive-limit set of the ideal frame, as maxp and as wb."""
    frame = rframe(prox).frame
    lims = frame.limits()
    for r in range(len(lims) + 1):
        for chosen in combinations(lims, r):
            rel = ChainProximity(frame, frozenset(chosen))
            yield {"maxp": rel}
            yield {"wb": rel}


def finite_tamperings(prox):
    """maxp and wb, each with one pair (a, b) flipped."""
    rfd = rframe(prox)
    for key in ("maxp", "wb"):
        rows = getattr(rfd, key).rows
        for a, b in product(range(len(rows)), repeat=2):
            flipped = (*rows[:a], rows[a] ^ 1 << b, *rows[a + 1:])
            yield {key: FiniteProximity(rfd.frame, flipped)}


def outcome(decide, *args):
    try:
        return decide(*args)
    except ProxkitError as exc:
        return type(exc)


def assert_rows_match_reference(prox, tamperings):
    """Each law on each tampered frame gives the reference's report;
    returns the number of failing reports per law."""
    failed = dict.fromkeys(LAWS, 0)
    for change in tamperings:
        for law in LAWS:
            expected = outcome(reference_report, law, tampered(prox, **change))
            assert outcome(one_law, law, tampered(prox, **change)) == expected, (
                describe_instance(prox), change, law)
            failed[law] += getattr(expected, "ok", True) is False
    return failed


def test_pair_laws_match_the_reference_on_tampered_chains():
    failed = dict.fromkeys(LAWS, 0)
    for doc in CHAIN_DOCS.values():
        prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
        for law, count in assert_rows_match_reference(prox, chain_tamperings(prox)).items():
            failed[law] += count
    # a chain relation keeps every strict pair, which is all the lemma
    # needs, so only the two maximal-relation laws fail here
    assert failed["maxrel.agreement"] and failed["maxrel.contains-wb"]


def test_pair_laws_match_the_reference_on_the_tampered_finite_catalog():
    failed = dict.fromkeys(LAWS, 0)
    for name in FINITE_NAMES:
        prox = catalog_instances()[name]
        for law, count in assert_rows_match_reference(prox, finite_tamperings(prox)).items():
            failed[law] += count
    assert all(failed.values()), failed


def test_rows_refuse_representatives_out_of_chain_order(monkeypatch):
    prox = chain_proximity(build_chain_frame(2), [2])
    rfd = rframe(prox)
    reps = rfd.frame.class_representatives(2)
    ideals = [rfd.ideal_of(e) for e in reps[::-1]]
    with pytest.raises(BrokenInvariant, match="not in chain order"):
        rfd.joins_on(reps[::-1])
    with monkeypatch.context() as m:
        m.setattr(type(rfd.frame), "class_representatives",
                  lambda self, depth: reps[::-1])
        with pytest.raises(BrokenInvariant, match="not in chain order"):
            _reps(rfd, pairs=True)
    with pytest.raises(BrokenInvariant, match="not nested"):
        rfd.inclusion_rows(reps[::-1], ideals)
    # in order but not strictly growing: one ideal listed twice
    twice = reps[:2] + reps[1:]
    with pytest.raises(BrokenInvariant, match="not nested"):
        rfd.inclusion_rows(twice, [rfd.ideal_of(e) for e in twice])


# -- compactify's relation lists -------------------------------------------------


def scan_relation_lists(rfd):
    if isinstance(rfd.base, FiniteProximity):
        reps = list(rfd.frame.elements())
    else:
        reps = rfd.frame.class_representatives(2)
    label = rfd.wb.label
    return {key: sorted([label(a), label(b)] for a in reps for b in reps if rel(a, b))
            for key, rel in (("way_below_on_representatives", rfd.wb.rel),
                             ("max_rel_on_representatives", rfd.maxp.rel))}


def test_compact_json_lists_the_scanned_relations():
    cases = [*catalog_instances().items(),
             *((path, chain_proximity(build_chain_frame(d["k"]), d["reflexive"]))
               for path, d in CHAIN_DOCS.items())]
    for name, prox in cases:
        rfd = rframe(prox)
        doc = _compact_json(name, prox, rfd)
        for key, pairs in scan_relation_lists(rfd).items():
            assert doc[key] == pairs, (name, key)


# -- the inverse codec -----------------------------------------------------------


@pytest.mark.parametrize("doc", CHAIN_DOCS.values(), ids=list(CHAIN_DOCS))
def test_el_of_matches_the_reference_scan(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    for rfd in _tower(prox):
        base = rfd.base
        for a in ref.points(base.frame, 8):
            ideal = ref.approximants(base, a)
            assert rfd.el_of(ideal) == ref.element(base, rfd.frame, ideal)


def test_el_of_refuses_an_ideal_outside_the_classification():
    rfd = rframe(chain_proximity(build_chain_frame(1), [1]))
    other = chain_proximity(build_chain_frame(3), [3])
    with pytest.raises(UnsupportedRepresentation, match="not in the classification"):
        rfd.el_of(BelowLim(other, El(5, 0)))
    fin = rframe(catalog_instances()["diamond"])
    # a finite frame has no limit to build an ideal under
    f = fin.base.frame
    with pytest.raises(UnsupportedRepresentation, match="is not a limit point"):
        BelowLim(fin.base, f.top)
    # the ideals of another proximity are refused, also where their codes
    # name an element or a segment of this frame
    two = catalog_instances()["two"]
    diagonal = FiniteProximity(f, tuple(1 << x for x in f.elements()))
    for frame_data, ideal in ((rfd, BelowLim(other, El(1, 0))),
                              (rfd, Prin(other, El(0, 9))),
                              (fin, Prin(two, 1)),
                              (fin, Prin(diagonal, f.index("a")))):
        with pytest.raises(UnsupportedRepresentation,
                           match="it is a round ideal of another proximity"):
            frame_data.el_of(ideal)
    # an equal proximity that is another object is the same proximity
    same = chain_proximity(build_chain_frame(1), [1])
    assert same is not rfd.base
    assert rfd.el_of(BelowLim(same, El(1, 0))) == El(1, 0)
    assert rfd.el_of(Prin(same, El(0, 9))) == El(0, 9)


# -- work grows linearly in k ----------------------------------------------------


def test_pair_laws_make_linearly_many_primitive_calls(monkeypatch):
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(roundideal, "member", counted(roundideal.member))
    monkeypatch.setattr(roundideal, "way_below_ideals", counted(way_below_ideals))
    monkeypatch.setattr(ChainProximity, "rel", counted(ChainProximity.rel))

    def count(k):
        # the chain with the odd limits and the top reflexive
        prox = chain_proximity(build_chain_frame(k), [*range(1, k, 2), k])
        rfd = rframe(prox)
        rfd.cc
        calls[0] = 0
        for law in LAWS:
            assert one_law(law, rfd).ok
        return calls[0]

    small, large = count(16), count(64)
    assert 0 < small and large < 8 * small, (small, large)
