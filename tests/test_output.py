"""The report writers against the standard library, and the compactify
pair listing against its definition.

`reports.line` and `reports.document` must write the bytes of
``json.dumps(obj, sort_keys=True)`` and ``json.dumps(obj, sort_keys=True,
indent=2)``, and `LawReport.dumps` those of `line` on its `to_json()`.  `cli._compact_json` lists each relation on the
representatives by scanning them in label order; the listing must be the
sorted list of related label pairs.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxkit.catalog import catalog_instances
from proxkit.chain import build_chain_frame
from proxkit.cli import _compact_json
from proxkit.comonads import _reps
from proxkit.proximity import chain_proximity
from proxkit.reports import FAIL, PASS, LawReport, document, law_fail, law_pass, line
from proxkit.roundideal import rframe
from test_cli_golden import chain_docs

# characters json escapes, a lone surrogate, and some outside ASCII
SPECIAL = st.sampled_from(['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00",
                           "\x1f", "\x7f", "é", "€", " ", "\ud800", "😀"])
TEXT = st.text(st.one_of(st.characters(), SPECIAL), max_size=12)
INTS = st.one_of(st.integers(), st.sampled_from([2**64, -2**63 - 1, 10**100, -10**100]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=5).map(tuple),
                           st.lists(TEXT, max_size=5),
                           st.dictionaries(TEXT, kids, max_size=5)),
    max_leaves=20,
)


def indented(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(VALUES)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[]], "d": ["x", 1, ["y"]]})
@example([["a", "b"], ["c"]])
@example([["a"], []])
@example([["a"], [1]])
@example([["a"], ("b",)])
def test_document_and_line_write_the_standard_bytes(obj):
    assert document(obj) == indented(obj)
    assert line(obj) == json.dumps(obj, sort_keys=True)


def test_line_raises_the_standard_errors():
    for obj in ({1, 2}, [1, {"a": {2}}], {(1,): 2}):
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, sort_keys=True)
        with pytest.raises(TypeError) as got:
            line(obj)
        assert str(got.value) == str(expected.value)
        assert getattr(got.value, "__notes__", None) == getattr(expected.value, "__notes__", None)
    circular = []
    circular.append(circular)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        line(circular)
    # a failed call leaves nothing behind: the same list, mended, is written
    obj = [[1], {"a": {2}}]
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        line(obj)
    obj[1]["a"] = 2
    assert line(obj) == json.dumps(obj, sort_keys=True)


WITNESS = st.one_of(st.none(), st.just(()),
                    st.lists(st.one_of(TEXT, INTS, st.tuples(TEXT)), max_size=4).map(tuple))


@settings(max_examples=200, deadline=None)
@given(TEXT, TEXT, st.sampled_from([PASS, FAIL]), st.one_of(st.sampled_from([0, 2**70]), INTS),
       WITNESS, TEXT)
@example("R.coassoc", 'chain:"k2"', PASS, 0, None, "")
@example("C.kz", "\ud800\n\x00é", FAIL, 2**70, (), "\"quoted\"\t😀")
@example("sub.counit", "two", FAIL, 3, ('"a"', "\x1f", "\udfff", "€"), "")
def test_law_report_dumps_writes_the_standard_bytes(law, instance, verdict, samples,
                                                     witness, note):
    report = LawReport(law, instance, verdict, samples, witness, note)
    assert report.dumps() == json.dumps(report.to_json(), sort_keys=True)
    # the builders give the report the constructor gives
    if verdict == PASS and witness is None:
        assert law_pass(law, instance, samples, note) == report
    if verdict == FAIL:
        assert law_fail(law, instance, witness, samples, note) == report


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["list", "tuple", "dict"]), min_size=1, max_size=80),
       SCALARS)
def test_deep_nesting(shape, leaf):
    # each level holds obj once, so the text grows with the depth, not
    # twice per dict level
    obj = leaf
    for kind in shape:
        obj = {"k": obj, "": [leaf]} if kind == "dict" else [obj, leaf]
        if kind == "tuple":
            obj = tuple(obj)
    assert document(obj) == indented(obj)
    assert line(obj) == json.dumps(obj, sort_keys=True)


def test_document_refuses_keys_that_are_not_strings():
    with pytest.raises(TypeError):
        document({1: "a"})


def related_label_pairs(rel, reps) -> list:
    """Every related pair of representatives by label, sorted."""
    return sorted([rel.label(a), rel.label(b)]
                  for a in reps for b in reps if rel.rel(a, b))


def assert_pairs_listed_sorted(name, prox):
    rfd = rframe(prox)
    doc = _compact_json(name, prox, rfd)
    reps = _reps(rfd, pairs=True)
    assert doc["way_below_on_representatives"] == related_label_pairs(rfd.wb, reps)
    assert doc["max_rel_on_representatives"] == related_label_pairs(rfd.maxp, reps)


REFLEXIVE_TOP = {path: doc for path, doc in chain_docs().items()
                 if doc["k"] in doc["reflexive"]}


@pytest.mark.parametrize("doc", REFLEXIVE_TOP.values(), ids=list(REFLEXIVE_TOP))
def test_chain_pairs_listed_in_label_order(doc):
    prox = chain_proximity(build_chain_frame(doc["k"]), doc["reflexive"])
    assert_pairs_listed_sorted(doc["name"], prox)


@pytest.mark.parametrize("name", list(catalog_instances()))
def test_catalog_pairs_listed_in_label_order(name):
    assert_pairs_listed_sorted(name, catalog_instances()[name])
