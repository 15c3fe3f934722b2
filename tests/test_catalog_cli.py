import argparse
import functools
import json
import re
import sys

import pytest

from proxkit.catalog import (
    CATALOG_NAMES,
    catalog_instances,
    catalog_morphisms,
    load_instance,
    parse_element,
    parse_instance,
    parse_morphism,
)
from proxkit.chain import (
    OMEGA,
    POINT,
    ChainLikeFrame,
    El,
    Segment,
    Seq,
    build_chain_frame,
    lim,
    succ,
)
import proxkit.catalog as catalog
import proxkit.cli as cli
import proxkit.comonads as comonads
from proxkit.cli import _generated_frames, main
from proxkit.errors import BrokenInvariant, InvalidParameter, UnknownInstance
from proxkit.morphisms import ChainMap, enumerate_proxhoms, validate_proxhom
from proxkit.proximity import ChainProximity, chain_proximity, order_proximity
from proxkit.roundideal import rframe
from test_cli_golden import finite_docs
from test_comonads import _sunk


# -- codecs --------------------------------------------------------------------


def test_parse_instance_guards():
    with pytest.raises(InvalidParameter):
        parse_instance({"elements": ["0", "1"]})  # no builder
    with pytest.raises(InvalidParameter):
        parse_instance({"builder": "mystery"})
    with pytest.raises(InvalidParameter):
        parse_instance({"builder": "finite", "elements": ["0", "1"],
                        "leq": [["0", "1"]], "proximity": "???"})


def test_load_instance_by_name_and_path(tmp_path):
    name, prox = load_instance("chain-k2")
    assert name == "chain-k2" and isinstance(prox, ChainProximity)
    doc = {"name": "mine", "builder": "chain", "k": 2, "reflexive": [2]}
    p = tmp_path / "mine.json"
    p.write_text(json.dumps(doc))
    name2, prox2 = load_instance(str(p))
    assert name2 == "mine" and prox2 == prox
    with pytest.raises(UnknownInstance):
        load_instance("no-such-instance")


def test_parse_element_labels():
    insts = catalog_instances()
    d = insts["diamond"]
    assert parse_element(d, "a") == d.frame.index("a")
    p = insts["chain-k2"]
    assert parse_element(p, "S0.3") == succ(p.frame, 0, 3)
    assert parse_element(p, "S1.0") == succ(p.frame, 1, 0)
    assert parse_element(p, "L1") == lim(p.frame, 1)
    with pytest.raises(InvalidParameter):
        parse_element(p, "L9")


@pytest.mark.parametrize("label", ["S0.+3", "S0. 3", "S0.03", "S0.1_0", "S0.x"])
def test_chain_labels_that_label_never_prints_are_refused(label):
    frame = build_chain_frame(1)
    prox = chain_proximity(frame, {1})
    for read in (frame.index, lambda s: parse_element(prox, s)):
        with pytest.raises(InvalidParameter, match=f"^no element named {re.escape(repr(label))}$"):
            read(label)


def test_chain_positions_longer_than_str_writes_are_refused():
    # str() writes an int of at most the interpreter's digit cap, 4300 by
    # default, so a longer position is no label, and it is refused before
    # int() reads it
    frame = build_chain_frame(1)
    cap = sys.get_int_max_str_digits()
    assert 0 < cap < 5000
    longest = El(0, int("1" * cap))
    assert frame.index(frame.label(longest)) == longest
    for label in ("S0." + "1" * (cap + 1), "S0." + "1" * 5000):
        with pytest.raises(InvalidParameter, match=f"^no element named {re.escape(repr(label))}$"):
            frame.index(label)


def test_parse_morphism_documents():
    insts = catalog_instances()
    d = insts["diamond"]
    f = parse_morphism({"table": {"0": "0", "a": "b", "b": "a", "1": "1"}}, d, d)
    assert f.apply(d.frame.index("a")) == d.frame.index("b")
    p = insts["chain-k1"]
    doc = {"blocks": [{"tail": {"block": 0, "a": 2, "b": 0}}],
           "limits": "derived"}
    assert parse_morphism(doc, p, p) == catalog_morphisms()["chain-double"]
    explicit = {"blocks": [{"tail": {"block": 0, "a": 2, "b": 0}}],
                "limits": ["L1"]}
    assert parse_morphism(explicit, p, p) == catalog_morphisms()["chain-double"]
    doc_h = {"blocks": [{"tail": "S0.0"}], "limits": ["L1"]}
    assert parse_morphism(doc_h, p, p) == catalog_morphisms()["chain-h"]


def test_parse_morphism_rejects_repeated_exception_index():
    p = catalog_instances()["chain-k1"]
    doc = {"blocks": [{"exceptions": {"0": "S0.0", "00": "S0.1"},
                       "tail": {"block": 0}}], "limits": "derived"}
    with pytest.raises(InvalidParameter):
        parse_morphism(doc, p, p)


def test_parse_morphism_derives_limits_only():
    # B follows a point, not an omega block: it has no supremum to take
    frame = ChainLikeFrame((Segment(OMEGA, "S"), Segment(POINT, "A"),
                            Segment(POINT, "B")))
    p = ChainProximity(frame, frozenset())
    with pytest.raises(InvalidParameter):
        parse_morphism({"blocks": [{"tail": "A"}], "limits": "derived"}, p, p)


@pytest.mark.parametrize("doc, missing", [
    ({"blocks": []}, "'blocks' for block S0"),
    ({"blocks": [{"tail": "S0.0"}], "limits": []}, "'limits' for L1"),
])
def test_parse_morphism_rejects_missing_blocks_and_limits(doc, missing):
    p = catalog_instances()["chain-k1"]
    with pytest.raises(InvalidParameter, match=missing):
        parse_morphism(doc, p, p)


@pytest.mark.parametrize("source, doc, field", [
    ("chain-k1", {"blocks": [{"exceptions": {"x": "S0.0"}, "tail": {"block": 0}}]},
     "'exceptions'"),
    ("chain-k1", {"blocks": [{"exceptions": {"1" * 5000: "S0.0"}, "tail": {"block": 0}}]},
     "'exceptions'"),
    ("chain-k1", {"blocks": [{"exceptions": [], "tail": {"block": 0}}]}, "'exceptions'"),
    ("chain-k1", {"blocks": [{"tail": {"block": "y"}}]}, "'tail'"),
    ("chain-k1", {"blocks": [{"tail": {"block": 0, "a": 1.7}}]}, "'tail'"),
    ("chain-k1", {"blocks": [{"tail": 5}]}, "'tail'"),
    ("chain-k1", {"blocks": [5]}, "'tail'"),
    ("chain-k1", {"blocks": [{"tail": {"block": 0}}], "limits": 5}, "'limits'"),
    ("chain-k1", {"blocks": {}}, "'blocks'"),
    ("chain-k1", {"table": {"S0.0": "S0.0"}}, "'blocks'"),
    ("chain-k1", {}, "'blocks'"),
    ("diamond", {"blocks": []}, "'table'"),
    ("diamond", {"table": []}, "'table'"),
    ("diamond", {"table": {"1": "1"}}, "'table' has no value for 0, a, b"),
    ("diamond", {"table": {}}, "'table' has no value for 0, a, b, 1"),
])
def test_parse_morphism_names_the_malformed_field(source, doc, field):
    p = catalog_instances()[source]
    with pytest.raises(InvalidParameter, match=f"field {field}"):
        parse_morphism(doc, p, p)


def test_catalog_is_complete():
    assert set(catalog_instances()) == set(CATALOG_NAMES)
    ms = catalog_morphisms()
    for name in ("chain-id", "chain-double", "chain-shift3", "chain-h",
                 "k2-f", "k2-g", "diamond-id"):
        assert name in ms


def test_catalog_is_parsed_once_and_shared():
    first = catalog_instances()
    second = catalog_instances()
    assert first is not second
    assert all(second[name] is prox for name, prox in first.items())
    first.clear()
    first["extra"] = second["two"]
    third = catalog_instances()
    assert set(third) == set(CATALOG_NAMES)
    assert all(third[name] is prox for name, prox in second.items())


# -- command-line front end ------------------------------------------------------


def test_cli_validate_catalog_instance(capsys):
    assert main(["validate", "diamond"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"] == "diamond" and doc["ok"] is True


def test_cli_validate_failing_instance(tmp_path, capsys):
    bad = {
        "name": "bad", "builder": "finite",
        "elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]],
        "proximity": {"pairs": [["0", "0"], ["1", "1"], ["m", "1"]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", str(p)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False


@pytest.mark.parametrize("suite", ["R", "C", "morphisms", "all"])
def test_cli_laws_refuses_instance_failing_the_axioms(suite, tmp_path, capsys):
    # 0 < a < 1 with (a, a) missing: a is not the join of its approximants
    bad = {
        "name": "bad", "builder": "finite",
        "elements": ["0", "a", "1"], "leq": [["0", "a"], ["a", "1"]],
        "proximity": {"pairs": [["0", "0"], ["0", "1"], ["1", "1"]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["laws", "--suite", suite, "--instance", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: instance fails the proximity axioms\n"


def test_cli_compactify_refuses_an_instance_failing_the_axioms(tmp_path, capsys):
    # the golden instance whose relation drops (p, p): p is not the join
    # of its approximants
    p = tmp_path / "fin-approximation.json"
    p.write_text(json.dumps(finite_docs()["fin-approximation.json"]))
    assert main(["compactify", str(p)]) == 1
    assert capsys.readouterr() == ("", "error: instance fails the proximity axioms\n")


def test_cli_product_document_is_its_explicit_product_frame(tmp_path, capsys):
    # the product of two finite factors reports as the same frame given
    # element by element, named by pairs and ordered componentwise
    two = {"builder": "finite", "elements": ["0", "1"], "leq": [["0", "1"]]}
    chain3 = {"builder": "finite", "elements": ["0", "m", "1"],
              "leq": [["0", "m"], ["m", "1"]]}
    pairs = [(x, y) for x in two["elements"] for y in chain3["elements"]]
    below = [("0", "0"), ("0", "1"), ("1", "1"), ("0", "m"), ("m", "m"), ("m", "1")]
    explicit = {"name": "prod", "builder": "finite",
                "elements": [f"({x},{y})" for x, y in pairs],
                "leq": [[f"({a},{b})", f"({c},{d})"] for a, b in pairs for c, d in pairs
                        if (a, c) in below and (b, d) in below]}
    docs = {"product": {"name": "prod", "builder": "product", "left": two, "right": chain3},
            "explicit": explicit}
    outputs = {}
    for key, doc in docs.items():
        p = tmp_path / f"{key}.json"
        p.write_text(json.dumps(doc))
        outputs[key] = []
        for argv in (["validate", str(p)], ["compactify", str(p)]):
            outputs[key].append((main(argv), capsys.readouterr()))
    assert outputs["product"] == outputs["explicit"]
    assert [code for code, _ in outputs["product"]] == [0, 0]
    assert json.loads(outputs["product"][0][1].out)["ok"] is True
    assert len(json.loads(outputs["product"][1][1].out)["classification"]) == 6


def test_cli_validate_refuses_a_large_downset_frame_by_its_size(tmp_path, capsys):
    # the 12-point antichain has 4,096 downsets; the cap ends the listing
    # of them once it passes 64, before any table is built
    doc = {"name": "anti12", "builder": "downsets",
           "elements": [f"x{i}" for i in range(12)], "leq": []}
    p = tmp_path / "anti12.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: finite frames are limited to 64 elements\n"


def test_cli_usage_and_input_errors(capsys):
    assert main(["validate", "no-such-instance"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["laws", "--suite", "bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["laws", "--samples", "3"], 2),
    (["-h"], 0),
], ids=["usage-error", "help"])
def test_cli_builds_its_parser_once_per_process(argv, code, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    assert main(argv) == code
    first = capsys.readouterr()
    assert (first.err if code else first.out).startswith("usage: proxkit ")
    # the first call builds the parser and its four subcommand parsers
    assert built == ["proxkit", "proxkit validate", "proxkit compactify",
                     "proxkit laws", "proxkit search"]
    # later calls, also after another command, build none and print the
    # same bytes as the first
    assert main(argv) == code
    assert capsys.readouterr() == first
    assert main(["validate", "two"]) == 0
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == first
    assert len(built) == 5


@pytest.mark.parametrize("doc, message", [
    ({"builder": "finite", "elements": 5},
     "field 'elements' must be a list of names, got 5"),
    ({"builder": "chain", "k": 2, "reflexive": ["x"]},
     "field 'reflexive' must be a list of limit indices, got ['x']"),
    ({"builder": "finite", "elements": ["a", "b"], "leq": [["a", "b"]],
      "proximity": {"pairs": [["a", "zz"]]}},
     "field 'proximity.pairs': no element named 'zz'"),
    ({"builder": "product", "left": 3, "right": 4},
     "field 'left' must be an instance document, got 3"),
    ({"builder": "finite", "elements": ["0", "1"], "leq": [["0", "1"]], "name": [1]},
     "field 'name' must be a string, got [1]"),
    ({"builder": "chain", "k": 2, "names": ["A", "A"], "reflexive": [2]},
     "duplicate chain label 'A'"),
    ({"builder": "chain", "k": 2, "names": ["S1"], "reflexive": [2]},
     "duplicate chain label 'S1'"),
    ({"builder": "product", "left": {"builder": "chain", "reflexive": [1]},
      "right": {"builder": "finite", "elements": ["0"]}},
     "field 'left' must be a finite instance document, "
     "got {'builder': 'chain', 'reflexive': [1]}"),
    ({"builder": "topology", "points": ["p", "p"], "opens": [[], ["p"]]},
     "duplicate point ids: 'p'"),
    ({"builder": "chain", "k": 2, "reflexive": [2, 2]},
     "field 'reflexive' repeats the limit indices [2]"),
    ({"builder": "chain", "k": 2, "names": ["A", "B", "C"], "reflexive": [2]},
     "field 'names' has 3 block names for k = 2 blocks"),
    ({"builder": "chain", "k": "2"}, "field 'k' must be an integer, got '2'"),
    ({"builder": "topology", "points": ["p"], "opens": "p"},
     "field 'opens' must be a list, got 'p'"),
    ({"builder": "finite", "leq": []}, "instance document needs the field 'elements'"),
    ({"builder": "downsets", "elements": ["a", 3]}, "field 'elements' has a non-name entry 3"),
    ({"builder": "finite", "elements": ["a", "b"], "leq": 5},
     "field 'leq' must be a list of name pairs, got 5"),
    ({"builder": "finite", "elements": ["a", "b"], "leq": [["a"]]},
     "field 'leq' has an entry ['a'] that is not a name pair"),
    ({"builder": "topology", "points": ["p", "q"], "opens": [[], ["p", "q"], ["z"]]},
     "not closed under membership: witness 'z'"),
    ({"builder": "topology", "points": ["p", "q", "r"],
      "opens": [[], ["p", "q", "r"], ["p", "q"], ["q", "r"]]},
     "not closed under intersection: witness ('{p,q}', '{q,r}')"),
    ({"builder": "topology", "points": ["p", "q", "r"],
      "opens": [[], ["p", "q", "r"], ["p"], ["r"]]},
     "not closed under union: witness ('{p}', '{r}')"),
], ids=["elements-not-a-list", "reflexive-not-indices", "unknown-pair-element",
        "product-factor-not-a-document", "name-not-a-string", "repeated-block-label",
        "block-label-repeats-a-default", "product-factor-a-chain",
        "repeated-topology-point", "repeated-reflexive-index", "more-names-than-blocks",
        "k-not-an-integer", "opens-not-a-list", "no-elements", "non-name-element",
        "leq-not-a-list", "leq-entry-not-a-pair", "open-with-an-unknown-point",
        "opens-not-closed-under-intersection", "opens-not-closed-under-union"])
def test_cli_malformed_instance_exits_2(doc, message, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    for argv in (["validate", str(p)], ["compactify", str(p)],
                 ["laws", "--suite", "all", "--instance", str(p)]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n", argv


def _nested_products(depth: int) -> bytes:
    """A product document whose left factor is a product, depth deep,
    written as text: json.dumps would recurse once per level."""
    one = '{"builder": "finite", "elements": ["0"]}'
    head = '{"builder": "product", "right": %s, "left": ' % one
    return (head * depth + one + "}" * depth).encode()


def _int_error(digits: int) -> str:
    """The interpreter's own message for an integer of too many digits."""
    with pytest.raises(ValueError) as exc:
        int("1" * digits)
    return str(exc.value)


RAW_DOCUMENTS = {
    "deep-arrays": (b"[" * 100_000 + b"]" * 100_000,
                    "instance document is nested too deeply"),
    # deep enough for parse_instance to recurse past the limit, not json
    "deep-products-400": (_nested_products(400), "instance document is nested too deeply"),
    "deep-products-2000": (_nested_products(2_000), "instance document is nested too deeply"),
    "not-utf-8": (b'{"builder": "finite", "name": "\xff", "elements": ["a"]}',
                  "'utf-8' codec can't decode byte 0xff in position 31: invalid start byte"),
    "long-integer": (b'{"builder": "chain", "k": ' + b"1" * 5_000 + b"}", _int_error(5_000)),
    "truncated": (b'{"builder": "finite", "elements": ["a"',
                  "Expecting ',' delimiter: line 1 column 39 (char 38)"),
}


@pytest.mark.parametrize("data, message", RAW_DOCUMENTS.values(), ids=list(RAW_DOCUMENTS))
def test_cli_unreadable_document_exits_2(data, message, tmp_path, capsys):
    # the errors of reading a document are input errors, in every command
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    for argv in (["validate", str(p)], ["compactify", str(p)],
                 ["laws", "--suite", "all", "--instance", str(p)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_cli_names_the_unknown_point_of_a_large_open(tmp_path, capsys):
    # the witness is the entry that is not a point, not the whole open
    points = [f"p{i}" for i in range(100_000)]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"builder": "topology", "points": points,
                             "opens": [[], points + ["zz"], points]}))
    assert main(["validate", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: not closed under membership: witness 'zz'\n"
    assert len(err.encode()) < 200


def reversed_representatives(monkeypatch):
    representatives = ChainLikeFrame.class_representatives
    monkeypatch.setattr(ChainLikeFrame, "class_representatives",
                        lambda self, depth=3: representatives(self, depth)[::-1])


def a_representative_twice(monkeypatch):
    reps = comonads._reps

    def twice(*args, **kw):
        out = reps(*args, **kw)
        return out[:2] + out[1:]

    monkeypatch.setattr(comonads, "_reps", twice)


INTERNAL_ERRORS = {
    f"{command}-{error.__name__}": (error, argv, where, "internal")
    for error in (KeyError, ValueError)
    for command, argv, where in (
        ("validate", ["validate", "two"], "validate_proximity"),
        ("laws", ["laws", "--suite", "morphisms", "--instance", "two"], "theta"),
        ("search", ["search", "--law", "collapse", "--max-size", "2"],
         "certify_finite_collapse"))
} | {
    # proxkit's own invariants: representatives listed out of chain order,
    # and ideals of the representatives that are not nested
    "compactify-BrokenInvariant": (BrokenInvariant, ["compactify", "chain-k2"],
                                   reversed_representatives, "not in chain order"),
    "laws-BrokenInvariant": (BrokenInvariant, ["laws", "--suite", "C", "--instance", "chain-k2"],
                             a_representative_twice, "not nested"),
}


@pytest.mark.parametrize("error, argv, where, message", INTERNAL_ERRORS.values(),
                         ids=list(INTERNAL_ERRORS))
def test_cli_lets_an_internal_error_propagate(error, argv, where, message, monkeypatch):
    # only a ProxkitError is bad input: any other exception inside a
    # command is a bug, and main does not report it as exit 2
    def broken(*args):
        raise error("internal")

    if callable(where):
        where(monkeypatch)
    else:
        monkeypatch.setattr(cli, where, broken)
    with pytest.raises(error, match=message):
        main(argv)


def test_cli_compactify_json(capsys):
    assert main(["compactify", "chain-k2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    segs = [c["segment"] for c in doc["classification"]]
    # the non-reflexive limit contributes only its below-class
    assert "B[L1]" in segs and "P[L1]" not in segs
    assert "B[L2]" in segs and "P[L2]" in segs

    assert main(["compactify", "diamond"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classification"]) == 4
    assert {c["sigma"] for c in doc["classification"]} == {"0", "a", "b", "1"}


def test_cli_compactify_dot(capsys):
    assert main(["compactify", "chain-k1", "--out", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph") and '"..."' in dot and "->" in dot
    assert main(["compactify", "diamond", "--out", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_cli_laws_deterministic_output(capsys):
    args = ["laws", "--suite", "R", "--instance", "chain-k2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    for line in first.strip().splitlines():
        assert json.loads(line)["verdict"] == "pass"


def test_cli_laws_whole_catalog_is_repeatable(capsys):
    assert main(["laws", "--suite", "all"]) == 0
    first = capsys.readouterr().out
    assert main(["laws", "--suite", "all"]) == 0
    assert capsys.readouterr().out == first


def test_cli_morphism_suite_builds_each_ideal_frame_once(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "rframe", lambda p: built.append(p) or rframe(p))
    assert main(["laws", "--suite", "morphisms"]) == 0
    assert len(built) == len(set(built)) == 6


@pytest.mark.parametrize("argv, builds", [
    # six instances, each with R L, R R L, R R R L, C L and C C L; on the
    # four finite ones C L is R R L and C C L is R R R L, as maxp is wb
    (["laws", "--suite", "all"], 22),
    (["laws", "--suite", "all", "--instance", "chain-k2"], 5),
], ids=["catalog", "chain-k2"])
def test_cli_laws_builds_each_ideal_frame_once_per_run(argv, builds, capsys,
                                                       monkeypatch):
    import proxkit.roundideal as roundideal

    built = []
    for name in ("_rframe_finite", "_rframe_chain"):
        build = getattr(roundideal, name)
        monkeypatch.setattr(roundideal, name,
                            lambda p, build=build: built.append(p) or build(p))
    assert main(argv) == 0
    assert len(built) == builds
    # no proximity is built twice within a run
    assert len(set(built)) == builds
    # nothing is kept past the run: a second one builds them all again
    assert main(argv) == 0
    assert len(built) == 2 * builds


def test_cli_laws_morphism_suite(capsys):
    assert main(["laws", "--suite", "morphisms"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert all(l["verdict"] == "pass" for l in lines)
    laws = {l["law"] for l in lines}
    assert {"theta-rho.roundtrip", "decomposition", "theta-rho.exhaustive",
            "kleisli.functor"} <= laws


def test_cli_search_collapse(capsys):
    assert main(["search", "--law", "collapse", "--max-size", "5"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert all(l["verdict"] == "pass" for l in lines)
    assert any(l["frame"] == "vee" for l in lines)


def test_cli_search_theta_rho(capsys):
    assert main(["search", "--law", "theta-rho", "--max-size", "4"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert sum(l["failures"] for l in lines) == 0
    assert sum(l["homs"] for l in lines) > 0


def test_cli_search_star_vs_compose(capsys):
    assert main(["search", "--law", "star-vs-compose", "--max-size", "4"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["result"] == "no finite witness"
    assert "k2-f" in doc["note"]


def test_cli_search_star_vs_compose_enumerates_each_ordered_pair_once(capsys, monkeypatch):
    from proxkit import cli

    calls = []

    def counting(src, dst):
        calls.append((src, dst))
        return enumerate_proxhoms(src, dst)

    monkeypatch.setattr(cli, "enumerate_proxhoms", counting)
    assert main(["search", "--law", "star-vs-compose", "--max-size", "4"]) == 0
    # five frames: one call per ordered (source, target) pair; each
    # target's endomorphisms are the homomorphisms of its diagonal pair
    assert len(calls) == 5 * 5
    assert len(set(calls)) == 5 * 5


def test_cli_search_star_vs_compose_pairs_each_hom_with_its_targets_endomorphisms(
        capsys, monkeypatch):
    def pair(g, f):
        return (f.src.frame.names, f.dst.frame.names, f.table,
                g.src.frame.names, g.dst.frame.names, g.table)

    compared = []
    star_table = cli._star_table

    def recording(g, f, composite):
        compared.append(pair(g, f))
        return star_table(g, f, composite)

    monkeypatch.setattr(cli, "_star_table", recording)
    assert main(["search", "--law", "star-vs-compose", "--max-size", "4"]) == 0
    proxes = [order_proximity(f) for _, f in _generated_frames(4)]
    assert compared == [pair(g, f) for p in proxes for q in proxes
                        for f in enumerate_proxhoms(p, q) for g in enumerate_proxhoms(q, q)]
    assert len(compared) > 100


def test_cli_search_collapse_covers_order6(capsys):
    assert main(["search", "--law", "collapse", "--max-size", "6"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [l["frame"] for l in lines] == [
        "order2", "order3", "order4", "order5", "order6", "cube1", "cube2", "vee"]
    sizes = dict(_generated_frames(6))
    for l in lines:
        f = sizes[l["frame"]]
        comparable = sum(f.leq(a, b) for a in f.elements() for b in f.elements())
        assert l["verdict"] == "pass"
        assert l["samples"] == 2 ** (comparable - 2)
    assert lines[4]["samples"] == 2 ** 19


def test_cli_search_collapse_stops_at_order7_over_budget(capsys):
    # order7 has 26 free pairs: five records, then the budget refuses it
    assert main(["search", "--law", "collapse", "--max-size", "7"]) == 2
    out, err = capsys.readouterr()
    assert [json.loads(l)["frame"] for l in out.splitlines()] == [
        "order2", "order3", "order4", "order5", "order6"]
    assert err == "error: relation search space 2^26 is over budget\n"


def test_cli_search_theta_rho_builds_each_ideal_frame_once(capsys, monkeypatch):
    from proxkit import cli

    calls = []

    def counting(prox):
        calls.append(prox)
        return rframe(prox)

    monkeypatch.setattr(cli, "rframe", counting)
    assert main(["search", "--law", "theta-rho", "--max-size", "4"]) == 0
    # five frames: one ideal frame per source, not per (source, target) pair
    assert len(calls) == 5


# -- what a process keeps between main calls ------------------------------------
# values that depend only on the program are built once per process; nothing
# read from a file, no verdict and no ideal frame is kept


def test_catalog_instances_are_parsed_once_per_process(monkeypatch, capsys):
    assert load_instance("two")[1] is catalog_instances()["two"]
    monkeypatch.setattr(catalog, "_catalog_instance",
                        functools.cache(catalog._catalog_instance.__wrapped__))
    parsed = []

    def recording(doc):
        parsed.append(doc)
        return parse_instance(doc)

    monkeypatch.setattr(catalog, "parse_instance", recording)
    for _ in range(3):
        assert main(["validate", "two"]) == 0
    assert len(parsed) == 1
    assert load_instance("two")[1] is catalog_instances()["two"]


def test_an_instance_file_is_read_on_every_call(tmp_path, capsys):
    path = tmp_path / "inst.json"
    for name in ("first", "second"):
        path.write_text(json.dumps({"name": name, "builder": "finite",
                                    "elements": ["0", "1"], "leq": [["0", "1"]]}))
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["instance"] == name


def test_search_shares_generated_frames_but_builds_its_ideal_frames(monkeypatch, capsys):
    built = []

    def recording(prox):
        built.append(prox)
        return rframe(prox)

    monkeypatch.setattr(cli, "rframe", recording)
    runs = []
    for _ in range(2):
        assert main(["search", "--law", "theta-rho", "--max-size", "4"]) == 0
        runs.append(built[:])
        built.clear()
    first, second = runs
    assert len(first) == len(second) == 5
    assert all(p.frame is q.frame and p is not q for p, q in zip(first, second))


@pytest.mark.parametrize("law", ["collapse", "theta-rho", "star-vs-compose"])
@pytest.mark.parametrize("size", ["1", "0", "-3"])
def test_cli_search_rejects_max_size_below_two(capsys, law, size):
    assert main(["search", "--law", law, "--max-size", size]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --max-size must be at least 2\n"


@pytest.mark.parametrize("law", ["theta-rho", "star-vs-compose"])
def test_cli_search_reports_skipped_frames(capsys, law):
    assert main(["search", "--law", law, "--max-size", "4"]) == 0
    small = capsys.readouterr().out
    assert main(["search", "--law", law, "--max-size", "5"]) == 0
    skips = "".join(
        json.dumps({"frame": name, "skipped": "over 4 elements"}, sort_keys=True) + "\n"
        for name in ("order5", "vee")
    )
    assert capsys.readouterr().out == skips + small


def test_kleisli_functor_fails_a_pair_with_an_invalid_factor_without_theta(
        monkeypatch, capsys):
    """A catalog with one map on chain-k1 that moves the bottom: every
    composable pair with it as a factor fails kleisli.functor with a note
    naming it, and theta is never built from it or from a composite with
    it, while every other report stays as the catalog's own run prints."""
    p1 = catalog_instances()["chain-k1"]
    f1 = p1.frame
    bad = ChainMap(p1, p1, (Seq.constant(succ(f1, 0, 1)), Seq.constant(lim(f1, 1))))
    assert not validate_proxhom(bad).ok
    assert main(["laws", "--suite", "morphisms"]) == 0
    catalog_lines = capsys.readouterr().out.splitlines()

    catalog = catalog_morphisms()
    monkeypatch.setattr(cli, "catalog_morphisms",
                        lambda: {**catalog, "chain-bad": bad})
    theta_args = []
    real_theta = cli.theta

    def theta(f, rfd):
        theta_args.append(f)
        return real_theta(f, rfd)

    monkeypatch.setattr(cli, "theta", theta)
    assert main(["laws", "--suite", "morphisms"]) == 1
    lines = capsys.readouterr().out.splitlines()
    reports = [json.loads(line) for line in lines]

    k1 = [n for n, m in catalog.items() if m.src == p1] + ["chain-bad"]
    with_bad = {f"{n2}*{n1}" for n1 in k1 for n2 in k1 if "chain-bad" in (n1, n2)}
    assert len(with_bad) == 2 * len(k1) - 1 == 9
    flagged = [r for r in reports if r["instance"] in with_bad]
    assert {r["instance"] for r in flagged} == with_bad
    assert all(r == {"law": "kleisli.functor", "instance": r["instance"],
                     "verdict": "fail", "samples": 0,
                     "note": "invalid factor: chain-bad"} for r in flagged)
    assert {"law": "morphism.valid", "instance": "morphism:chain-bad",
            "verdict": "fail", "samples": 0} in reports
    # the catalog's own reports come out unchanged and in the same order
    rest = [line for line, r in zip(lines, reports)
            if r["instance"] not in with_bad | {"morphism:chain-bad"}]
    assert rest == catalog_lines
    # theta never saw the invalid map, nor a star-composite with it as a
    # factor: each such composite has chain-k1 as its source
    assert all(f is not bad for f in theta_args)
    k1_star = [m for m in theta_args if m.src == p1 and m.dst == p1]
    assert len(k1_star) == len(k1) - 1 + (len(k1) - 1) ** 2


@pytest.mark.parametrize("sunk, law", [
    ("rho", "theta-rho.roundtrip"),
    ("kappa_map", "decomposition"),
    ("kleisli_lift", "kleisli.functor"),
])
def test_morphism_suite_fails_the_law_of_a_sunk_map(sunk, law, monkeypatch, capsys):
    """One map of the morphism suite sent to the bottom: each record of
    its law fails, every other record is as the catalog's run prints it,
    and laws exits 1."""
    argv = ["laws", "--suite", "morphisms", "--instance", "chain-k1"]
    assert main(argv) == 0
    passing = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    build = getattr(cli, sunk)
    monkeypatch.setattr(cli, sunk, lambda *args: _sunk(build(*args)))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [json.loads(line) for line in out.splitlines()] == [
        dict(r, verdict="fail") if r["law"] == law else r for r in passing]
    assert sum(r["law"] == law for r in passing) == (16 if law == "kleisli.functor" else 4)


def test_exhaustive_theta_rho_counts_its_failures(monkeypatch, capsys):
    # rho sunk to the bottom gives back none of the 4 endomorphisms of the
    # diamond, and the round trip of its identity fails too
    build = cli.rho
    monkeypatch.setattr(cli, "rho", lambda *args: _sunk(build(*args)))
    assert main(["laws", "--suite", "morphisms", "--instance", "diamond"]) == 1
    assert capsys.readouterr() == ("".join(line + "\n" for line in [
        '{"instance": "morphism:diamond-id", "law": "theta-rho.roundtrip", "samples": 0, '
        '"verdict": "fail"}',
        '{"instance": "morphism:diamond-id", "law": "decomposition", "samples": 0, '
        '"verdict": "pass"}',
        '{"instance": "diamond->diamond", "law": "theta-rho.exhaustive", '
        '"note": "4 failures", "samples": 4, "verdict": "fail"}',
        '{"instance": "diamond-id*diamond-id", "law": "kleisli.functor", "samples": 0, '
        '"verdict": "pass"}']), "")


def test_cli_search_star_vs_compose_prints_each_witness(monkeypatch, capsys):
    # the star table sunk to the bottom differs from every composite that
    # is not constant: one witness record per pair, and exit 1
    monkeypatch.setattr(cli, "_star_table",
                        lambda g, f, composite: (g.dst.frame.bot,) * len(composite))
    assert main(["search", "--law", "star-vs-compose", "--max-size", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [json.loads(line) for line in out.splitlines()] == [
        {"witness": ["FiniteMap{c0->c0, c1->c1}", "FiniteMap{c0->c0, c1->c1}"]},
        {"witness": ["FiniteMap{c0->{}, c1->{x0}}", "FiniteMap{{}->{}, {x0}->{x0}}"]},
        {"witness": ["FiniteMap{{}->c0, {x0}->c1}", "FiniteMap{c0->c0, c1->c1}"]},
        {"witness": ["FiniteMap{{}->{}, {x0}->{x0}}", "FiniteMap{{}->{}, {x0}->{x0}}"]}]
