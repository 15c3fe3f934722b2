"""Built-in instances, JSON codecs, and the named morphism catalog.

Instances and morphisms live as data files under ``data/`` so acceptance
runs are reproducible, each written in the format a user document takes:
one file per instance, and ``data/morphisms.json`` holding every catalog
map by name, which shows both morphism forms.  The JSON formats:

instance::
    { "name": "...", "builder": "finite" | "downsets" | "topology"
                             | "product" | "chain", ... , "proximity": ... }

morphism::
    finite:  { "table": { "a": "b", ... } }
    chain:   { "blocks": [ { "exceptions": {"0": "S0.0"},
                             "tail": {"block": 1, "a": 1, "b": 0} }
                           | {"tail": "L1"} , ... ],
               "limits": "derived" | ["L1", ...] }
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from importlib import resources

from .chain import OMEGA, El, Seq, _max_str_digits, build_chain_frame
from .errors import InvalidParameter, UnknownInstance
from .finite import build_finite_frame, downset_frame, open_set_frame
from .morphisms import ChainMap, FiniteMap, Morphism
from .proximity import (
    FiniteProximity,
    Proximity,
    chain_proximity,
    order_proximity,
    product_proximity,
)

CATALOG_NAMES = ("two", "chain3", "diamond", "cube3", "chain-k1", "chain-k2")


# -- instance parsing ---------------------------------------------------------


def parse_instance(doc: dict) -> tuple[str, Proximity]:
    """Parse one instance document into a named proximity frame.  A
    malformed field raises InvalidParameter naming it and its value."""
    if not isinstance(doc, dict) or "builder" not in doc:
        raise InvalidParameter("instance document needs a 'builder' field")
    builder = doc["builder"]
    name = doc.get("name", builder)
    if "name" in doc and not isinstance(name, str):
        raise InvalidParameter(f"field 'name' must be a string, got {name!r}")
    if builder == "chain":
        k = doc.get("k", 1)
        if not _is_int(k):
            raise InvalidParameter(f"field 'k' must be an integer, got {k!r}")
        names = None if "names" not in doc else _names(doc["names"], "names")
        if names is not None and len(names) > k:
            raise InvalidParameter(
                f"field 'names' has {len(names)} block names for k = {k} blocks")
        frame = build_chain_frame(k, names)
        refl = doc.get("reflexive", [])
        if not isinstance(refl, (list, tuple)) or not all(map(_is_int, refl)):
            raise InvalidParameter(
                f"field 'reflexive' must be a list of limit indices, got {refl!r}")
        repeated = sorted(i for i, c in Counter(refl).items() if c > 1)
        if repeated:
            raise InvalidParameter(
                f"field 'reflexive' repeats the limit indices {repeated}")
        return name, chain_proximity(frame, refl)
    if builder in ("finite", "downsets"):
        build = build_finite_frame if builder == "finite" else downset_frame
        frame = build(_names(_field(doc, "elements"), "elements"),
                      _name_pairs(doc.get("leq", []), "leq"))
    elif builder == "topology":
        opens = _field(doc, "opens")
        if not isinstance(opens, (list, tuple)):
            raise InvalidParameter(f"field 'opens' must be a list, got {opens!r}")
        frame = open_set_frame(_names(_field(doc, "points"), "points"),
                               [_names(o, "opens") for o in opens])
    elif builder == "product":
        left, right = (_instance_field(doc, key) for key in ("left", "right"))
        return name, product_proximity(left, right)
    else:
        raise InvalidParameter(f"unknown builder {builder!r}")
    return name, _finite_with_proximity(frame, doc.get("proximity", "leq"))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _field(doc: dict, key: str):
    if key not in doc:
        raise InvalidParameter(f"instance document needs the field {key!r}")
    return doc[key]


def _instance_field(doc: dict, key: str) -> FiniteProximity:
    value = _field(doc, key)
    if not isinstance(value, dict):
        raise InvalidParameter(
            f"field {key!r} must be an instance document, got {value!r}")
    prox = parse_instance(value)[1]
    if not isinstance(prox, FiniteProximity):
        raise InvalidParameter(
            f"field {key!r} must be a finite instance document, got {value!r}")
    return prox


def _names(value, key: str) -> list[str]:
    if not isinstance(value, (list, tuple)):
        raise InvalidParameter(f"field {key!r} must be a list of names, got {value!r}")
    for x in value:
        if not isinstance(x, str):
            raise InvalidParameter(f"field {key!r} has a non-name entry {x!r}")
    return list(value)


def _name_pairs(value, key: str) -> list[tuple[str, str]]:
    if not isinstance(value, (list, tuple)):
        raise InvalidParameter(f"field {key!r} must be a list of name pairs, got {value!r}")
    for p in value:
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                and all(isinstance(x, str) for x in p)):
            raise InvalidParameter(f"field {key!r} has an entry {p!r} that is not a name pair")
    return [tuple(p) for p in value]


def _finite_with_proximity(frame, spec) -> FiniteProximity:
    if spec == "leq":
        return order_proximity(frame)
    if isinstance(spec, dict) and "pairs" in spec:
        rows = [0] * frame.n
        for a, b in _name_pairs(spec["pairs"], "proximity.pairs"):
            try:
                rows[frame.index(a)] |= 1 << frame.index(b)
            except InvalidParameter as exc:
                raise InvalidParameter(f"field 'proximity.pairs': {exc}") from None
        return FiniteProximity(frame, tuple(rows))
    raise InvalidParameter(f"unknown proximity spec {spec!r}")


def load_instance(name_or_path: str) -> tuple[str, Proximity]:
    """A catalog name, or a path to an instance JSON file.  This is where
    the errors of reading a document become input errors.  A catalog
    instance is read once per process and shared; a file is read and
    parsed on every call."""
    if name_or_path in CATALOG_NAMES:
        return _catalog_instance(name_or_path)
    try:
        with open(name_or_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UnknownInstance(f"{name_or_path}: {exc}") from exc
    return _read_instance(data)


@functools.cache
def _catalog_instance(name: str) -> tuple[str, Proximity]:
    """A catalog instance, parsed on first use; proximities are immutable."""
    return _read_instance(_data_file(name))


def _data_file(name: str) -> bytes:
    return resources.files("proxkit").joinpath(f"data/{name}.json").read_bytes()


def _read_instance(data: bytes) -> tuple[str, Proximity]:
    try:
        try:
            doc = json.loads(data)
        except ValueError as exc:  # not JSON, not UTF-8, or an over-long integer
            raise InvalidParameter(str(exc)) from exc
        return parse_instance(doc)
    except RecursionError:  # in json.loads, or parse_instance's product factors
        raise InvalidParameter("instance document is nested too deeply") from None


def catalog_instances() -> dict[str, Proximity]:
    """A fresh dict of the catalog's (shared, immutable) proximities."""
    return dict(map(load_instance, CATALOG_NAMES))


# -- element and morphism codecs ---------------------------------------------


def parse_element(prox: Proximity, s: str):
    """The element of prox's frame named s."""
    return prox.frame.index(s)


def parse_morphism(doc: dict, src: Proximity, dst: Proximity) -> Morphism:
    """A table on a finite source, giving a value to every source element,
    or blocks on a chain.  A malformed field raises InvalidParameter
    naming it and its value, or the elements a table leaves out."""
    if isinstance(src, FiniteProximity):
        f = src.frame
        table = {f.index(k): parse_element(dst, v)
                 for k, v in _doc_field(doc, "table", dict, "an object").items()}
        if len(table) < f.n:
            missing = ", ".join(f.names[x] for x in f.elements() if x not in table)
            raise InvalidParameter(f"field 'table' has no value for {missing}")
        return FiniteMap(src, dst, tuple(map(table.__getitem__, f.elements())))
    blocks = _doc_field(doc, "blocks", list, "a list")
    limits = doc.get("limits", "derived")
    if limits != "derived":
        limits = _doc_field(doc, "limits", list, '"derived" or a list')
    rules: list[Seq] = []
    bi = li = 0
    for i, seg in enumerate(src.frame.segments):
        if seg.kind == OMEGA:
            if bi >= len(blocks):
                raise InvalidParameter(f"no entry in 'blocks' for block {seg.label}")
            b = blocks[bi]
            bi += 1
            t = _doc_field(b, "tail", (str, dict), "an element or an object")
            exceptions = _doc_field(b, "exceptions", dict, "an object") if "exceptions" in b else {}
            exc = [(_position(k), parse_element(dst, v)) for k, v in exceptions.items()]
            if isinstance(t, str):
                rules.append(Seq.constant(parse_element(dst, t), exc))
                continue
            at = (t.get("block"), t.get("a", 1), t.get("b", 0))
            if not all(map(_is_int, at)):
                raise InvalidParameter(
                    f"field 'tail' needs the integers 'block', 'a' and 'b', got {t!r}")
            rules.append(Seq.affine(2 * at[0], at[1], at[2], exc))
        elif limits == "derived":
            # the limit value is forced by the supremum of the block below
            if not src.frame.is_limit(El(i, 0)):
                raise InvalidParameter(
                    f"no block below {seg.label} to derive its value from")
            rules.append(Seq.constant(rules[-1].sup(dst.frame.join)[0]))
        else:
            if li >= len(limits):
                raise InvalidParameter(f"no entry in 'limits' for {seg.label}")
            rules.append(Seq.constant(parse_element(dst, limits[li])))
            li += 1
    return ChainMap(src, dst, tuple(rules))


def _doc_field(doc, key: str, kind, what: str):
    """doc[key], which must be `what`: a value of kind."""
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidParameter(f"morphism document needs the field {key!r}, got {doc!r}")
    if not isinstance(doc[key], kind):
        raise InvalidParameter(f"field {key!r} must be {what}, got {doc[key]!r}")
    return doc[key]


def _position(key: str) -> int:
    """An exception key: the digits of a position, no more than int() reads."""
    if (type(key) is not str or not (key.isascii() and key.isdigit())
            or 0 < _max_str_digits() < len(key)):
        raise InvalidParameter(f"field 'exceptions' has a key {key!r} that is not a position")
    return int(key)


# -- the named morphism catalog ----------------------------------------------


def catalog_morphisms() -> dict[str, Morphism]:
    """A fresh dict of the catalog's (shared, immutable) named maps."""
    return dict(_catalog_morphisms())


@functools.cache
def _catalog_morphisms() -> tuple[tuple[str, Morphism], ...]:
    """The named maps exercised by the law suites, parsed from
    ``data/morphisms.json`` and checked once per process, in file order.
    Each document names its source and target catalog instances.  On the
    one-block chain: the identity, doubling, n -> n+3 relocated at 0 to
    keep the bottom fixed, and the join-breaking collapse h, which sends
    the block to the bottom and keeps L1.  On the two-block chain, k2-f
    and k2-g: the star-vs-compose witness pair, whose star-composite
    differs from their plain composite.  Then the identities of the four
    finite instances."""
    insts = catalog_instances()
    docs = json.loads(_data_file("morphisms"))
    return tuple((name, parse_morphism(doc, insts[doc["source"]], insts[doc["target"]]))
                 for name, doc in docs.items())
