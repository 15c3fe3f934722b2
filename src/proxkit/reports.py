"""Structured outcomes of axiom and law checks, and the JSON writers
every report goes through.

`line` and `document` produce exactly the bytes of ``json.dumps(obj,
sort_keys=True)`` and ``json.dumps(obj, sort_keys=True, indent=2)``, so
stdout stays as it was, only sooner.  ``json.dumps``, like
``JSONEncoder.encode``, builds a new C encoder inside every call, and
with ``indent`` set it falls back to the pure-Python encoder: on a large
`compactify` document that is most of the command.  `line` calls one C
encoder, built at import.  `document` walks dicts and lists in Python and
hands every string to the C string encoder, and every other scalar to
`line`.  A list met again at the same indentation, as the one pair list
a finite `compactify` keeps under both relations, is written once; a
list of string pairs is written in one step, each distinct label
encoded once.  `law_report` builds every LawReport, whose `dumps` writes
its six fixed fields itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _string

PASS = "pass"
FAIL = "fail"
SYMBOLIC = "verified-symbolically"


if c_make_encoder is None:  # an interpreter without the _json accelerator
    line = json.JSONEncoder(sort_keys=True).encode
else:
    # the encoder json.dumps(obj, sort_keys=True) builds on every call,
    # with the same circular-reference markers, string encoder and default
    _markers: dict = {}
    _encode = c_make_encoder(_markers, json.JSONEncoder().default, _string, None,
                             ": ", ", ", True, False, True)

    def line(obj) -> str:
        """One JSON-lines record, as json.dumps(obj, sort_keys=True) writes
        it.  An error can leave the markers of the containers it was
        inside; they are dropped, so the next call starts clean.  The
        markers are shared, so threads must not call it concurrently."""
        try:
            return "".join(_encode(obj, 0))
        except BaseException:
            _markers.clear()
            raise


def document(obj) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it.  Dict
    keys must be strings, as in every report; anything else that is not
    a dict, list or tuple is written by `line`."""
    return _indented(obj, "\n", {})


def _indented(obj, newline: str, written: dict) -> str:
    """obj indented as at the line break `newline`, its items one level
    deeper.  `written` keeps the text of each list or tuple written in
    this call by its id and `newline`, so one met again is written once;
    every object met is alive under the document, so no id is reused."""
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, (list, tuple)):
        key = id(obj), newline
        if key not in written:
            written[key] = _list(obj, newline, written)
        return written[key]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _string(k) + ": " + _indented(v, inner, written) for k, v in sorted(obj.items())
        ]) + newline + "}"
    return line(obj)


def _list(items, newline: str, written: dict) -> str:
    """A list or tuple indented as at `newline`: one of string pairs in
    one step, any other item by item."""
    if not items:
        return "[]"
    inner = newline + "  "
    if ({type(x) for x in items} <= {list, tuple} and {len(x) for x in items} == {2}
            and {type(s) for x in items for s in x} == {str}):
        # string pairs, as compactify's pair lists, in one step: each
        # distinct label encoded once
        code = {s: _string(s) for s in {s for x in items for s in x}}
        deeper = inner + "  "
        head, mid, tail = "[" + deeper, "," + deeper, inner + "]"
        body = ("," + inner).join([head + code[a] + mid + code[b] + tail for a, b in items])
    else:
        body = ("," + inner).join([_indented(x, inner, written) for x in items])
    return "[" + inner + body + newline + "]"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: tuple | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (PASS, SYMBOLIC)

    def to_json(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts for one relation on one frame."""

    axioms: tuple[tuple[str, Verdict], ...]
    collapse: bool | None = None  # finite frames: whether rel equals leq

    @property
    def ok(self) -> bool:
        return all(v.ok for _, v in self.axioms)

    def verdict(self, axiom: str) -> Verdict:
        return dict(self.axioms)[axiom]

    def failures(self) -> list[tuple[str, Verdict]]:
        return [(a, v) for a, v in self.axioms if not v.ok]

    def to_json(self):
        out = {"axioms": {a: v.to_json() for a, v in self.axioms}, "ok": self.ok}
        if self.collapse is not None:
            out["collapse"] = self.collapse
        return out


@dataclass(frozen=True)
class LawReport:
    """Outcome of checking one identity on one instance."""

    law: str
    instance: str
    verdict: str  # PASS | FAIL
    samples: int = 0
    witness: tuple | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_json(self):
        out = {
            "law": self.law,
            "instance": self.instance,
            "verdict": self.verdict,
            "samples": self.samples,
        }
        if self.witness is not None:
            out["witness"] = [str(w) for w in self.witness]
        if self.note:
            out["note"] = self.note
        return out

    def dumps(self) -> str:
        """line(self.to_json()): the fields written in the sorted order of
        their keys."""
        out = '{"instance": ' + _string(self.instance) + ', "law": ' + _string(self.law)
        if self.note:
            out += ', "note": ' + _string(self.note)
        out += ', "samples": ' + line(self.samples) + ', "verdict": ' + _string(self.verdict)
        if self.witness is not None:
            out += ', "witness": [' + ", ".join([_string(str(w)) for w in self.witness]) + "]"
        return out + "}"

    @classmethod
    def _unchecked(cls, law, instance, verdict, samples, witness, note) -> "LawReport":
        """A report with every field given, set in one step as the maps'
        and ideals' `_unchecked` constructors set theirs: the frozen
        dataclass's __init__ sets each field through object.__setattr__."""
        r = object.__new__(cls)
        r.__dict__.update(law=law, instance=instance, verdict=verdict,
                          samples=samples, witness=witness, note=note)
        return r


def law_report(law: str, instance: str, ok: bool, witness=None, samples: int = 0,
               note: str = "") -> LawReport:
    """The report of one law from its outcome: ok, the witness of a
    failure, the checks made and a note.  A pass drops the witness."""
    return LawReport._unchecked(law, instance, PASS if ok else FAIL, samples,
                                None if ok else witness, note)
