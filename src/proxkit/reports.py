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
`line`.  `LawReport.dumps` writes its six fixed fields itself.
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
    return _indented(obj, "\n")


def _indented(obj, newline: str) -> str:
    """obj indented as at the line break `newline`, its items one level
    deeper."""
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, (list, tuple)):
        try:
            return _string_list(obj, newline)
        except TypeError:
            pass
        inner = newline + "  "
        sep = "," + inner
        try:
            # a list of string lists, as compactify's pair lists, in one step
            body = sep.join([_string_list(x, inner) for x in obj])
        except TypeError:
            body = sep.join([_indented(x, inner) for x in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _string(k) + ": " + _indented(v, inner) for k, v in sorted(obj.items())
        ]) + newline + "}"
    return line(obj)


def _string_list(items, newline: str) -> str:
    """A list or tuple of strings indented as at the line break `newline`;
    a TypeError for anything else, from _string on an item that is not a
    string."""
    if not isinstance(items, (list, tuple)):
        raise TypeError(f"not a list: {items!r}")
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(_string, items)) + newline + "]"


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


def law_pass(law: str, instance: str, samples: int = 0, note="") -> LawReport:
    return LawReport._unchecked(law, instance, PASS, samples, None, note)


def law_fail(law: str, instance: str, witness=None, samples=0, note="") -> LawReport:
    return LawReport._unchecked(law, instance, FAIL, samples, witness, note)
