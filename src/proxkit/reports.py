"""Structured outcomes of axiom and law checks, and the JSON writers
every report goes through.

`line` and `document` produce exactly the bytes of ``json.dumps(obj,
sort_keys=True)`` and ``json.dumps(obj, sort_keys=True, indent=2)``, so
stdout stays as it was, only sooner.  ``json.dumps`` builds a new encoder
on each call with ``sort_keys``, and with ``indent`` set it falls back to
the pure-Python encoder: on a large `compactify` document that is most of
the command.  `line` is one encoder, built once; it keeps no state
between calls.  `document` walks dicts and lists in Python and hands
every string to the C string encoder, and every other scalar to `line`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

PASS = "pass"
FAIL = "fail"
SYMBOLIC = "verified-symbolically"

# one JSON-lines record, as json.dumps(obj, sort_keys=True) writes it
line = json.JSONEncoder(sort_keys=True).encode


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
        if not obj:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        try:
            # a list of strings in one step; _string refuses anything else
            body = sep.join(map(_string, obj))
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
        return line(self.to_json())


def law_pass(law: str, instance: str, samples: int = 0, note="") -> LawReport:
    return LawReport(law, instance, PASS, samples=samples, note=note)


def law_fail(law: str, instance: str, witness=None, samples=0, note="") -> LawReport:
    return LawReport(law, instance, FAIL, samples=samples, witness=witness, note=note)
