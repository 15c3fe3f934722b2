"""Structured outcomes of axiom and law checks."""

from __future__ import annotations

import json
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
SYMBOLIC = "verified-symbolically"


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

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


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
        return json.dumps(self.to_json(), sort_keys=True)


def law_pass(law: str, instance: str, samples: int = 0, note="") -> LawReport:
    return LawReport(law, instance, PASS, samples=samples, note=note)


def law_fail(law: str, instance: str, witness=None, samples=0, note="") -> LawReport:
    return LawReport(law, instance, FAIL, samples=samples, witness=witness, note=note)
